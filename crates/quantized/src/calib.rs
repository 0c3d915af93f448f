//! Post-training calibration: choose per-tensor activation scales by
//! observing FP32 max-abs values over a calibration set, replaying the
//! paper's Fig. 3 dataflow.

use fixedmath::quant::QuantParams;
use tensor::{gemm, ops, Mat};
use transformer::linear::Linear;

/// Running observer for one activation tensor: tracks the max-abs (the
/// paper's calibration rule).
#[derive(Debug, Clone, Default)]
pub(crate) struct Observer {
    max_abs: f32,
}

impl Observer {
    /// Creates an empty observer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds a matrix into the observation.
    pub(crate) fn observe(&mut self, m: &Mat<f32>) {
        self.max_abs = self.max_abs.max(ops::max_abs(m));
    }

    /// Converts the observation into symmetric INT8 parameters
    /// (max-abs rule).
    pub(crate) fn quant_params(&self) -> QuantParams {
        QuantParams::from_max_abs(self.max_abs)
    }
}

/// FP32 replay of one linear sublayer: `x W + b`.
pub fn linear_f32(lin: &Linear, x: &Mat<f32>) -> Mat<f32> {
    let xw = gemm::matmul(x, lin.weight()).expect("calibration shape mismatch");
    ops::add_row_bias(&xw, lin.bias()).expect("bias length invariant")
}

/// Activation scales of a quantized MHA ResBlock (one scale per tensor of
/// Fig. 3a).
#[derive(Debug, Clone, Copy)]
pub struct MhaScales {
    /// Scale of the block input on the query side (`Q` in Fig. 3a).
    pub x_q: QuantParams,
    /// Scale of the block input on the key/value side (`K = V`).
    pub x_kv: QuantParams,
    /// Scale of the `Q W_Q + bias` projections.
    pub q: QuantParams,
    /// Scale of the `K W_K + bias` projections.
    pub k: QuantParams,
    /// Scale of the `V W_V + bias` projections.
    pub v: QuantParams,
    /// Scale of the concatenated head outputs (`P` matrix).
    pub p: QuantParams,
    /// Scale of the LayerNorm output (the block output).
    pub out: QuantParams,
}

/// Activation scales of a quantized FFN ResBlock (Fig. 3b).
#[derive(Debug, Clone, Copy)]
pub struct FfnScales {
    /// Scale of the block input (`X`).
    pub x: QuantParams,
    /// Scale of the ReLU output (`P` matrix).
    pub hidden: QuantParams,
    /// Scale of the LayerNorm output.
    pub out: QuantParams,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn observer_tracks_running_max() {
        let mut o = Observer::new();
        o.observe(&Mat::from_vec(1, 2, vec![1.0f32, -3.0]).unwrap());
        o.observe(&Mat::from_vec(1, 2, vec![2.0f32, 0.5]).unwrap());
        assert_eq!(o.max_abs, 3.0);
        assert_eq!(o.quant_params().quantize(3.0), 127);
    }

    #[test]
    fn linear_replay_matches_layer_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin = Linear::new("t", 4, 3, &mut rng);
        let x = tensor::init::normal(&mut rng, 2, 4, 1.0);
        let want = lin.forward_inference(&x);
        let got = linear_f32(&lin, &x);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_observer_degenerates_to_unit_scale() {
        let o = Observer::new();
        assert_eq!(o.quant_params().scale(), 1.0);
    }
}
