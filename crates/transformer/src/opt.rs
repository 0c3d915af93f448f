//! Parameter visitation and the Adam optimizer.
//!
//! Layers own their parameters *and* their gradients; [`HasParams`] lets
//! an optimizer walk them in a stable order without any global parameter
//! registry. [`Adam`] implements Kingma & Ba (2015) with the inverse-
//! square-root warmup schedule of Vaswani et al. (2017) available via
//! [`noam_lr`].

use tensor::Mat;

/// A layer (or model) exposing `(name, params, grads)` triples in a
/// stable, deterministic order.
///
/// The order must not change between calls: optimizers key their state by
/// visitation index.
pub trait HasParams {
    /// Visits every parameter buffer with its gradient buffer.
    #[allow(clippy::type_complexity)]
    fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32]));

    /// Sets every gradient to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, _, g| g.fill(0.0));
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |_, p, _| n += p.len());
        n
    }

    /// Global L2 norm of the gradient (for clipping / diagnostics).
    fn grad_norm(&mut self) -> f32 {
        let mut acc = 0.0f64;
        self.visit_params(&mut |_, _, g| {
            acc += g.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
        });
        acc.sqrt() as f32
    }

    /// Scales every gradient by `k` (gradient clipping support).
    fn scale_grads(&mut self, k: f32) {
        self.visit_params(&mut |_, _, g| {
            for v in g.iter_mut() {
                *v *= k;
            }
        });
    }
}

/// A weight-sized gradient buffer, allocated (zeroed) on first use by
/// `backward` or [`HasParams::visit_params`]. Layers hold `None` until
/// then, so a model built only for inference — and every clone of it —
/// never allocates its gradients.
pub(crate) fn grad_buf(grad: &mut Option<Mat<f32>>, shape: (usize, usize)) -> &mut Mat<f32> {
    grad.get_or_insert_with(|| Mat::zeros(shape.0, shape.1))
}

/// Adam optimizer with decoupled per-buffer first/second moments.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the
    /// Transformer-standard moments `beta1 = 0.9`, `beta2 = 0.98`,
    /// `eps = 1e-9` (Vaswani et al., Section 5.3).
    pub(crate) fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.98,
            eps: 1e-9,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Updates the learning rate (for schedules).
    pub(crate) fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one Adam update to every parameter of `model` using its
    /// accumulated gradients. Gradients are *not* cleared; call
    /// [`HasParams::zero_grad`] before the next accumulation.
    pub(crate) fn step(&mut self, model: &mut impl HasParams) {
        self.t += 1;
        let t = self.t as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.visit_params(&mut |_, p, g| {
            if ms.len() == idx {
                ms.push(vec![0.0; p.len()]);
                vs.push(vec![0.0; p.len()]);
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            assert_eq!(m.len(), p.len(), "parameter buffer {idx} changed size");
            for i in 0..p.len() {
                m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                p[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

/// The Noam (inverse-square-root warmup) learning-rate schedule of
/// Vaswani et al. (2017):
/// `lr = d_model^-0.5 * min(step^-0.5, step * warmup^-1.5)`.
pub(crate) fn noam_lr(d_model: usize, step: u64, warmup: u64) -> f32 {
    let step = step.max(1) as f32;
    let warmup = warmup.max(1) as f32;
    (d_model as f32).powf(-0.5) * step.powf(-0.5).min(step * warmup.powf(-1.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D quadratic bowl: loss = 0.5 * |p|^2, grad = p.
    struct Bowl {
        p: Vec<f32>,
        g: Vec<f32>,
    }

    impl HasParams for Bowl {
        fn visit_params(&mut self, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
            f("p", &mut self.p, &mut self.g);
        }
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut bowl = Bowl {
            p: vec![5.0, -3.0, 1.0],
            g: vec![0.0; 3],
        };
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            bowl.g.copy_from_slice(&bowl.p); // grad of 0.5|p|^2
            adam.step(&mut bowl);
        }
        assert!(bowl.p.iter().all(|&x| x.abs() < 1e-2), "{:?}", bowl.p);
        assert_eq!(adam.t, 500);
    }

    #[test]
    fn zero_grad_and_norms() {
        let mut bowl = Bowl {
            p: vec![1.0, 2.0],
            g: vec![3.0, 4.0],
        };
        assert_eq!(bowl.grad_norm(), 5.0);
        assert_eq!(bowl.param_count(), 2);
        bowl.scale_grads(0.5);
        assert_eq!(bowl.g, vec![1.5, 2.0]);
        bowl.zero_grad();
        assert_eq!(bowl.g, vec![0.0, 0.0]);
    }

    #[test]
    fn noam_warms_up_then_decays() {
        let w = 400;
        let early = noam_lr(512, 10, w);
        let peak = noam_lr(512, w, w);
        let late = noam_lr(512, 100 * w, w);
        assert!(early < peak, "{early} < {peak}");
        assert!(late < peak, "{late} < {peak}");
        // continuity at the warmup knee
        let just_before = noam_lr(512, w - 1, w);
        assert!((just_before - peak).abs() / peak < 0.01);
    }

    #[test]
    #[should_panic(expected = "changed size")]
    fn adam_detects_resized_buffers() {
        let mut bowl = Bowl {
            p: vec![1.0],
            g: vec![0.0],
        };
        let mut adam = Adam::new(0.1);
        adam.step(&mut bowl);
        bowl.p = vec![1.0, 2.0];
        bowl.g = vec![0.0, 0.0];
        adam.step(&mut bowl);
    }
}
