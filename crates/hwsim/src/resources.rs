//! FPGA resource vectors and device capacities.

use std::iter::Sum;
use std::ops::{Add, Mul};

use serde::{Deserialize, Serialize};

/// A vector of FPGA resources: LUTs, CLB registers (flip-flops), BRAM36
/// blocks (fractional — Xilinx reports half blocks, e.g. the paper's
/// `27.5`), and DSP48 slices.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Resources {
    /// Lookup tables.
    pub lut: f64,
    /// CLB registers (flip-flops).
    pub ff: f64,
    /// BRAM36 blocks (may be fractional: a BRAM18 counts 0.5).
    pub bram: f64,
    /// DSP slices.
    pub dsp: f64,
}

impl Resources {
    /// The zero vector.
    pub(crate) const ZERO: Resources = Resources {
        lut: 0.0,
        ff: 0.0,
        bram: 0.0,
        dsp: 0.0,
    };

    /// Creates a resource vector.
    pub fn new(lut: f64, ff: f64, bram: f64, dsp: f64) -> Self {
        Self { lut, ff, bram, dsp }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, r: Resources) -> Resources {
        Resources {
            lut: self.lut + r.lut,
            ff: self.ff + r.ff,
            bram: self.bram + r.bram,
            dsp: self.dsp + r.dsp,
        }
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;
    fn mul(self, k: f64) -> Resources {
        Resources {
            lut: self.lut * k,
            ff: self.ff * k,
            bram: self.bram * k,
            dsp: self.dsp * k,
        }
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

/// An FPGA device's available resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Part name.
    pub name: String,
    /// Available resources (the "Available" row of Table II).
    pub available: Resources,
}

impl Device {
    /// The paper's device: Xilinx `xcvu13p-fhga2104-3-e` (Virtex
    /// UltraScale+ VU13P) — 1,728,000 LUTs, 3,456,000 CLB registers,
    /// 2,688 BRAM36, 12,288 DSPs (Table II "Available" row).
    ///
    /// # Example
    ///
    /// ```
    /// let d = hwsim::resources::Device::vu13p();
    /// assert_eq!(d.available.lut, 1_728_000.0);
    /// ```
    pub fn vu13p() -> Self {
        Self {
            name: "xcvu13p-fhga2104-3-e".into(),
            available: Resources::new(1_728_000.0, 3_456_000.0, 2_688.0, 12_288.0),
        }
    }

    /// Utilization percentages of `used` on this device, in Table-II
    /// column order `(LUT, FF, BRAM, DSP)`.
    pub fn utilization_pct(&self, used: &Resources) -> (f64, f64, f64, f64) {
        (
            100.0 * used.lut / self.available.lut,
            100.0 * used.ff / self.available.ff,
            100.0 * used.bram / self.available.bram,
            100.0 * used.dsp / self.available.dsp,
        )
    }

    /// Whether a design fits on this device.
    pub fn fits(&self, used: &Resources) -> bool {
        used.lut <= self.available.lut
            && used.ff <= self.available.ff
            && used.bram <= self.available.bram
            && used.dsp <= self.available.dsp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = Resources::new(1.0, 2.0, 3.0, 4.0);
        let b = Resources::new(10.0, 20.0, 30.0, 40.0);
        let s = a + b;
        assert_eq!(s, Resources::new(11.0, 22.0, 33.0, 44.0));
        assert_eq!(a * 2.0, Resources::new(2.0, 4.0, 6.0, 8.0));
        let total: Resources = [a, b].into_iter().sum();
        assert_eq!(total, s);
    }

    #[test]
    fn vu13p_matches_table2_available_row() {
        let d = Device::vu13p();
        assert_eq!(d.available.lut, 1_728_000.0);
        assert_eq!(d.available.bram, 2_688.0);
        assert_eq!(d.available.dsp, 12_288.0);
    }

    #[test]
    fn paper_top_fits_on_vu13p() {
        // Table II "Top" row
        let top = Resources::new(471_563.0, 217_859.0, 498.0, 129.0);
        let d = Device::vu13p();
        assert!(d.fits(&top));
        let (lut_pct, _, bram_pct, dsp_pct) = d.utilization_pct(&top);
        assert!((lut_pct - 27.3).abs() < 0.2, "{lut_pct}");
        assert!((bram_pct - 18.5).abs() < 0.2, "{bram_pct}");
        assert!(dsp_pct < 1.5, "{dsp_pct}");
    }

    #[test]
    fn fits_rejects_oversized() {
        let d = Device::vu13p();
        let huge = Resources::new(2e6, 0.0, 0.0, 0.0);
        assert!(!d.fits(&huge));
    }
}
