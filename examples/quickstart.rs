//! Quickstart: configure the paper's accelerator, schedule both
//! ResBlocks, and print the headline numbers next to the published ones.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use transformer_accel::accel::area::{estimate_power, AreaModel};
use transformer_accel::accel::{scheduler, AccelConfig};
use transformer_accel::baseline::gpu::{ffn_trace, mha_trace, GpuModel};

fn main() {
    // The paper's evaluation point: Transformer-base, s = 64, 200 MHz.
    let cfg = AccelConfig::paper_default();
    let mha = scheduler::schedule_mha(&cfg);
    let ffn = scheduler::schedule_ffn(&cfg);

    println!(
        "accelerator: {} at s = {}, {:.0} MHz",
        cfg.model.name,
        cfg.s,
        cfg.clock.as_mhz()
    );
    println!();
    println!(
        "MHA ResBlock: {:>6} cycles = {:>6.1} us  (paper: 21,344 cycles = 106.7 us)",
        mha.cycles.get(),
        mha.latency_us
    );
    println!(
        "FFN ResBlock: {:>6} cycles = {:>6.1} us  (paper: 42,099 cycles = 210.5 us)",
        ffn.cycles.get(),
        ffn.latency_us
    );
    println!(
        "systolic-array utilization: MHA {:.1}%, FFN {:.1}%",
        100.0 * mha.sa_utilization,
        100.0 * ffn.sa_utilization
    );

    // Compare against the calibrated V100/PyTorch baseline (Table III).
    let gpu = GpuModel::v100_pytorch();
    let gpu_mha = gpu.latency_us(&mha_trace(&cfg.model, cfg.s));
    let gpu_ffn = gpu.latency_us(&ffn_trace(&cfg.model, cfg.s));
    println!();
    println!(
        "speed-up vs V100 @ batch 1: MHA {:.1}x (paper 14.6x), FFN {:.1}x (paper 3.4x)",
        gpu_mha / mha.latency_us,
        gpu_ffn / ffn.latency_us
    );

    // Resources and power (Table II).
    let area = AreaModel::new(cfg.clone());
    let top = area.top();
    let power = estimate_power(&area, &cfg);
    println!();
    println!(
        "resources: {:.0} LUT / {:.0} FF / {:.0} BRAM / {:.0} DSP; power {:.1} W",
        top.lut,
        top.ff,
        top.bram,
        top.dsp,
        power.total_w()
    );
}
