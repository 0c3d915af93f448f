//! Serve a demo model over TCP through the front door.
//!
//! ```text
//! frontdoor [ADDR]            # default 127.0.0.1:7071
//! ```
//!
//! Builds the small paper-shape model used across the workspace's
//! benches (untrained weights — the point is the serving path, not
//! translation quality), binds the door, and runs the event loop until
//! the process is killed. Engine knobs come from the usual `ACCEL_*`
//! environment variables (`ACCEL_MAX_QUEUE`, `ACCEL_PREFIX_CACHE`,
//! `ACCEL_KV_PAGE`, ...).

use frontdoor::{DoorConfig, FrontDoor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::AtomicBool;
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7071".to_string());

    let cfg = ModelConfig {
        name: "Transformer-base-2L-frontdoor".into(),
        d_model: 128,
        d_ff: 512,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: 96,
    };
    eprintln!(
        "building {} (d_model={}, {} layers, vocab={})...",
        cfg.name, cfg.d_model, cfg.n_layers, cfg.vocab
    );
    let mut rng = StdRng::seed_from_u64(0xD00D_5EED);
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 8);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0xD00D_CA11));
    let model =
        quantized::QuantSeq2Seq::from_trained(&fp32, &calib, quantized::SoftmaxMode::Hardware);

    let door_cfg = DoorConfig {
        addr,
        ..DoorConfig::default()
    };
    let mut door = FrontDoor::new(&model, door_cfg).expect("bind front door");
    eprintln!(
        "front door listening on {} (src_vocab={}, tgt_vocab={}, max_len={}, threads={}, int8 kernel={:?})",
        door.local_addr().expect("local addr"),
        cfg.vocab,
        cfg.vocab,
        cfg.max_len,
        tensor::par::threads(),
        tensor::simd::int8_kernel(),
    );

    // Runs until killed; the door itself never panics on client input.
    static STOP: AtomicBool = AtomicBool::new(false);
    door.run(&STOP).expect("event loop");
}
