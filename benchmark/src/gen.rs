//! The workload generator: everything a run feeds the program comes
//! from `--seed` through here, and the program sees only the requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transformer::tasks::FIRST_CONTENT;

use crate::config::{Traffic, SRC_LEN};

/// One generated request, before it is given an id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRequest {
    /// Source sentence.
    pub src: Vec<usize>,
    /// Target-side prompt.
    pub prompt: Vec<usize>,
    /// Generation budget.
    pub max_new: usize,
}

/// An endless, seeded stream of requests of one traffic shape.
#[derive(Debug, Clone)]
pub struct RequestGen {
    rng: StdRng,
    vocab: usize,
    traffic: Traffic,
    /// Source sentence and prompt head every request shares
    /// (`shared_prefix > 0` only).
    shared: Option<(Vec<usize>, Vec<usize>)>,
}

fn tokens(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n)
        .map(|_| rng.random_range(FIRST_CONTENT..vocab))
        .collect()
}

/// Mixes the workload name into the seed so two workloads at one seed
/// do not replay each other's sentences.
pub fn stream_seed(seed: u64, workload: &str) -> u64 {
    workload.bytes().fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

impl RequestGen {
    /// A stream for `traffic` over a `vocab`-token vocabulary.
    pub fn new(seed: u64, workload: &str, vocab: usize, traffic: Traffic) -> Self {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, workload));
        let shared = (traffic.shared_prefix > 0).then(|| {
            let src_len = rng.random_range(SRC_LEN.0..=SRC_LEN.1);
            (
                tokens(&mut rng, src_len, vocab),
                tokens(&mut rng, traffic.shared_prefix, vocab),
            )
        });
        Self {
            rng,
            vocab,
            traffic,
            shared,
        }
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> GenRequest {
        let t = self.traffic;
        let (src, prompt) = match &self.shared {
            Some((src, head)) => {
                let mut prompt = head.clone();
                prompt.extend(tokens(&mut self.rng, t.prompt_len - head.len(), self.vocab));
                (src.clone(), prompt)
            }
            None => {
                let src_len = self.rng.random_range(SRC_LEN.0..=SRC_LEN.1);
                (
                    tokens(&mut self.rng, src_len, self.vocab),
                    tokens(&mut self.rng, t.prompt_len, self.vocab),
                )
            }
        };
        GenRequest {
            src,
            prompt,
            max_new: t.max_new,
        }
    }
}

/// Due times (seconds from the start of the schedule) of a Poisson
/// arrival process at `rate_rps` over `[0, horizon_s)`, conditioned on
/// its count: exactly `round(rate_rps * horizon_s)` arrivals, which
/// given their number fall as sorted uniform draws. Every seed then
/// offers the same load; with a free count, ten seeds' offered rates
/// alone spread 9% at 200 arrivals.
pub fn poisson_schedule(seed: u64, rate_rps: f64, horizon_s: f64) -> Vec<f64> {
    assert!(rate_rps > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, "poisson"));
    let n = (rate_rps * horizon_s).round() as usize;
    let mut due: Vec<f64> = (0..n)
        .map(|_| rng.random_range(0.0..1.0) * horizon_s)
        .collect();
    due.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite due times"));
    due
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{workload, Kind};

    fn traffic(name: &str) -> Traffic {
        match workload(name).expect("known workload").kind {
            Kind::InProcess(t) | Kind::Wire(t) => t,
            Kind::Paper => panic!("no traffic"),
        }
    }

    #[test]
    fn same_seed_same_trace_and_schedule() {
        let t = traffic("decode_c16");
        let take = |seed| {
            let mut g = RequestGen::new(seed, "decode_c16", 8192, t);
            (0..20).map(|_| g.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        assert_eq!(
            poisson_schedule(7, 30.0, 5.0),
            poisson_schedule(7, 30.0, 5.0)
        );
        assert_ne!(
            poisson_schedule(7, 30.0, 5.0),
            poisson_schedule(8, 30.0, 5.0)
        );
    }

    #[test]
    fn requests_have_the_declared_shape() {
        let t = traffic("prefix_decode");
        let mut g = RequestGen::new(3, "prefix_decode", 8192, t);
        let a = g.next_request();
        let b = g.next_request();
        assert_eq!(a.src, b.src, "one shared source sentence");
        assert_eq!(a.prompt.len(), 256);
        assert_eq!(a.prompt[..230], b.prompt[..230]);
        assert_ne!(a.prompt[230..], b.prompt[230..]);
        assert_eq!(a.max_new, 32);

        let t = traffic("prefill_long");
        let mut g = RequestGen::new(3, "prefill_long", 8192, t);
        let (a, b) = (g.next_request(), g.next_request());
        assert_ne!(a.prompt[..16], b.prompt[..16], "unshared prompts");
        for r in [&a, &b] {
            assert!((SRC_LEN.0..=SRC_LEN.1).contains(&r.src.len()));
            assert!(r
                .src
                .iter()
                .chain(&r.prompt)
                .all(|&t| (3..8192).contains(&t)));
        }
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate() {
        let due = poisson_schedule(11, 40.0, 100.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().copied().unwrap_or(0.0) < 100.0);
        assert_eq!(due.len(), 4000, "the count is the rate, at every seed");
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = due.windows(2).filter(|w| w[1] - w[0] > 1.0 / 40.0).count();
        assert!((long as f64 / 3999.0 - 0.368).abs() < 0.03, "{long}");
    }
}
