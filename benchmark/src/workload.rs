//! The four workloads and the request plan each one makes from `--seed`.
//!
//! A plan is a pure function of `(workload, seed, seconds)`: which user
//! each request names, whether it is a post or a get, which item a post
//! names, and (open loop) the instant it is due. The key seed, the
//! dataset seed and the cluster seed are constants of the benchmark, so
//! the program's set-up work is the same on every run and only the
//! traffic differs between seeds.

use pprox::scenario::schedule::{arrival_times_us, LoadShape};

/// Length of the verified warm-up that ends set-up, seconds.
pub const WARMUP_SECONDS: u64 = 2;

/// Users and items of the synthetic catalogue (`Dataset::generate`).
pub const NUM_USERS: u32 = 4000;
/// Items of the synthetic catalogue.
pub const NUM_ITEMS: u32 = 800;
/// Ratings the recommender is trained on.
pub const NUM_RATINGS: usize = 120_000;

/// Requests a closed-loop run encrypts ahead of time; the writer cycles
/// through them, giving every send a correlation id of its own.
pub const CLOSED_POOL: usize = 4096;

/// What stands behind the IA layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lrs {
    /// `StubLrs`: a fixed list, no model (the paper's nginx stub).
    Stub,
    /// `ShardEngine` trained on the synthetic catalogue.
    Reco,
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Requests are due on a seeded schedule whatever the system does.
    Open {
        /// Offered rate, requests per second.
        rps: u32,
    },
    /// A fixed number of requests is kept in flight on the connection.
    Closed {
        /// Requests in flight.
        window: usize,
    },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// End-to-end encryption on (RSA-2048) or the paper's m1 passthrough.
    pub encryption: bool,
    /// UA shuffle `(S, timeout_us)`; `None` leaves the default (off).
    pub shuffle: Option<(usize, u64)>,
    /// The recommender behind the chain.
    pub lrs: Lrs,
    /// Share of posts among timed requests.
    pub post_share: f64,
    /// Open or closed loop.
    pub load: Load,
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "enc_direct",
        why: "encryption on, shuffle off, stub LRS, gets, open loop 120 rps: RSA-2048 and per-hop wire cost do the work, shuffle and LRS none",
        encryption: true,
        shuffle: None,
        lrs: Lrs::Stub,
        post_share: 0.0,
        load: Load::Open { rps: 120 },
    },
    Workload {
        name: "enc_shuffle",
        why: "enc_direct plus shuffle S=8/50 ms: latency is shuffle dwell, so crypto or wire gains must not move it and flush-policy changes do",
        encryption: true,
        shuffle: Some((8, 50_000)),
        lrs: Lrs::Stub,
        post_share: 0.0,
        load: Load::Open { rps: 120 },
    },
    Workload {
        name: "plain_reco_mix",
        why: "encryption and shuffle off, real ShardEngine, 50% posts 50% gets, open loop 300 rps: wire, JSON and the LRS do the work, no crypto",
        encryption: false,
        shuffle: None,
        lrs: Lrs::Reco,
        post_share: 0.5,
        load: Load::Open { rps: 300 },
    },
    Workload {
        name: "full_saturation",
        why: "encryption on, shuffle S=8/50 ms, stub LRS, closed loop with 32 in flight: CPU-bound capacity, size-triggered flushes, queueing",
        encryption: true,
        shuffle: Some((8, 50_000)),
        lrs: Lrs::Stub,
        post_share: 0.0,
        load: Load::Closed { window: 32 },
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One planned operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `get(user)`.
    Get {
        /// User index in the catalogue.
        user: u32,
    },
    /// `post(user, item)`.
    Post {
        /// User index in the catalogue.
        user: u32,
        /// Item index in the catalogue.
        item: u32,
    },
}

/// One planned request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// Due instant, µs from the start of the warm-up (0 in closed loop,
    /// where a request is due when a slot of the window frees).
    pub due_us: u64,
    /// What is asked.
    pub op: Op,
}

/// The benchmark's own generator (SplitMix64), so the traffic a seed
/// produces does not depend on the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is irrelevant at these
    /// bounds).
    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % bound as u64) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due instants of an open loop at `rps` for `seconds` seconds: seeded
/// Poisson arrivals from `arrival_times_us(Steady{rps})`, conditioned on
/// exactly `rps` arrivals in every whole second. Each second's `rps + 1`
/// exponential gaps are rescaled so the last lands on the second's end
/// (which makes the first `rps` uniform order statistics, i.e. a Poisson
/// process given its count). Placement within a second stays random —
/// bursts and lulls reach the queues and the shuffle timer — while the
/// offered load is the same in every second and on every seed, so a
/// run is not deciding between 1750 and 1850 requests.
pub fn open_schedule_us(rps: u32, seconds: u64, seed: u64) -> Vec<u64> {
    let shape = LoadShape::Steady { rps: rps as f64 };
    let per_second = rps as usize;
    let mut due = Vec::with_capacity(per_second * seconds as usize);
    for second in 0..seconds {
        let gaps = arrival_times_us(&shape, per_second + 1, seed.wrapping_add(second));
        let scale = 1e6 / gaps[per_second].max(1) as f64;
        due.extend(
            gaps[..per_second]
                .iter()
                .map(|&t| second * 1_000_000 + ((t as f64 * scale) as u64).min(999_999)),
        );
    }
    due
}

/// The request plan: warm-up requests first (`warmup_len` of them), then
/// the timed ones. Warm-up requests are gets only, so that their answers
/// can be checked against the recommender with no post in between.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Every request, in send order.
    pub requests: Vec<Planned>,
    /// How many leading requests belong to the warm-up (open loop; in
    /// closed loop the warm-up is the first [`WARMUP_SECONDS`] of sending
    /// and this is 0).
    pub warmup_len: usize,
}

/// Builds the plan of `workload` for `seed` and a timed window of
/// `seconds` seconds.
pub fn plan(workload: &Workload, seed: u64, seconds: u64) -> Plan {
    let mut rng = SplitMix64::new(seed ^ 0x70_6c_61_6e);
    let mut pick = |timed: bool| {
        let user = rng.below(NUM_USERS);
        if timed && rng.unit() < workload.post_share {
            Op::Post {
                user,
                item: rng.below(NUM_ITEMS),
            }
        } else {
            Op::Get { user }
        }
    };
    match workload.load {
        Load::Open { rps } => {
            let due = open_schedule_us(rps, WARMUP_SECONDS + seconds, seed);
            let warmup_len = (rps as u64 * WARMUP_SECONDS) as usize;
            let requests = due
                .into_iter()
                .enumerate()
                .map(|(i, due_us)| Planned {
                    due_us,
                    op: pick(i >= warmup_len),
                })
                .collect();
            Plan {
                requests,
                warmup_len,
            }
        }
        Load::Closed { .. } => Plan {
            requests: (0..CLOSED_POOL)
                .map(|_| Planned {
                    due_us: 0,
                    op: pick(true),
                })
                .collect(),
            warmup_len: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds() {
        for w in &WORKLOADS {
            let a = plan(w, 7, 3);
            let b = plan(w, 7, 3);
            let c = plan(w, 8, 3);
            assert_eq!(a.requests, b.requests, "{}", w.name);
            assert_ne!(a.requests, c.requests, "{}", w.name);
        }
    }

    #[test]
    fn open_schedule_offers_the_same_load_every_second() {
        let due = open_schedule_us(120, 5, 42);
        assert_eq!(due.len(), 600);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        for second in 0..5u64 {
            let n = due.iter().filter(|&&t| t / 1_000_000 == second).count();
            assert_eq!(n, 120, "second {second}");
        }
        // Still random within the second: gaps are far from uniform.
        let gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let short = gaps.iter().filter(|&&g| (g as f64) < mean / 4.0).count();
        assert!(
            short > gaps.len() / 8,
            "{short} short gaps of {}",
            gaps.len()
        );
    }

    #[test]
    fn warm_up_is_gets_only_and_mix_follows_the_share() {
        let w = by_name("plain_reco_mix").unwrap();
        let p = plan(w, 3, 10);
        assert_eq!(p.warmup_len, 600);
        assert_eq!(p.requests.len(), 3600);
        assert!(p.requests[..p.warmup_len]
            .iter()
            .all(|r| matches!(r.op, Op::Get { .. })));
        let posts = p.requests[p.warmup_len..]
            .iter()
            .filter(|r| matches!(r.op, Op::Post { .. }))
            .count();
        assert!((1350..=1650).contains(&posts), "{posts} posts of 3000");
        let gets_only = plan(by_name("enc_direct").unwrap(), 3, 10);
        assert!(gets_only
            .requests
            .iter()
            .all(|r| matches!(r.op, Op::Get { .. })));
    }

    #[test]
    fn closed_loop_plans_a_fixed_pool() {
        let p = plan(by_name("full_saturation").unwrap(), 1, 10);
        assert_eq!(p.requests.len(), CLOSED_POOL);
        assert_eq!(p.warmup_len, 0);
    }
}
