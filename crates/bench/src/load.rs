//! Open-system load-harness machinery: seeded Poisson arrivals, Zipf
//! scenario popularity, a fixed-bucket log2 latency histogram, and
//! deterministic retry backoff.
//!
//! Everything here is *wire-agnostic* arithmetic — the bench crate
//! cannot link the server (the dependency points the other way), so the
//! socket-driving loop lives in `wcet-serve::load` and the `wcet load`
//! subcommand, both of which consume these pieces. Keeping the math
//! here means the load generator, the retrying client, and the
//! `BENCH_results.json` `load` block (schema 10) all agree on one
//! deterministic definition of "the request sequence for seed S".
//!
//! Determinism contract: every function of a seed returns the same
//! value on every run and platform that shares a float implementation —
//! the request *sequence* (Zipf picks) and retry *bounds* are exact;
//! arrival offsets steer timing only and never influence which bounds a
//! request produces.

use crate::json::Json;
use crate::scenario::stream::splitmix64 as mix;

/// SplitMix64, re-exported for seed derivation outside this crate (the
/// serve-side retry jitter uses it so client backoff and load-plan
/// generation share one mixer).
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    mix(x)
}

/// A tiny deterministic counter-mode RNG over [`splitmix64`]. Streams
/// derived from different seeds (or different stream tags) are
/// independent for load-generation purposes.
#[derive(Debug, Clone)]
pub struct Rng {
    seed: u64,
    counter: u64,
}

impl Rng {
    /// A stream seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng { seed, counter: 0 }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        mix(self
            .seed
            .wrapping_add(self.counter.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Uniform in `(0, 1]` — never exactly zero, so `ln` is always
    /// finite (53 mantissa bits).
    #[allow(clippy::cast_precision_loss)] // 53 bits fit f64 exactly
    pub fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// Cumulative Poisson-process arrival offsets (nanoseconds from the
/// epoch) for one closed connection: `count` exponential inter-arrival
/// gaps at `rate_per_sec`, seeded by `(seed, stream)` so every
/// connection draws an independent, reproducible schedule.
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // ns offsets ≪ 2^63
pub fn poisson_offsets_ns(seed: u64, stream: u64, count: usize, rate_per_sec: f64) -> Vec<u64> {
    let mut rng = Rng::new(mix(seed ^ stream.wrapping_mul(0xa24b_aed4_963e_e407)));
    let rate = rate_per_sec.max(1e-9);
    let mut t = 0.0f64; // seconds since the epoch
    (0..count)
        .map(|_| {
            t += -rng.next_unit().ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// A Zipf(s) sampler over ranks `0..n`: rank `k` has weight
/// `(k+1)^-s`, so rank 0 is the most popular scenario. Sampling is a
/// binary search over the precomputed cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `exponent`
    /// (`n == 0` is treated as 1; exponent 0 is uniform).
    #[must_use]
    #[allow(clippy::cast_precision_loss)] // rank counts are small
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let n = n.max(1);
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += (k as f64).powf(-exponent);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    /// Maps a uniform draw in `(0, 1]` to a rank.
    #[must_use]
    pub fn sample(&self, unit: f64) -> usize {
        self.cum
            .partition_point(|&c| c < unit)
            .min(self.cum.len() - 1)
    }
}

/// The deterministic request sequence: which scenario rank each of
/// `requests` submissions targets, drawn Zipf(`exponent`) over a pool
/// of `pool` scenarios. Same seed ⇒ same sequence, independent of how
/// the requests are later spread over connections.
#[must_use]
pub fn zipf_picks(seed: u64, requests: usize, pool: usize, exponent: f64) -> Vec<usize> {
    let zipf = Zipf::new(pool, exponent);
    let mut rng = Rng::new(mix(seed ^ 0x05ee_d0f1_abe1_u64));
    (0..requests)
        .map(|_| zipf.sample(rng.next_unit()))
        .collect()
}

/// Deterministic exponential backoff with jitter: attempt `a` waits
/// `min(cap, base·2^a + jitter)` milliseconds, where the jitter is a
/// seeded [`splitmix64`] draw below `base`. Bounded, monotone in the
/// exponent, and reproducible — the load harness's determinism rules
/// extend to *when* a retry fires.
#[must_use]
pub fn backoff_ms(base_ms: u64, cap_ms: u64, attempt: u32, seed: u64) -> u64 {
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let jitter = mix(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % base;
    exp.saturating_add(jitter).min(cap_ms.max(base))
}

/// A fixed-bucket log2 latency histogram: bucket `b ≥ 1` holds samples
/// in `[2^(b-1), 2^b)` nanoseconds, bucket 0 holds zero. 64 buckets
/// cover every representable latency with no allocation and O(64)
/// percentile extraction — the resolution (a factor of 2) is exactly
/// what an open-system tail report needs and no more.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Records one latency sample.
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros()) as usize;
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram in (per-connection histograms merge into
    /// the run total).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The inclusive upper bound (ns) of the bucket where the
    /// cumulative count first reaches `p·count` (`0 < p ≤ 1`). Zero for
    /// an empty histogram. Monotone in `p` by construction, so
    /// `percentile_ns(0.99) ≥ percentile_ns(0.50)` always holds.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)] // count·p ≤ count
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return match b {
                    0 => 0,
                    63 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
            }
        }
        u64::MAX
    }
}

/// The generated scenario pool the Zipf ranks index into: `n` distinct
/// single-cell specs (different kernels, arbiters and cycle limits), so
/// a Zipf-popular request mix exercises the server's hot memo with
/// realistic hit rates instead of hammering one fingerprint.
#[must_use]
pub fn scenario_pool(n: usize) -> Vec<String> {
    const KERNELS: [&str; 6] = [
        "fir:2x4", "fir:4x8", "crc:16", "crc:24", "bsort:6", "matmul:4",
    ];
    const ARBITERS: [&str; 2] = ["rr", "tdma:8"];
    (0..n.max(1))
        .map(|i| {
            let kernel = KERNELS[i % KERNELS.len()];
            let arbiter = ARBITERS[(i / KERNELS.len()) % ARBITERS.len()];
            // Past the kernel×arbiter combinations, a bumped cycle
            // limit keeps every fingerprint distinct.
            let cycle_limit = 100_000 + 25_000 * (i / (KERNELS.len() * ARBITERS.len()));
            format!(
                "name = load-{i}\ncores = 2\narbiter = {arbiter}\nmode = isolated\n\
                 cycle_limit = {cycle_limit}\ntasks = {kernel}\n"
            )
        })
        .collect()
}

/// What one load run measured, in the shape the `BENCH_results.json`
/// schema-10 `load` block carries. Counts are exact; latency
/// percentiles come from a [`Log2Histogram`] and are bucket upper
/// bounds. Each latency runs from the request's *scheduled* send time
/// (its Poisson arrival), not from when its connection got round to
/// sending it, so queueing behind a slow predecessor is counted rather
/// than omitted.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    /// Requests planned (the full seeded sequence).
    pub requests: u64,
    /// Requests that came back with bounds.
    pub completed: u64,
    /// Requests abandoned after exhausting their retry budget
    /// (persistent shed or transport failure).
    pub failed: u64,
    /// Typed non-overload error responses (budget, deadline, panic,
    /// protocol) — unexpected under a healthy load run.
    pub error_responses: u64,
    /// `Overloaded` responses observed (each was retried or, at
    /// exhaustion, counted into `failed`).
    pub shed: u64,
    /// Retry attempts beyond each request's first try.
    pub retries: u64,
    /// Transport-level failures that were retried.
    pub transport_retries: u64,
    /// Wall clock of the whole run, ms.
    pub wall_ms: f64,
    /// Completed requests per second of wall clock.
    pub throughput_rps: f64,
    /// Median latency from scheduled send to response (histogram bucket
    /// upper bound), ms.
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Closed connections that drove the run.
    pub connections: u64,
    /// The run seed (the whole request sequence derives from it).
    pub seed: u64,
    /// Every served bound was byte-identical to the in-process
    /// reference run — and at least one request completed.
    pub identical_bounds: bool,
}

/// The schema-10 `load` block.
#[must_use]
pub fn load_json(s: &LoadStats) -> Json {
    Json::obj([
        ("requests", Json::from(s.requests)),
        ("completed", Json::from(s.completed)),
        ("failed", Json::from(s.failed)),
        ("error_responses", Json::from(s.error_responses)),
        ("shed", Json::from(s.shed)),
        ("retries", Json::from(s.retries)),
        ("transport_retries", Json::from(s.transport_retries)),
        ("wall_ms", Json::from(s.wall_ms)),
        ("throughput_rps", Json::from(s.throughput_rps)),
        ("p50_ms", Json::from(s.p50_ms)),
        ("p95_ms", Json::from(s.p95_ms)),
        ("p99_ms", Json::from(s.p99_ms)),
        ("connections", Json::from(s.connections)),
        ("seed", Json::from(s.seed)),
        ("identical_bounds", Json::from(s.identical_bounds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_plans_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        });
        assert_eq!(zipf_picks(7, 100, 12, 1.1), zipf_picks(7, 100, 12, 1.1));
        assert_eq!(
            poisson_offsets_ns(7, 0, 50, 100.0),
            poisson_offsets_ns(7, 0, 50, 100.0)
        );
        assert_ne!(
            poisson_offsets_ns(7, 0, 50, 100.0),
            poisson_offsets_ns(7, 1, 50, 100.0),
            "each connection draws its own schedule"
        );
    }

    #[test]
    fn poisson_offsets_are_strictly_increasing_and_rate_shaped() {
        let offs = poisson_offsets_ns(3, 0, 1000, 100.0);
        assert!(offs.windows(2).all(|w| w[0] < w[1]));
        // 1000 arrivals at 100/s ⇒ ~10 s; allow a generous band.
        let last_s = offs[999] as f64 / 1e9;
        assert!((5.0..20.0).contains(&last_s), "got {last_s}");
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let picks = zipf_picks(42, 10_000, 16, 1.1);
        assert!(picks.iter().all(|&p| p < 16));
        let count = |rank: usize| picks.iter().filter(|&&p| p == rank).count();
        assert!(
            count(0) > count(8),
            "rank 0 must dominate a deep rank: {} vs {}",
            count(0),
            count(8)
        );
        assert!(count(0) < 10_000, "the tail must still be sampled");
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_bracket_samples() {
        let mut h = Log2Histogram::new();
        for ns in [800u64, 900, 1_000, 1_200, 50_000, 60_000, 1_000_000] {
            h.record_ns(ns);
        }
        let (p50, p95, p99) = (
            h.percentile_ns(0.50),
            h.percentile_ns(0.95),
            h.percentile_ns(0.99),
        );
        assert!(p50 > 0);
        assert!(p95 >= p50);
        assert!(p99 >= p95);
        assert!(p50 >= 800, "p50 bucket bound below the smallest sample");
        assert!(p99 >= 1_000_000 / 2, "p99 must reach the largest bucket");

        let mut other = Log2Histogram::new();
        other.record_ns(42);
        h.merge(&other);
        assert_eq!(h.count(), 8);
        assert_eq!(Log2Histogram::new().percentile_ns(0.99), 0);
    }

    #[test]
    fn backoff_grows_caps_and_reproduces() {
        assert_eq!(backoff_ms(25, 400, 3, 7), backoff_ms(25, 400, 3, 7));
        assert!(backoff_ms(25, 400, 0, 7) >= 25);
        assert!(backoff_ms(25, 400, 9, 7) <= 400);
        let a = backoff_ms(25, 10_000, 1, 7);
        let b = backoff_ms(25, 10_000, 4, 7);
        assert!(b > a, "exponent must dominate jitter: {a} vs {b}");
    }

    #[test]
    fn scenario_pool_is_distinct_and_parses_to_single_cells() {
        let pool = scenario_pool(16);
        assert_eq!(pool.len(), 16);
        let unique: std::collections::BTreeSet<&String> = pool.iter().collect();
        assert_eq!(unique.len(), 16, "pool entries must be distinct");
        for spec in &pool {
            let matrix = crate::scenario::parse_matrix(spec).expect("pool spec parses");
            assert_eq!(matrix.num_cells(), 1, "pool specs are single-cell");
        }
    }
}
