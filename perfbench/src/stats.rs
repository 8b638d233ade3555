//! The benchmark's own statistics: medians, quartiles, tail percentiles
//! and open-loop request timing.
//!
//! Everything here is plain arithmetic over samples the workloads
//! collect; nothing reads the system under test.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads reported here match the ones a reader recomputes from the
/// raw values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[slot] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, q)
}

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.995, 0.99, 0.98, 0.95, 0.90];

/// The highest percentile on the ladder (p99.9, p99.5, p99, p98, p95,
/// p90) that still has at least [`MIN_TAIL_SAMPLES`] samples beyond it,
/// or `None` when even p90 has fewer. A tail read off fewer samples is
/// one or two outliers, not a percentile.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
}

/// Latency summary of one sample set, in the samples' own unit.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Whether at least [`MIN_TAIL_SAMPLES`] samples lie beyond p99.
    pub p99_supported: bool,
}

impl Summary {
    /// Summarises `values` (any order).
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        Self {
            n,
            p50: median(&v),
            p99: percentile(&v, 0.99),
            mean: if n == 0 {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / n as f64
            },
            p99_supported: samples_beyond(n, 0.99) >= MIN_TAIL_SAMPLES,
        }
    }
}

/// A clock an open-loop generator can read and wait on. The real one is
/// [`WallClock`]; tests drive the generator with a simulated clock.
pub trait Clock {
    /// Current time, as an offset from the clock's origin.
    fn now(&mut self) -> Duration;
    /// Blocks until `t` (returns at once if `t` has passed).
    fn wait_until(&mut self, t: Duration);
}

/// Monotonic wall clock: sleeps until shortly before the deadline, then
/// spins, so requests leave on time to within a microsecond or two
/// rather than the scheduler's wake-up slack.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin }
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> Duration {
        self.origin.elapsed()
    }

    fn wait_until(&mut self, t: Duration) {
        const SPIN: Duration = Duration::from_micros(300);
        loop {
            let now = self.origin.elapsed();
            if now >= t {
                return;
            }
            let left = t - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One open-loop request's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    /// When the schedule said the request was due.
    pub due: Duration,
    /// When it was actually issued (≥ `due`).
    pub issued: Duration,
    /// When it completed.
    pub done: Duration,
}

impl OpTiming {
    /// Latency as the caller of an open-loop system sees it: from the due
    /// time, not from the (possibly late) send. A stalled request delays
    /// every request queued behind it, and that delay is charged to them.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// Time the request spent inside the call (service time).
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.issued)
    }

    /// How late the generator issued the request.
    pub fn lag(&self) -> Duration {
        self.issued.saturating_sub(self.due)
    }
}

/// Drives `op` on a fixed-rate schedule: request `k` is due at
/// `k × period` from the clock's origin, for every due time before `end`.
/// The generator never skips or coalesces: a request that falls behind
/// is issued as soon as the previous one returns, and its latency still
/// counts from its due time (no coordinated omission). `op` receives the
/// request index and returns whether it succeeded.
pub fn run_open_loop(
    clock: &mut impl Clock,
    period: Duration,
    end: Duration,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<(OpTiming, bool)> {
    let mut out = Vec::new();
    let mut k = 0u64;
    loop {
        let due = period * k as u32;
        if due >= end {
            return out;
        }
        clock.wait_until(due);
        let issued = clock.now();
        let ok = op(k);
        let done = clock.now();
        out.push((OpTiming { due, issued, done }, ok));
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it: allowed.
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        // 999 samples: p99 has only 9 beyond, so fall back to p98.
        assert_eq!(highest_supported_percentile(999), Some(0.98));
        // 10 000 samples support p99.9 (10 beyond).
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(9_999), Some(0.995));
        // 100 samples: p90 has exactly 10 beyond.
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert!(Summary::of(&vec![1.0; 1000]).p99_supported);
        assert!(!Summary::of(&vec![1.0; 999]).p99_supported);
    }

    /// A simulated clock: waiting jumps to the deadline, and each request
    /// advances time by its scripted service time.
    struct SimClock<'a> {
        now: &'a std::cell::Cell<Duration>,
    }

    impl Clock for SimClock<'_> {
        fn now(&mut self) -> Duration {
            self.now.get()
        }
        fn wait_until(&mut self, t: Duration) {
            self.now.set(self.now.get().max(t));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let ms = Duration::from_millis;
        let now = std::cell::Cell::new(ms(0));
        let mut clock = SimClock { now: &now };
        // Requests every 10 ms for 100 ms; each takes 1 ms, except
        // request 3 which stalls for 35 ms.
        let timings = run_open_loop(&mut clock, ms(10), ms(100), |k| {
            now.set(now.get() + if k == 3 { ms(35) } else { ms(1) });
            true
        });
        assert_eq!(timings.len(), 10);
        let lat: Vec<Duration> = timings.iter().map(|(t, _)| t.latency()).collect();
        // Before the stall: service time only.
        assert_eq!(&lat[..3], &[ms(1), ms(1), ms(1)]);
        // The stalled request itself.
        assert_eq!(lat[3], ms(35));
        // Requests 4..=6 were due at 40, 50, 60 ms but could only start
        // at 65, 66, 67 ms: their latency includes the queueing delay.
        assert_eq!(lat[4], ms(26));
        assert_eq!(lat[5], ms(17));
        assert_eq!(lat[6], ms(8));
        // By request 7 (due 70 ms) the backlog has drained.
        assert_eq!(lat[7], ms(1));
        // Service time alone would hide the stall's knock-on cost.
        assert_eq!(timings[4].0.service(), ms(1));
        assert_eq!(timings[4].0.lag(), ms(25));
        // Nothing was skipped: every due slot was issued exactly once.
        let dues: Vec<Duration> = timings.iter().map(|(t, _)| t.due).collect();
        assert_eq!(dues, (0..10).map(|k| ms(10 * k)).collect::<Vec<_>>());
    }
}
