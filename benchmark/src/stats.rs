//! Statistics and schedule arithmetic: pure functions over numbers, no call
//! into the program under test.

/// SplitMix64: the benchmark's only randomness, so a `--seed` fixes every
/// generated input bit for bit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// Due times (ns from the start of the window) of a Poisson process of
/// `rate_per_s` over `seconds`: exponential gaps, so arrivals are the
/// independent events of an open loop.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let horizon_ns = seconds * 1e9;
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((rate_per_s * seconds * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() * mean_gap_ns;
        if t >= horizon_ns {
            return due;
        }
        due.push(t as u64);
    }
}

/// What the single generator thread does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Arrival `index` is due (or overdue): send it now.
    Submit(usize),
    /// Nothing is due for this many nanoseconds: wait on the observer.
    Wait(u64),
    /// Every arrival has been sent.
    Drained,
}

/// The open-loop clock: arrivals keep their schedule whether or not the
/// program keeps up, and latency is measured from the *due* time, so a
/// stall in the generator or the program is charged to every arrival it
/// delays.
#[derive(Debug)]
pub struct OpenLoop {
    due_ns: Vec<u64>,
    next: usize,
}

impl OpenLoop {
    pub fn new(due_ns: Vec<u64>) -> Self {
        OpenLoop { due_ns, next: 0 }
    }

    pub fn step(&mut self, now_ns: u64) -> Step {
        match self.due_ns.get(self.next) {
            None => Step::Drained,
            Some(&due) if due <= now_ns => {
                self.next += 1;
                Step::Submit(self.next - 1)
            }
            Some(&due) => Step::Wait(due - now_ns),
        }
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p50 / p90 / p99 / p99.9 that still has at least ten
/// samples beyond it — a tail read off fewer is one or two outliers.
pub fn tail_quantile(samples: usize) -> f64 {
    // Whole numbers: 100 × (1 − 0.9) is 9.999… in floating point.
    [(999, 1000), (99, 100), (9, 10)]
        .into_iter()
        .find(|&(num, den)| samples - (samples * num).div_ceil(den) >= 10)
        .map_or(0.5, |(num, den)| num as f64 / den as f64)
}

/// A run's samples are cut into at least this many chunks (once it has that
/// many samples), of at most `CHUNK_MAX_SAMPLES` consecutive samples each.
const CHUNKS_MIN: usize = 50;
const CHUNK_MAX_SAMPLES: usize = 100;

/// Which chunk stands for the run: the one a twentieth of the way up from
/// the quiet end.
const QUIET_SHARE: f64 = 0.05;

/// A latency distribution whose percentiles repeat on a shared machine.
///
/// The runner's noise is one-sided — a neighbour takes memory bandwidth or
/// the core away for a while and everything in that while is slower, never
/// faster — and lasts from milliseconds to minutes: one binary, pinned to one
/// processor, does pure single-threaded arithmetic a fifth faster in one run
/// than in the next. So the `(at_ns, value)` samples are cut, in the order
/// they completed, into chunks of up to 100; the percentile is taken per
/// chunk, and the **5th percentile over chunks** is reported: what the
/// program does in the quietest twentieth of the run. A change to the
/// program moves every chunk; a neighbour moves some. Where an operation is
/// itself a batch of jobs and a run has a few hundred of them or fewer
/// (`saturate`, `bridged_swap`, `sim_sweep`), a chunk is one to six
/// operations.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<(u64, u64)>,
}

impl Latencies {
    /// Room for `samples` more without reallocating: a vector that doubles
    /// as it grows touches its old and its new buffer at once, and whether
    /// the last doubling happened would show as a step in `peak_rss_mb`.
    pub fn reserve(&mut self, samples: usize) {
        self.samples.reserve(samples);
    }

    /// A sample that completed at `at_ns` and took `value`; pushed in
    /// completion order.
    pub fn push(&mut self, at_ns: u64, value: u64) {
        self.samples.push((at_ns, value));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whole chunks of consecutive samples; a remainder shorter than a chunk
    /// is left out.
    fn chunks(&self) -> impl Iterator<Item = &[(u64, u64)]> {
        let size = (self.samples.len() / CHUNKS_MIN).clamp(1, CHUNK_MAX_SAMPLES);
        self.samples.chunks_exact(size)
    }

    /// The `q`-quantile per chunk, then the 5th percentile over chunks.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut per_chunk: Vec<u64> = self
            .chunks()
            .map(|chunk| {
                let mut values: Vec<u64> = chunk.iter().map(|s| s.1).collect();
                values.sort_unstable();
                percentile(&values, q)
            })
            .collect();
        per_chunk.sort_unstable();
        percentile(&per_chunk, QUIET_SHARE) as f64
    }

    /// Operations per second per chunk (from the start of its first to the
    /// end of its last), then the 95th percentile over chunks: a closed
    /// loop's throughput in the quietest twentieth of the run.
    pub fn rate(&self) -> f64 {
        let mut per_chunk: Vec<f64> = self
            .chunks()
            .filter_map(|chunk| {
                let (first, last) = (chunk.first()?, chunk.last()?);
                let span_ns = last.0.checked_sub(first.0.saturating_sub(first.1))?;
                (span_ns > 0).then(|| chunk.len() as f64 * 1e9 / span_ns as f64)
            })
            .collect();
        // Fastest first, so the rank is the one `quantile` takes from the
        // other end.
        per_chunk.sort_by(|a, b| b.total_cmp(a));
        let rank = ((QUIET_SHARE * per_chunk.len() as f64).ceil() as usize).max(1);
        per_chunk.get(rank - 1).copied().unwrap_or(0.0)
    }

    /// The highest percentile the sample supports (see [`tail_quantile`]) and
    /// its value.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.samples.len());
        (q, self.quantile_flat(q))
    }

    /// Quantile over all samples at once (for maxima and p99 rows that are
    /// reported, not gated).
    pub fn quantile_flat(&self, q: f64) -> f64 {
        let mut values: Vec<u64> = self.samples.iter().map(|s| s.1).collect();
        values.sort_unstable();
        percentile(&values, q) as f64
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.1 as f64).sum::<f64>() / self.samples.len() as f64
    }
}

/// Median (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the driver judges the benchmark's steadiness with that function, so the
/// repeatability harness must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(9_999), 0.99);
        assert_eq!(tail_quantile(10_000), 0.999);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.9), 90);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_hits_its_rate() {
        let a = poisson_schedule(42, 5_000.0, 20.0);
        let b = poisson_schedule(42, 5_000.0, 20.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, poisson_schedule(43, 5_000.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 20_000_000_000);
        let rate = a.len() as f64 / 20.0;
        assert!((rate - 5_000.0).abs() / 5_000.0 < 0.01, "rate {rate} within 1 % of 5000/s");
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_arrivals_it_delays() {
        // Due every 100 ns; the generator is away from t=150 to t=1000.
        let due: Vec<u64> = (1..=8).map(|i| i * 100).collect();
        let mut open = OpenLoop::new(due.clone());
        assert_eq!(open.step(0), Step::Wait(100));
        assert_eq!(open.step(100), Step::Submit(0));
        assert_eq!(open.step(150), Step::Wait(50));
        // Back at t=1000: arrivals 1..=7 are overdue and go out back to back.
        let mut sent = Vec::new();
        let mut now = 1_000;
        while let Step::Submit(i) = open.step(now) {
            sent.push((i, now));
            now += 1;
        }
        assert_eq!(sent.len(), 7);
        assert_eq!(open.step(now), Step::Drained);
        // A decision seen 10 ns after each send: latency from the *due* time
        // carries the stall (800 ns for arrival 1), latency from the send
        // time would hide it (10 ns for all of them).
        let from_due: Vec<u64> = sent.iter().map(|&(i, at)| at + 10 - due[i]).collect();
        assert_eq!(from_due[0], 1_000 + 10 - 200);
        assert!(from_due.windows(2).all(|w| w[0] > w[1]), "later arrivals waited less");
        assert!(from_due.iter().all(|&l| l > 10));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) -> [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn chunked_quantile_shrugs_off_noisy_stretches() {
        let mut lat = Latencies::default();
        // Stretches of 300 operations, one every 10 ns, at value 1; in every
        // other stretch a neighbour makes everything ten thousand times
        // slower and a third as many operations get done.
        let mut now = 0;
        for stretch in 0..40 {
            let noisy = stretch % 2 == 1;
            for _ in 0..if noisy { 100 } else { 300 } {
                now += if noisy { 30 } else { 10 };
                lat.push(now, if noisy { 10_000 } else { 1 });
            }
        }
        assert_eq!(lat.quantile(0.5), 1.0);
        assert_eq!(lat.quantile(0.9), 1.0);
        assert_eq!(lat.quantile_flat(0.9), 10_000.0);
        assert_eq!(lat.quantile_flat(1.0), 10_000.0);
        // 0.1 operations per ns in a quiet stretch, a third of that in a
        // noisy one.
        let per_ns = lat.rate() / 1e9;
        assert!((0.099..=0.101).contains(&per_ns), "{per_ns}");
    }

    #[test]
    fn a_few_samples_are_a_chunk_each() {
        let mut lat = Latencies::default();
        for i in 1..=40u64 {
            lat.push(i * 100, i);
        }
        // The 5th percentile of 40 chunks of one sample is the second lowest.
        assert_eq!(lat.quantile(0.5), 2.0);
        assert_eq!(lat.quantile(0.9), 2.0);
        // Rates are 1/1 ns, 1/2 ns, …; the 95th percentile is the second highest.
        assert!((lat.rate() - 0.5e9).abs() < 1.0);
        assert_eq!(Latencies::default().quantile(0.5), 0.0);
        assert_eq!(Latencies::default().rate(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
