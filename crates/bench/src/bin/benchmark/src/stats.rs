//! Order statistics and fingerprints.

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest rank of the `permille`-th quantile among `n` samples, in
/// integers: `0.99 * 1000.0` is not 990 in floating point.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank quantile of an ascending sample; `permille` 990 is p99.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// The decile on the fast side of an unsorted sample of costs (times,
/// CPU per event): a tenth of the samples are at or below it.
///
/// This is what a run reports for a timed metric, over its many short
/// segments, instead of their median. The machines the benchmark runs
/// on share their cores with other guests, and that only ever slows a
/// segment down — by 20–40 %, in bursts of five to thirty seconds that
/// in a bad quarter of an hour fill two thirds of the time. A burst
/// over half of a run moves the run's median by the burst's full depth;
/// it does not move the fast decile until it covers nine tenths of the
/// run. A slower program moves every segment, and this decile with
/// them. Measured on ten runs of each workload in such a quarter of an
/// hour, the runs' medians spread by 0.04–0.10 of their median, their
/// fast quartiles by 0.02–0.06, their fast deciles by 0.01–0.04; the
/// fastest twentieth is no steadier and on the server's CPU time much
/// worse, because it picks out lucky chunks.
pub fn fast_decile_of_costs(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "decile of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 100)
}

/// [`fast_decile_of_costs`] for rates, where fast is high: a tenth of
/// the samples are at or above it.
pub fn fast_decile_of_rates(samples: &[f64]) -> f64 {
    -fast_decile_of_costs(&samples.iter().map(|r| -r).collect::<Vec<_>>())
}

/// The highest of p99 / p95 / p90 / p75 that still has at least ten
/// samples beyond it, else the median — a tail figure resting on fewer
/// than ten samples is an anecdote, not a percentile.
pub fn supported_percentile(n: usize) -> usize {
    [990, 950, 900, 750]
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(500)
}

/// A latency sample reduced to what the report prints.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The value at `tail_permille`.
    pub tail: f64,
    /// The quantile `tail` was taken at: 990 (p99) when the sample
    /// supports it, lower otherwise (see [`supported_percentile`]).
    pub tail_permille: usize,
}

/// Median and supported p99 of an unsorted sample.
pub fn tail(samples: &[f64]) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let tail_permille = supported_percentile(s.len());
    Tail {
        n: s.len(),
        p50: percentile(&s, 500),
        tail: percentile(&s, tail_permille),
        tail_permille,
    }
}

/// 64-bit FNV-1a, fed incrementally. Pinned in `expected.json`, so the
/// constants must never change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// So that `write!(fnv, "{value}")` hashes a rendering without building
/// the string.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&s, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn fast_decile_ignores_a_slow_burst() {
        // Forty segments of a steady program: cost 10, rate 100.
        let quiet = vec![10.0; 40];
        assert_eq!(fast_decile_of_costs(&quiet), 10.0);
        // Bursts that slow 35 of the 40 by 40 % move the median by the
        // whole 40 % and the fast decile not at all ...
        let mut burst = quiet.clone();
        burst[3..38].fill(14.0);
        assert_eq!(median(&burst), 14.0);
        assert_eq!(fast_decile_of_costs(&burst), 10.0);
        let rates: Vec<f64> = burst.iter().map(|c| 1000.0 / c).collect();
        assert_eq!(fast_decile_of_rates(&rates), 100.0);
        // ... while a program a quarter slower moves it by a quarter.
        let slower: Vec<f64> = burst.iter().map(|c| c * 1.25).collect();
        assert_eq!(fast_decile_of_costs(&slower), 12.5);
        // Nearest rank: the 2nd lowest of 20 costs, the 2nd highest of 20 rates.
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(fast_decile_of_costs(&twenty), 2.0);
        assert_eq!(fast_decile_of_rates(&twenty), 19.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples leaves exactly ten beyond it; 999 leaves nine.
        assert_eq!(supported_percentile(1000), 990);
        assert_eq!(supported_percentile(999), 950);
        assert_eq!(supported_percentile(200), 950);
        assert_eq!(supported_percentile(199), 900);
        assert_eq!(supported_percentile(40), 750);
        assert_eq!(supported_percentile(39), 500);
        assert_eq!(supported_percentile(1), 500);
        let t = tail(&(1..=4800).map(f64::from).collect::<Vec<_>>());
        assert_eq!(
            (t.n, t.p50, t.tail, t.tail_permille),
            (4800, 2400.0, 4752.0, 990)
        );
    }

    #[test]
    fn fnv_is_the_published_function() {
        // Reference vectors from the FNV specification.
        let of = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
        // Incremental and formatted feeding equal one-shot feeding.
        let mut h = Fnv::new();
        h.write(b"foo");
        std::fmt::Write::write_fmt(&mut h, format_args!("{}{}", "ba", 'r')).unwrap();
        assert_eq!(h.finish(), of("foobar"));
    }
}
