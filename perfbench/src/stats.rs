//! Order statistics and process measurements shared by every workload.

/// Nearest-rank quantile of `values` (any order). `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile a sample of `n` supports: p99, or the highest
/// percentile with at least ten samples beyond it, never below the median.
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Most slices [`Latencies::tail`] cuts a run into.
pub const TAIL_SLICES: usize = 9;
/// Fewest operations in one slice of [`Latencies::tail`]: enough for a p99
/// with ten samples beyond it.
pub const TAIL_SLICE_MIN: usize = 1000;

/// Latencies of one kind of operation, in milliseconds, in the order the
/// operations ran.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn p50(&self) -> f64 {
        median(&self.0)
    }

    /// The tail figure: the run is cut into an odd number of consecutive
    /// slices, at most [`TAIL_SLICES`] and each of at least
    /// [`TAIL_SLICE_MIN`] operations (one slice for a short run), and the
    /// median over the slices of each slice's [`tail_q`] quantile is
    /// reported, so a brief stall of the machine moves one slice rather
    /// than the figure. Returns `(quantile, slices, value)`.
    pub fn tail(&self) -> (f64, usize, f64) {
        let n = self.0.len();
        let slices = match (n / TAIL_SLICE_MIN).min(TAIL_SLICES) {
            0 => 1,
            k if k % 2 == 0 => k - 1,
            k => k,
        };
        let len = n / slices;
        let q = tail_q(len);
        let tails: Vec<f64> = self
            .0
            .chunks(len.max(1))
            .take(slices)
            .map(|slice| quantile(slice, q))
            .collect();
        (q, slices, median(&tails))
    }

    /// Operations per second of busy time (closed loop, one client).
    pub fn throughput_per_s(&self) -> f64 {
        let busy_ms: f64 = self.0.iter().sum();
        if busy_ms > 0.0 {
            self.0.len() as f64 * 1e3 / busy_ms
        } else {
            0.0
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A ratio that reads 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A uniform sample of at most `capacity` items from a stream of unknown
/// length (reservoir sampling), so output checks cover the whole run in
/// bounded memory.
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    pub items: Vec<T>,
}

impl<T> Reservoir<T> {
    pub fn new(capacity: usize) -> Reservoir<T> {
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
        }
    }

    /// Offers the next stream item; `draw` is a fresh uniform `u64`.
    pub fn offer(&mut self, draw: u64, item: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item());
        } else {
            let slot = draw % self.seen;
            if (slot as usize) < self.capacity {
                self.items[slot as usize] = item();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn reservoir_is_bounded() {
        let mut r = Reservoir::new(4);
        for i in 0..100u64 {
            r.offer(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), || i);
        }
        assert_eq!(r.items.len(), 4);
    }

    #[test]
    fn tail_is_the_median_of_slice_tails() {
        // One stalled slice out of nine does not move the figure.
        let mut v: Vec<f64> = (0..9000).map(|i| f64::from(i % 1000)).collect();
        v[..1000].iter_mut().for_each(|x| *x += 1e6);
        let (q, slices, tail) = Latencies(v).tail();
        assert_eq!((q, slices, tail), (0.99, 9, 989.0));
        // A short run is one slice.
        let short = Latencies((0..1500).map(f64::from).collect());
        assert_eq!(short.tail().1, 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_q(2000), 0.99);
        assert!((tail_q(200) - 0.95).abs() < 1e-12);
        assert_eq!(tail_q(15), 0.5);
    }
}
