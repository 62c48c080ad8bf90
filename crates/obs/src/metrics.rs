//! Typed metrics behind a cheap global registry.
//!
//! Handles are `static` [`LazyCounter`] / [`LazyGauge`] / [`LazyHistogram`]
//! values: registration happens once on first use (a `OnceLock` behind one
//! mutex-guarded name table), after which every update is a thread-local
//! shard write — no atomics on the hot path and no cross-thread contention.
//! Shards merge by integer addition, so totals are independent of thread
//! count and scheduling.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::state;

/// What a registry slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    Counter,
    Gauge,
    /// `micros` histograms store fixed-point micro-units (×1e6) recorded
    /// via [`LazyHistogram::record_f64`]; exporters divide back.
    Hist {
        micros: bool,
    },
}

#[derive(Debug, Default)]
struct Registry {
    index: BTreeMap<&'static str, usize>,
    names: Vec<&'static str>,
    kinds: Vec<MetricKind>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    index: BTreeMap::new(),
    names: Vec::new(),
    kinds: Vec::new(),
});

fn register(name: &'static str, kind: MetricKind) -> usize {
    let mut r = REGISTRY.lock().expect("obs registry lock");
    if let Some(&idx) = r.index.get(name) {
        debug_assert_eq!(
            r.kinds[idx], kind,
            "metric {name} re-registered as a different kind"
        );
        return idx;
    }
    let idx = r.names.len();
    r.index.insert(name, idx);
    r.names.push(name);
    r.kinds.push(kind);
    idx
}

/// Snapshot of the registry: `(name, kind, index)` triples in index order.
pub(crate) fn registry_kinds() -> Vec<(&'static str, MetricKind, usize)> {
    let r = REGISTRY.lock().expect("obs registry lock");
    r.names
        .iter()
        .zip(&r.kinds)
        .enumerate()
        .map(|(i, (&n, &k))| (n, k, i))
        .collect()
}

/// A monotonically increasing count (events, cycles, skips). Declare as a
/// `static` and call [`add`](LazyCounter::add) / [`incr`](LazyCounter::incr);
/// a no-op while collection is disabled.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    idx: OnceLock<usize>,
}

impl LazyCounter {
    /// Declares a counter (registration is deferred to first use).
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            idx: OnceLock::new(),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() || n == 0 {
            return;
        }
        let idx = *self
            .idx
            .get_or_init(|| register(self.name, MetricKind::Counter));
        state::shard_counter_add(idx, n);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A last-write-wins value (dataset size, final loss, configured threads).
/// Set from coordinator code, not hot loops.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    idx: OnceLock<usize>,
}

impl LazyGauge {
    /// Declares a gauge (registration is deferred to first use).
    pub const fn new(name: &'static str) -> Self {
        LazyGauge {
            name,
            idx: OnceLock::new(),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let idx = *self
            .idx
            .get_or_init(|| register(self.name, MetricKind::Gauge));
        state::gauge_set(idx, v);
    }
}

/// A distribution over `u64` samples in power-of-two buckets (cycle counts,
/// step times in µs). [`LazyHistogram::new_micros`] variants accept `f64`
/// samples stored as saturating ×1e6 fixed-point so shard merges stay
/// integer-exact and thread-count independent.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    micros: bool,
    idx: OnceLock<usize>,
}

impl LazyHistogram {
    /// Declares a histogram over raw `u64` samples.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            micros: false,
            idx: OnceLock::new(),
        }
    }

    /// Declares a histogram over `f64` samples stored in micro-units.
    pub const fn new_micros(name: &'static str) -> Self {
        LazyHistogram {
            name,
            micros: true,
            idx: OnceLock::new(),
        }
    }

    fn slot(&self) -> usize {
        *self.idx.get_or_init(|| {
            register(
                self.name,
                MetricKind::Hist {
                    micros: self.micros,
                },
            )
        })
    }

    /// Records one raw sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        state::shard_hist_record(self.slot(), v);
    }

    /// Records one `f64` sample into a micro-unit histogram (negative and
    /// non-finite samples clamp to zero; values past `u64::MAX` µ saturate).
    #[inline]
    pub fn record_f64(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        let fixed = if v.is_finite() && v > 0.0 {
            (v * 1e6).min(u64::MAX as f64) as u64
        } else {
            0
        };
        state::shard_hist_record(self.slot(), fixed);
    }
}

/// Number of power-of-two buckets: bucket `k` holds samples in
/// `[2^(k-1), 2^k)` (bucket 0 holds zeros).
const BUCKETS: usize = 65;

/// Raw mergeable histogram state: per-bucket counts plus exact integer
/// aggregates. Addition-only, so shard merges commute.
#[derive(Debug, Clone)]
pub(crate) struct HistData {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistData {
    pub(crate) fn record(&mut self, v: u64) {
        let bucket = (64 - v.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn merge(&mut self, other: &HistData) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at or below which `q` of the samples fall, estimated as the
    /// upper bound of the containing power-of-two bucket and clamped to
    /// the observed `[min, max]` (a bucket bound can lie outside it: 64
    /// samples all equal to 64 sit in the bucket bounded by 127).
    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = if k == 0 {
                    0
                } else if k >= 64 {
                    u64::MAX
                } else {
                    (1u64 << k) - 1
                };
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub(crate) fn summary(&self, micros: bool) -> HistSummary {
        let scale = if micros { 1e-6 } else { 1.0 };
        HistSummary {
            count: self.count,
            sum: (self.sum as f64) * scale,
            min: if self.count == 0 {
                0.0
            } else {
                (self.min as f64) * scale
            },
            max: (self.max as f64) * scale,
            mean: if self.count == 0 {
                0.0
            } else {
                (self.sum as f64) * scale / (self.count as f64)
            },
            p50: (self.quantile(0.50) as f64) * scale,
            p90: (self.quantile(0.90) as f64) * scale,
            p99: (self.quantile(0.99) as f64) * scale,
        }
    }
}

/// Exported histogram summary. Percentiles are upper bounds of the
/// containing power-of-two bucket (≤ 2× overestimate); `count`, `sum`,
/// `min`, `max` and `mean` are exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Exact mean.
    pub mean: f64,
    /// Median, bucket-resolution.
    pub p50: f64,
    /// 90th percentile, bucket-resolution.
    pub p90: f64,
    /// 99th percentile, bucket-resolution.
    pub p99: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_single_value_are_that_value() {
        let mut h = HistData::default();
        h.record(64);
        let s = h.summary(false);
        assert_eq!((s.p50, s.p90, s.p99), (64.0, 64.0, 64.0));
        assert_eq!((s.min, s.max), (64.0, 64.0));
    }

    #[test]
    fn quantiles_within_one_bucket_stay_inside_the_observed_range() {
        // 40..=60 all land in the [32, 63] bucket; 70 would not.
        let mut h = HistData::default();
        for v in 40..=60u64 {
            h.record(v);
        }
        let s = h.summary(false);
        for q in [s.p50, s.p90, s.p99] {
            assert!((40.0..=60.0).contains(&q), "quantile {q} outside [40, 60]");
        }
        assert_eq!(s.p99, 60.0);
        // Micro-scaled histograms clamp the same way.
        let mut h = HistData::default();
        for _ in 0..5 {
            h.record(1_386_294);
        }
        assert_eq!(h.summary(true).p99, 1.386294);
    }

    #[test]
    fn hist_buckets_and_quantiles() {
        let mut h = HistData::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary(false);
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500500.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        // p50 of 1..=1000 is ~500; bucket upper bound gives 511.
        assert_eq!(s.p50, 511.0);
        assert!(s.p99 >= 1000.0);
    }

    #[test]
    fn hist_merge_is_lossless() {
        let mut a = HistData::default();
        let mut b = HistData::default();
        let mut whole = HistData::default();
        for v in 0..100u64 {
            whole.record(v * 17);
            if v % 2 == 0 {
                a.record(v * 17);
            } else {
                b.record(v * 17);
            }
        }
        a.merge(&b);
        assert_eq!(a.summary(false), whole.summary(false));
    }

    #[test]
    fn micro_summary_scales_back() {
        let mut h = HistData::default();
        h.record(2_500_000); // 2.5 recorded via record_f64
        let s = h.summary(true);
        assert_eq!(s.count, 1);
        assert!((s.sum - 2.5).abs() < 1e-9);
        assert!((s.mean - 2.5).abs() < 1e-9);
    }
}
