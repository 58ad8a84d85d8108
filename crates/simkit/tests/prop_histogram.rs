//! Equivalence property: the histogram that stores only its recorded
//! exponents answers every query exactly as a dense one.
//!
//! [`Dense`] below is the histogram as it stood when it allocated all 64
//! exponent buckets up front. Random sequences of records, merges (both
//! ways between short and long histograms) and subtractions (with a
//! shorter, longer or empty earlier histogram) drive one [`Histogram`]
//! and one [`Dense`] per slot side by side, and after every step every
//! slot must agree on count, mean, min, max, CDF, display string and a
//! grid of quantiles, bit for bit. A second property compares the
//! telemetry registry's snapshot diffs and JSON against the same
//! reference.

use std::fmt;

use proptest::prelude::*;
use serde::Value;
use simkit::stats::Histogram;
use simkit::telemetry::Registry;
use simkit::time::SimTime;
use simkit::units::f64_to_u64_saturating;

const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5;

/// The dense reference: 64 exponents x 32 sub-buckets, allocated by
/// `new`. Its `value_of` writes the upper bucket edge as lower edge
/// plus width minus one, as `Histogram` does: the older
/// `((32 + sub + 1) << shift) - 1` overflowed on the top sub-bucket
/// in debug builds (release builds wrapped to the same `u64::MAX`).
#[derive(Debug, Clone, serde::Serialize)]
struct Dense {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Dense {
    fn new() -> Self {
        Dense {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let shift = exp - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        ((exp - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    fn value_of(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            return sub;
        }
        let shift = u32::try_from(bucket - 1).unwrap_or(u32::MAX);
        ((SUB_BUCKETS as u64 + sub) << shift) | ((1 << shift) - 1)
    }

    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn count(&self) -> u64 {
        self.total
    }

    fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    fn max(&self) -> u64 {
        self.max
    }

    fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0;
        }
        let rank = f64_to_u64_saturating((q * self.total as f64).ceil()).clamp(1, self.total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i).min(self.max);
            }
        }
        self.max
    }

    fn cdf(&self) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        if self.total == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Self::value_of(i).min(self.max),
                seen as f64 / self.total as f64,
            ));
        }
        out
    }

    fn merge(&mut self, other: &Dense) {
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    fn subtract(&self, earlier: &Dense) -> Dense {
        let mut out = Dense::new();
        for (i, (a, b)) in self.counts.iter().zip(&earlier.counts).enumerate() {
            let c = a.saturating_sub(*b);
            if c == 0 {
                continue;
            }
            out.counts[i] = c;
            out.total += c;
            let edge = Self::value_of(i).min(self.max);
            out.min = out.min.min(edge);
            out.max = out.max.max(edge);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

impl fmt::Display for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} max={}",
            self.total,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max
        )
    }
}

/// Quantiles every comparison reads, ends included.
const GRID: [f64; 13] = [
    0.0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.999_999, 1.0,
];

/// Every query of `lazy` equals the same query of `dense`, bit for bit.
fn same(lazy: &Histogram, dense: &Dense, q: f64) -> Result<(), TestCaseError> {
    prop_assert_eq!(lazy.count(), dense.count());
    prop_assert_eq!(lazy.is_empty(), dense.count() == 0);
    prop_assert_eq!(lazy.mean().to_bits(), dense.mean().to_bits());
    prop_assert_eq!(lazy.min(), dense.min());
    prop_assert_eq!(lazy.max(), dense.max());
    prop_assert_eq!(lazy.cdf(), dense.cdf());
    prop_assert_eq!(lazy.to_string(), dense.to_string());
    for q in GRID.into_iter().chain([q]) {
        prop_assert_eq!(lazy.quantile(q), dense.quantile(q), "q={}", q);
    }
    Ok(())
}

/// Values that cover the exact range, the first log bucket, bucket
/// edges on both sides, typical latencies and the top of the range.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(31u64),
        Just(32u64),
        0u64..32,
        (5u32..64).prop_map(|k| 1u64 << k),
        (5u32..64).prop_map(|k| (1u64 << k) - 1),
        (6u32..64).prop_map(|k| (1u64 << k) + (1u64 << (k - 5))),
        1_000u64..10_000_000,
        Just(u64::MAX),
    ]
}

/// Slots driven side by side.
const SLOTS: usize = 4;

/// One step: `(kind, a, b, value, n)`.
///
/// - 0, 1: record `value` into slot `a` (once, or `n` times).
/// - 2: merge slot `b` into slot `a`.
/// - 3: save slot `a` as an earlier snapshot.
/// - 4: slot `a` = slot `b` minus the snapshot saved at `value % saved`
///   (an empty histogram while none is saved).
/// - 5: slot `a` = slot `a` minus slot `b`.
/// - 6: slot `a` = slot `a` minus an empty histogram.
type Step = (u8, usize, usize, u64, u64);

fn step() -> impl Strategy<Value = Step> {
    (0u8..7, 0usize..SLOTS, 0usize..SLOTS, value(), 0u64..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lazily grown histogram and the dense reference agree after
    /// every step of a random record / merge / subtract sequence.
    #[test]
    fn lazy_histogram_matches_the_dense_reference(
        steps in prop::collection::vec(step(), 1..48),
        q in 0.0f64..1.0,
    ) {
        let mut lazy: Vec<Histogram> = (0..SLOTS).map(|_| Histogram::new()).collect();
        let mut dense: Vec<Dense> = (0..SLOTS).map(|_| Dense::new()).collect();
        let mut saved: Vec<(Histogram, Dense)> = Vec::new();
        for (kind, a, b, v, n) in steps {
            match kind {
                0 => {
                    lazy[a].record(v);
                    dense[a].record_n(v, 1);
                }
                1 => {
                    lazy[a].record_n(v, n);
                    dense[a].record_n(v, n);
                }
                2 => {
                    let (l, d) = (lazy[b].clone(), dense[b].clone());
                    lazy[a].merge(&l);
                    dense[a].merge(&d);
                }
                3 => saved.push((lazy[a].clone(), dense[a].clone())),
                4 => {
                    let (l, d) = match saved.len() {
                        0 => (Histogram::new(), Dense::new()),
                        len => saved[(v % len as u64) as usize].clone(),
                    };
                    lazy[a] = lazy[b].subtract(&l);
                    dense[a] = dense[b].subtract(&d);
                }
                5 => {
                    lazy[a] = lazy[a].subtract(&lazy[b]);
                    dense[a] = dense[a].subtract(&dense[b]);
                }
                _ => {
                    lazy[a] = lazy[a].subtract(&Histogram::new());
                    dense[a] = dense[a].subtract(&Dense::new());
                }
            }
            for (l, d) in lazy.iter().zip(&dense) {
                same(l, d, q)?;
            }
        }
    }

    /// Snapshot diffs and JSON of a registry equal those built from
    /// the dense reference, including timers that never record.
    #[test]
    fn registry_diff_and_json_match_the_dense_reference(
        first in prop::collection::vec((0usize..3, value()), 0..24),
        second in prop::collection::vec((0usize..3, value()), 0..24),
    ) {
        const PATHS: [&str; 4] = ["fabric.hop.a", "fabric.hop.b", "fabric.rtt_ns", "idle"];
        let mut reg = Registry::new(true);
        let ids: Vec<_> = PATHS.iter().map(|p| reg.timer(p).unwrap()).collect();
        let loads = reg.counter("fabric.loads").unwrap();
        let mut dense: Vec<Dense> = (0..PATHS.len()).map(|_| Dense::new()).collect();
        let phase = |reg: &mut Registry, dense: &mut [Dense], values: &[(usize, u64)]| {
            for &(t, v) in values {
                reg.record_ns(ids[t], v);
                reg.inc(loads);
                dense[t].record_n(v, 1);
            }
        };
        phase(&mut reg, &mut dense, &first);
        let earlier = reg.snapshot(SimTime::from_ns(100));
        let dense_earlier = dense.clone();
        phase(&mut reg, &mut dense, &second);
        let later = reg.snapshot(SimTime::from_ns(200));
        let diff = later.diff(&earlier);
        let dense_diff: Vec<Dense> =
            dense.iter().zip(&dense_earlier).map(|(l, e)| l.subtract(e)).collect();

        let (n1, n2) = (first.len() as u64, second.len() as u64);
        for (snap, refs, loads_at) in [
            (&earlier, &dense_earlier, n1),
            (&later, &dense, n1 + n2),
            (&diff, &dense_diff, n2),
        ] {
            for (path, d) in PATHS.iter().zip(refs.iter()) {
                same(snap.timer(path).expect("registered timer"), d, 0.5)?;
            }
            prop_assert_eq!(snap.to_json(), reference_json(snap.at, loads_at, &PATHS, refs));
        }
    }
}

/// The JSON `Snapshot::to_json` writes, with every timer summary taken
/// from the dense reference.
fn reference_json(at: SimTime, loads: u64, paths: &[&str], refs: &[Dense]) -> String {
    let timer = |h: &Dense| {
        Value::Map(vec![
            ("type".into(), Value::Str("timer".into())),
            ("count".into(), Value::UInt(h.count())),
            ("mean_ns".into(), Value::Float(h.mean())),
            ("min_ns".into(), Value::UInt(h.min())),
            ("p50_ns".into(), Value::UInt(h.quantile(0.5))),
            ("p90_ns".into(), Value::UInt(h.quantile(0.9))),
            ("p99_ns".into(), Value::UInt(h.quantile(0.99))),
            ("max_ns".into(), Value::UInt(h.max())),
        ])
    };
    let mut metrics: Vec<(String, Value)> = paths
        .iter()
        .zip(refs)
        .map(|(p, h)| ((*p).to_string(), timer(h)))
        .collect();
    metrics.push((
        "fabric.loads".into(),
        Value::Map(vec![
            ("type".into(), Value::Str("counter".into())),
            ("value".into(), Value::UInt(loads)),
        ]),
    ));
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    let tree = Value::Map(vec![
        ("at_ns".into(), Value::UInt(at.as_ns())),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&tree).unwrap()
}

#[test]
fn a_dense_serialised_histogram_reads_back_with_the_same_answers() {
    let mut dense = Dense::new();
    let mut lazy = Histogram::new();
    for v in [0, 31, 32, 1_000, 123_456, 9_999_999, u64::MAX] {
        dense.record_n(v, 3);
        lazy.record_n(v, 3);
    }
    let json = serde_json::to_string(&dense).unwrap();
    let read: Histogram = serde_json::from_str(&json).unwrap();
    same(&read, &dense, 0.5).unwrap();
    // Reading the dense layout back and merging or diffing it against
    // a lazily grown histogram still answers like the reference.
    let mut merged = lazy.clone();
    merged.merge(&read);
    let mut dense_merged = dense.clone();
    dense_merged.merge(&dense);
    same(&merged, &dense_merged, 0.25).unwrap();
    same(&read.subtract(&lazy), &dense.subtract(&dense), 0.75).unwrap();
    same(&lazy.subtract(&read), &dense.subtract(&dense), 0.75).unwrap();
}
