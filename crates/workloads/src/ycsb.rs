//! The Yahoo! Cloud Serving Benchmark workload generator.
//!
//! Implements the six core workloads (A–F) per the YCSB core-workload
//! definitions the paper drives VoltDB with:
//!
//! | workload | mix | request distribution |
//! |---|---|---|
//! | A (update heavy) | 50% read / 50% update | zipfian |
//! | B (read mostly)  | 95% read / 5% update | zipfian |
//! | C (read only)    | 100% read | zipfian |
//! | D (read latest)  | 95% read / 5% insert | latest |
//! | E (short ranges) | 95% scan / 5% insert | zipfian |
//! | F (read-modify-write) | 50% read / 50% RMW | zipfian |

use serde::{Deserialize, Serialize};
use simkit::rng::{DetRng, ZipfSampler};

/// The six core workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum YcsbWorkload {
    /// Update heavy: 50/50 read/update.
    A,
    /// Read mostly: 95/5 read/update.
    B,
    /// Read only.
    C,
    /// Read latest: 95/5 read/insert, latest distribution.
    D,
    /// Short ranges: 95/5 scan/insert.
    E,
    /// Read-modify-write: 50/50 read/RMW.
    F,
}

impl YcsbWorkload {
    /// All six, in order.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    /// Whether >95% of operations are reads or scans ("read intensive"
    /// in the paper's grouping: B, C, D, E; A and F are "mixed").
    pub fn is_read_intensive(self) -> bool {
        matches!(
            self,
            YcsbWorkload::B | YcsbWorkload::C | YcsbWorkload::D | YcsbWorkload::E
        )
    }

    /// The figure label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Point read of a key.
    Read(u64),
    /// Field update of a key.
    Update(u64),
    /// Insert of a new key.
    Insert(u64),
    /// Range scan of `len` records starting at a key.
    Scan(u64, u32),
    /// Read-modify-write of a key.
    ReadModifyWrite(u64),
}

impl Op {
    /// The primary key touched.
    pub fn key(self) -> u64 {
        match self {
            Op::Read(k)
            | Op::Update(k)
            | Op::Insert(k)
            | Op::Scan(k, _)
            | Op::ReadModifyWrite(k) => k,
        }
    }

    /// Records touched.
    pub fn records(self) -> u32 {
        match self {
            Op::Scan(_, n) => n,
            Op::ReadModifyWrite(_) => 2,
            _ => 1,
        }
    }
}

/// The operation generator.
#[derive(Debug)]
pub struct YcsbGenerator {
    workload: YcsbWorkload,
    zipf: ZipfSampler,
    record_count: u64,
    inserted: u64,
    rng: DetRng,
    max_scan_len: u32,
}

impl YcsbGenerator {
    /// YCSB's default zipfian constant.
    pub const ZIPF_THETA: f64 = 0.99;

    /// Creates a generator over `record_count` pre-loaded records.
    ///
    /// # Panics
    ///
    /// Panics if `record_count` is zero.
    pub fn new(workload: YcsbWorkload, record_count: u64, seed: u64) -> Self {
        assert!(record_count > 0, "need a loaded table");
        YcsbGenerator {
            workload,
            zipf: ZipfSampler::new(record_count, Self::ZIPF_THETA),
            record_count,
            inserted: 0,
            rng: DetRng::new(seed),
            max_scan_len: 100,
        }
    }

    /// The workload being generated.
    pub fn workload(&self) -> YcsbWorkload {
        self.workload
    }

    fn pick_key(&mut self) -> u64 {
        match self.workload {
            // "Latest": skew toward recently inserted records.
            YcsbWorkload::D => {
                let offset = self.zipf.sample(&mut self.rng);
                (self.record_count + self.inserted - 1).saturating_sub(offset)
            }
            _ => self.zipf.sample(&mut self.rng),
        }
    }

    fn insert_key(&mut self) -> u64 {
        let k = self.record_count + self.inserted;
        self.inserted += 1;
        k
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        let x = self.rng.f64();
        match self.workload {
            YcsbWorkload::A => {
                let k = self.pick_key();
                if x < 0.5 {
                    Op::Read(k)
                } else {
                    Op::Update(k)
                }
            }
            YcsbWorkload::B => {
                let k = self.pick_key();
                if x < 0.95 {
                    Op::Read(k)
                } else {
                    Op::Update(k)
                }
            }
            YcsbWorkload::C => Op::Read(self.pick_key()),
            YcsbWorkload::D => {
                if x < 0.95 {
                    Op::Read(self.pick_key())
                } else {
                    Op::Insert(self.insert_key())
                }
            }
            YcsbWorkload::E => {
                if x < 0.95 {
                    let len = 1 + self.rng.range(0, self.max_scan_len as u64) as u32;
                    Op::Scan(self.pick_key(), len)
                } else {
                    Op::Insert(self.insert_key())
                }
            }
            YcsbWorkload::F => {
                let k = self.pick_key();
                if x < 0.5 {
                    Op::Read(k)
                } else {
                    Op::ReadModifyWrite(k)
                }
            }
        }
    }

    /// Average records touched per operation for this workload
    /// (analytic; scans average `(1 + max)/2`).
    pub fn mean_records_per_op(&self) -> f64 {
        match self.workload {
            YcsbWorkload::E => 0.95 * (1.0 + self.max_scan_len as f64) / 2.0 + 0.05,
            YcsbWorkload::F => 0.5 + 0.5 * 2.0,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(w: YcsbWorkload, n: usize) -> (f64, f64, f64) {
        let mut g = YcsbGenerator::new(w, 100_000, 7);
        let (mut reads, mut writes, mut scans) = (0, 0, 0);
        for _ in 0..n {
            match g.next_op() {
                Op::Read(_) => reads += 1,
                Op::Scan(_, _) => scans += 1,
                _ => writes += 1,
            }
        }
        (
            reads as f64 / n as f64,
            writes as f64 / n as f64,
            scans as f64 / n as f64,
        )
    }

    #[test]
    fn workload_mixes_match_spec() {
        let n = 50_000;
        let (r, w, _) = mix(YcsbWorkload::A, n);
        assert!((r - 0.5).abs() < 0.02 && (w - 0.5).abs() < 0.02);
        let (r, w, _) = mix(YcsbWorkload::B, n);
        assert!((r - 0.95).abs() < 0.01 && (w - 0.05).abs() < 0.01);
        let (r, _, _) = mix(YcsbWorkload::C, n);
        assert!((r - 1.0).abs() < 1e-9);
        let (_, w, s) = mix(YcsbWorkload::E, n);
        assert!((s - 0.95).abs() < 0.01 && (w - 0.05).abs() < 0.01);
    }

    #[test]
    fn zipf_hits_hot_keys() {
        let mut g = YcsbGenerator::new(YcsbWorkload::C, 1_000_000, 3);
        let hot = (0..20_000)
            .filter(|_| g.next_op().key() < 10_000)
            .count() as f64
            / 20_000.0;
        // Top 1% of a zipf(0.99) key space draws roughly half the mass.
        assert!(hot > 0.35, "hot fraction {hot}");
    }

    #[test]
    fn latest_distribution_prefers_new_keys() {
        let mut g = YcsbGenerator::new(YcsbWorkload::D, 100_000, 5);
        let mut late_hits = 0;
        let mut reads = 0;
        for _ in 0..20_000 {
            if let Op::Read(k) = g.next_op() {
                reads += 1;
                if k >= 90_000 {
                    late_hits += 1;
                }
            }
        }
        let frac = late_hits as f64 / reads as f64;
        assert!(frac > 0.5, "latest fraction {frac}");
    }

    #[test]
    fn inserts_extend_the_keyspace() {
        let mut g = YcsbGenerator::new(YcsbWorkload::D, 1_000, 6);
        let mut max_insert = 0;
        for _ in 0..10_000 {
            if let Op::Insert(k) = g.next_op() {
                assert!(k >= 1_000);
                max_insert = max_insert.max(k);
            }
        }
        assert!(max_insert > 1_000);
    }

    #[test]
    fn scan_lengths_bounded() {
        let mut g = YcsbGenerator::new(YcsbWorkload::E, 10_000, 8);
        for _ in 0..5_000 {
            if let Op::Scan(_, len) = g.next_op() {
                assert!((1..=100).contains(&len));
            }
        }
        assert!(g.mean_records_per_op() > 40.0);
    }

    #[test]
    fn read_intensive_grouping() {
        assert!(!YcsbWorkload::A.is_read_intensive());
        assert!(YcsbWorkload::B.is_read_intensive());
        assert!(YcsbWorkload::E.is_read_intensive());
        assert!(!YcsbWorkload::F.is_read_intensive());
    }
}
