//! The STREAM sustainable-memory-bandwidth benchmark (paper §VI-C,
//! Fig. 5).
//!
//! "We configured STREAM to use 160 million array elements, requiring a
//! total memory of 3.66 GiB, which is well beyond the system cache
//! size." Each run executes the four kernels, confined to 4, 8 and 16
//! hardware threads via OpenMP, across the memory configurations.

use serde::{Deserialize, Serialize};
use thymesisflow_core::memmodel::MemoryModel;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// `c[i] = a[i]` — 16 B/iter (1 read, 1 write), 0 FLOPs.
    Copy,
    /// `b[i] = s*c[i]` — 16 B/iter, 1 FLOP.
    Scale,
    /// `c[i] = a[i] + b[i]` — 24 B/iter (2 reads, 1 write), 1 FLOP.
    Add,
    /// `a[i] = b[i] + s*c[i]` — 24 B/iter, 2 FLOPs.
    Triad,
}

impl Kernel {
    /// All four kernels in STREAM's reporting order.
    pub const ALL: [Kernel; 4] = [Kernel::Copy, Kernel::Scale, Kernel::Add, Kernel::Triad];

    /// Floating-point operations per iteration.
    pub fn flops_per_iter(self) -> u32 {
        match self {
            Kernel::Copy => 0,
            Kernel::Scale | Kernel::Add => 1,
            Kernel::Triad => 2,
        }
    }

    /// Read streams feeding the prefetcher.
    pub fn read_streams(self) -> u32 {
        match self {
            Kernel::Copy | Kernel::Scale => 1,
            Kernel::Add | Kernel::Triad => 2,
        }
    }

    /// Effective memory-level-parallelism scale of the kernel: more
    /// concurrent read streams extract slightly more MLP; FLOPs steal
    /// issue slots from the prefetch engine.
    pub fn mlp_scale(self) -> f64 {
        let streams = 1.0 + 0.05 * (self.read_streams() as f64 - 1.0);
        let flop_drag = 1.0 - 0.02 * self.flops_per_iter() as f64;
        streams * flop_drag
    }

    /// STREAM's reporting label.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Copy => "copy",
            Kernel::Scale => "scale",
            Kernel::Add => "add",
            Kernel::Triad => "triad",
        }
    }
}

/// One STREAM result row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamResult {
    /// The kernel.
    pub kernel: Kernel,
    /// Threads used.
    pub threads: u32,
    /// Sustained bandwidth, GiB/s.
    pub gib_per_sec: f64,
}

/// The benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamBench {
    /// Array elements (the paper uses 160 million).
    pub elements: u64,
    /// OpenMP thread count.
    pub threads: u32,
}

impl StreamBench {
    /// The paper's setup: 160 M elements (3.66 GiB total).
    pub fn paper(threads: u32) -> Self {
        StreamBench {
            elements: 160_000_000,
            threads,
        }
    }

    /// Total working-set bytes (three arrays of f64).
    pub fn working_set_bytes(&self) -> u64 {
        self.elements * 8 * 3
    }

    /// Runs all four kernels against a memory model.
    ///
    /// # Panics
    ///
    /// Panics if the working set does not dwarf the cache (the paper
    /// chose 3.66 GiB precisely so caches don't help).
    pub fn run(&self, model: &MemoryModel) -> Vec<StreamResult> {
        assert!(
            self.working_set_bytes() > 512 << 20,
            "working set must exceed the cache hierarchy"
        );
        Kernel::ALL
            .iter()
            .map(|&kernel| StreamResult {
                kernel,
                threads: self.threads,
                gib_per_sec: model.stream_bandwidth_gib(self.threads, kernel.mlp_scale()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thymesisflow_core::config::SystemConfig;
    use thymesisflow_core::params::DatapathParams;

    fn model(c: SystemConfig) -> MemoryModel {
        MemoryModel::new(DatapathParams::prototype(), c)
    }

    #[test]
    fn paper_setup_geometry() {
        let b = StreamBench::paper(8);
        // 160M elements x 8 B x 3 arrays = 3.58 GiB ("3.66 GiB" in the
        // paper's GB accounting).
        let gib = b.working_set_bytes() as f64 / (1u64 << 30) as f64;
        assert!((3.5..=3.7).contains(&gib), "{gib}");
    }

    #[test]
    fn fig5_shape_single_channel() {
        let m = model(SystemConfig::SingleDisaggregated);
        let g4 = StreamBench::paper(4).run(&m)[0].gib_per_sec;
        let g8 = StreamBench::paper(8).run(&m)[0].gib_per_sec;
        let g16 = StreamBench::paper(16).run(&m)[0].gib_per_sec;
        // Rises toward the channel ceiling at 8 threads, declines at 16.
        assert!(g8 > g4 * 0.95, "g4={g4} g8={g8}");
        assert!(g16 < g8, "g8={g8} g16={g16}");
        assert!(g8 < 11.64, "below the theoretical max line");
    }

    #[test]
    fn fig5_ordering_between_configs() {
        for threads in [4, 8, 16] {
            let b = StreamBench::paper(threads);
            let s = b.run(&model(SystemConfig::SingleDisaggregated))[0].gib_per_sec;
            let bo = b.run(&model(SystemConfig::BondingDisaggregated))[0].gib_per_sec;
            let i = b.run(&model(SystemConfig::Interleaved))[0].gib_per_sec;
            assert!(bo >= s, "{threads}T bonding {bo} vs single {s}");
            assert!(i > bo, "{threads}T interleaved {i} vs bonding {bo}");
        }
    }

    #[test]
    fn kernels_differ_modestly() {
        let m = model(SystemConfig::SingleDisaggregated);
        let results = StreamBench::paper(8).run(&m);
        let copy = results[0].gib_per_sec;
        for r in &results {
            let rel = (r.gib_per_sec - copy).abs() / copy;
            assert!(rel < 0.10, "{:?} deviates {rel}", r.kernel);
        }
    }

    #[test]
    fn add_beats_scale_when_demand_limited() {
        // At 4 threads the channel is not saturated: add's second read
        // stream extracts more MLP than scale's single stream.
        let m = model(SystemConfig::SingleDisaggregated);
        let results = StreamBench::paper(4).run(&m);
        assert!(results[2].gib_per_sec >= results[1].gib_per_sec);
    }

    #[test]
    #[should_panic(expected = "exceed the cache")]
    fn tiny_working_set_rejected() {
        let b = StreamBench {
            elements: 1000,
            threads: 4,
        };
        let _ = b.run(&model(SystemConfig::Local));
    }
}
