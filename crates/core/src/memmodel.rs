//! The application-level memory model.
//!
//! Calibrated against the flit-level point-to-point fabric
//! ([`crate::fabric::FabricBuilder::point_to_point`]), this model
//! answers the two questions every workload asks:
//!
//! 1. *What does one memory access cost?* — a latency drawn from the
//!    placement mix of the configuration (local vs disaggregated pages).
//! 2. *What streaming bandwidth can `t` threads sustain?* — a
//!    Little's-law throughput bound (`threads × MLP × line / average
//!    latency`) clipped by each component's capacity (channel payload
//!    rate, C1 transaction ceiling, local DRAM), with a mild
//!    saturation penalty past the knee — the paper observes exactly this
//!    decline "because the network facing stack gets closer to the
//!    saturation threshold" (§VI-C).

use serde::{Deserialize, Serialize};

use crate::config::SystemConfig;
use crate::params::DatapathParams;

/// Cache line size (and OpenCAPI transaction payload).
const LINE_BYTES: f64 = 128.0;

/// Saturation penalty slope: throughput efficiency decays once offered
/// load exceeds 1.5× the bottleneck capacity.
const SATURATION_KNEE: f64 = 1.5;
const SATURATION_SLOPE: f64 = 0.05;

/// A memory access's service class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// The line lives in socket-local DRAM.
    Local,
    /// The line lives in donor memory across ThymesisFlow.
    Remote,
}

/// The calibrated model for one system configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    params: DatapathParams,
    config: SystemConfig,
    /// Remote load-to-use latency measured on the flit-level fabric, ns;
    /// overrides the closed-form budget when present (see
    /// [`crate::rack::Rack::memory_model`]).
    #[serde(default)]
    measured_remote_ns: Option<f64>,
}

impl MemoryModel {
    /// Builds the model for a configuration, with the closed-form remote
    /// latency budget.
    pub fn new(params: DatapathParams, config: SystemConfig) -> Self {
        MemoryModel {
            params,
            config,
            measured_remote_ns: None,
        }
    }

    /// Calibrates the remote load latency from a fabric measurement
    /// (e.g. [`crate::fabric::Fabric::reference_load_latency`]) instead
    /// of the analytic budget.
    pub fn with_measured_remote(mut self, rtt: simkit::time::SimTime) -> Self {
        self.measured_remote_ns = Some(rtt.as_ns_f64());
        self
    }

    /// The fabric-measured remote latency override, if calibrated.
    pub fn measured_remote_ns(&self) -> Option<f64> {
        self.measured_remote_ns
    }

    /// The configuration modelled.
    pub fn config(&self) -> SystemConfig {
        self.config
    }

    /// The calibration constants.
    pub fn params(&self) -> &DatapathParams {
        &self.params
    }

    /// Fraction of memory accesses that cross the interconnect.
    pub fn remote_fraction(&self) -> f64 {
        self.config.remote_fraction()
    }

    /// Latency of one cache-line access of the given placement, ns.
    pub fn load_latency_ns(&self, placement: Placement) -> f64 {
        match placement {
            Placement::Local => self.params.local_load_latency().as_ns_f64(),
            Placement::Remote => self
                .measured_remote_ns
                .unwrap_or_else(|| self.params.remote_load_latency().as_ns_f64()),
        }
    }

    /// Average memory-access latency under this configuration's page
    /// placement, ns.
    pub fn avg_load_latency_ns(&self) -> f64 {
        let f = self.remote_fraction();
        f * self.load_latency_ns(Placement::Remote)
            + (1.0 - f) * self.load_latency_ns(Placement::Local)
    }

    /// The interconnect-side capacity in bytes/s: one channel's payload
    /// rate, or the C1 ceiling when bonded (two channels exceed what
    /// 128 B transactions can sink at the memory side — the §VI-C
    /// analysis of why bonding only buys ~30%).
    pub fn remote_capacity_bytes(&self) -> f64 {
        match self.config.channels() {
            0 => 0.0,
            1 => self.params.channel_payload_rate().bytes_per_sec(),
            n => {
                let channels =
                    self.params.channel_payload_rate().bytes_per_sec() * n as f64;
                channels.min(self.params.c1_sustained_rate().bytes_per_sec())
            }
        }
    }

    /// Local DRAM capacity in bytes/s (one socket streams the server).
    pub fn local_capacity_bytes(&self) -> f64 {
        self.params.local_bw_gib * (1u64 << 30) as f64
    }

    /// Sustainable streaming bandwidth for `threads` hardware threads,
    /// in bytes/s. `mlp_scale` lets kernels with more arithmetic per
    /// byte (STREAM scale/triad) shave effective memory-level
    /// parallelism.
    pub fn stream_bandwidth_bytes(&self, threads: u32, mlp_scale: f64) -> f64 {
        assert!(threads > 0, "need at least one thread");
        let f_remote = self.remote_fraction();
        let f_local = 1.0 - f_remote;
        let mlp = self.params.stream_mlp * mlp_scale;
        let avg_lat_s = self.avg_load_latency_ns() * 1e-9;
        let raw = threads as f64 * mlp * LINE_BYTES / avg_lat_s;
        // Component capacity limits.
        let mut limit = f64::INFINITY;
        if f_remote > 0.0 {
            limit = limit.min(self.remote_capacity_bytes() / f_remote);
        }
        if f_local > 0.0 {
            limit = limit.min(self.local_capacity_bytes() / f_local);
        }
        let base = raw.min(limit);
        // Saturation penalty past the knee, bounded: a heavily
        // oversubscribed resource settles at ~89% efficiency rather than
        // collapsing (arbitration, not livelock).
        let ratio = raw / limit;
        let excess = (ratio - SATURATION_KNEE).clamp(0.0, 2.5);
        let eff = if ratio > SATURATION_KNEE {
            1.0 / (1.0 + SATURATION_SLOPE * excess)
        } else {
            1.0
        };
        base * eff
    }

    /// [`MemoryModel::stream_bandwidth_bytes`] in GiB/s (the unit of
    /// the paper's Fig. 5).
    pub fn stream_bandwidth_gib(&self, threads: u32, mlp_scale: f64) -> f64 {
        self.stream_bandwidth_bytes(threads, mlp_scale) / (1u64 << 30) as f64
    }

    /// The latency of one request-level memory access where the workload
    /// misses caches with probability `miss_ratio` and touches
    /// `lines_per_op` lines per operation, ns. Used by the in-memory
    /// database / cache / search models.
    pub fn op_memory_ns(&self, lines_per_op: f64, miss_ratio: f64) -> f64 {
        // Hits cost L2-ish latency; misses pay the placement mix.
        let hit_ns = 10.0;
        let miss_ns = self.avg_load_latency_ns();
        lines_per_op * (miss_ratio * miss_ns + (1.0 - miss_ratio) * hit_ns)
    }

    /// Fraction of cycles stalled on memory for an instruction stream
    /// with `instr_per_line` instructions per touched line at `ipc0`
    /// base IPC and `ghz` clock. Drives the paper's Fig. 6 back-end
    /// stall analysis (55.5% local vs 80.9% single-disaggregated for
    /// VoltDB).
    pub fn backend_stall_fraction(
        &self,
        instr_per_line: f64,
        ipc0: f64,
        ghz: f64,
        miss_ratio: f64,
        overlap: f64,
    ) -> f64 {
        let compute_cycles = instr_per_line / ipc0;
        // Longer latencies extract more memory-level parallelism (the
        // out-of-order window holds more concurrent misses before the
        // core truly stalls), so the effective overlap grows sublinearly
        // with the latency ratio.
        let lat = self.avg_load_latency_ns();
        let local = self.params.local_load_latency().as_ns_f64();
        let eff_overlap = overlap * (lat / local).max(1.0).powf(0.45);
        let stall_cycles = miss_ratio * lat * ghz / eff_overlap.max(1.0);
        stall_cycles / (compute_cycles + stall_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(c: SystemConfig) -> MemoryModel {
        MemoryModel::new(DatapathParams::prototype(), c)
    }

    #[test]
    fn latency_ordering() {
        let local = model(SystemConfig::Local).avg_load_latency_ns();
        let inter = model(SystemConfig::Interleaved).avg_load_latency_ns();
        let remote = model(SystemConfig::SingleDisaggregated).avg_load_latency_ns();
        assert!(local < inter && inter < remote);
        assert!((local - 105.0).abs() < 1.0);
        assert!(remote > 1000.0 && remote < 1150.0);
        assert!((inter - (local + remote) / 2.0).abs() < 1.0);
    }

    #[test]
    fn single_channel_saturates_near_nominal() {
        let m = model(SystemConfig::SingleDisaggregated);
        // Fig. 5: ~10 GiB/s at 4 threads, close to the 12.5 GB/s
        // theoretical maximum at 8, slight decline at 16.
        let g4 = m.stream_bandwidth_gib(4, 1.0);
        let g8 = m.stream_bandwidth_gib(8, 1.0);
        let g16 = m.stream_bandwidth_gib(16, 1.0);
        assert!((9.0..=11.5).contains(&g4), "4T {g4}");
        assert!((10.0..=11.64).contains(&g8), "8T {g8}");
        assert!(g16 < g8, "16T {g16} should decline below 8T {g8}");
        assert!(g16 > 8.5, "16T {g16}");
    }

    #[test]
    fn bonding_gains_about_thirty_percent() {
        let s = model(SystemConfig::SingleDisaggregated);
        let b = model(SystemConfig::BondingDisaggregated);
        let gain = b.stream_bandwidth_gib(8, 1.0) / s.stream_bandwidth_gib(8, 1.0);
        // "Overall we measure a ~30% improvement for the
        // bonding-disaggregation configuration."
        assert!((1.2..=1.5).contains(&gain), "bonding gain {gain}");
        // And the ceiling is the C1 cap, not 2x the channel.
        assert!(b.stream_bandwidth_gib(16, 1.0) < 16.5);
    }

    #[test]
    fn interleaved_outperforms_both() {
        let s = model(SystemConfig::SingleDisaggregated);
        let b = model(SystemConfig::BondingDisaggregated);
        let i = model(SystemConfig::Interleaved);
        for t in [4, 8, 16] {
            let iv = i.stream_bandwidth_gib(t, 1.0);
            assert!(
                iv > s.stream_bandwidth_gib(t, 1.0),
                "interleaved beats single at {t}T"
            );
            assert!(
                iv > b.stream_bandwidth_gib(t, 1.0),
                "interleaved beats bonding at {t}T"
            );
        }
        let i8 = i.stream_bandwidth_gib(8, 1.0);
        assert!((18.0..=26.0).contains(&i8), "interleaved 8T {i8}");
    }

    #[test]
    fn local_is_dram_bound() {
        let m = model(SystemConfig::Local);
        let g64 = m.stream_bandwidth_gib(64, 1.0);
        assert!(g64 <= 120.0 && g64 > 80.0, "local 64T {g64}");
    }

    #[test]
    fn stall_fractions_bracket_the_paper() {
        // VoltDB-shaped stream: the paper measures 55.5% back-end stalls
        // local and 80.9% single-disaggregated.
        let local = model(SystemConfig::Local).backend_stall_fraction(60.0, 2.0, 3.8, 0.55, 5.9);
        let remote = model(SystemConfig::SingleDisaggregated)
            .backend_stall_fraction(60.0, 2.0, 3.8, 0.55, 5.9);
        assert!((0.45..=0.65).contains(&local), "local stalls {local}");
        assert!((0.72..=0.90).contains(&remote), "remote stalls {remote}");
        assert!(remote > local + 0.15);
    }

    #[test]
    fn measured_remote_overrides_the_budget() {
        use simkit::time::SimTime;
        let analytic = model(SystemConfig::SingleDisaggregated);
        let measured = model(SystemConfig::SingleDisaggregated)
            .with_measured_remote(SimTime::from_ns(1100));
        assert_eq!(measured.measured_remote_ns(), Some(1100.0));
        assert_eq!(measured.load_latency_ns(Placement::Remote), 1100.0);
        assert_ne!(
            measured.avg_load_latency_ns(),
            analytic.avg_load_latency_ns()
        );
        // Local latency is untouched by the remote calibration.
        assert_eq!(
            measured.load_latency_ns(Placement::Local),
            analytic.load_latency_ns(Placement::Local)
        );
    }

    #[test]
    fn op_memory_cost_scales_with_miss_ratio() {
        let m = model(SystemConfig::SingleDisaggregated);
        assert!(m.op_memory_ns(10.0, 0.5) > m.op_memory_ns(10.0, 0.1));
        let local = model(SystemConfig::Local);
        assert!(m.op_memory_ns(10.0, 0.3) > local.op_memory_ns(10.0, 0.3));
    }
}
