//! `rack_churn`: a seeded stream of lease lifecycles on the 4×4 torus
//! rack — attach → `Rack::measure_lease_rtt` → detach — beside a
//! standing population of leases, so each fabric carries live and
//! tombstoned paths.
//!
//! It drives `core::rack` and `core::fabric` through the control path
//! (ctrlplane path search and reservation, hostsim hotplug, rmmu
//! section tables, `attach_routed`/`detach_path`, the rack journal)
//! instead of the data path. A change that speeds up streaming but
//! slows attach or detach shows here and nowhere else, as does one that
//! keeps per-lease state alive after detach.

use dcsim::trace::{TraceGenerator, TraceParams};
use simkit::rng::DetRng;
use simkit::units::{f64_to_u64_saturating, GIB};
use thymesisflow_core::{AttachRequest, DatapathParams, Fabric, Rack, RackError};

use crate::bench::{self, Judged, Layer, Model, Workload};
use crate::trace::Tracer;
use crate::{alloc, stats, torus};

/// Lease cycles one iteration runs.
pub const CYCLES: usize = 512;

/// The standing population: `(borrower, donor, bonded)`, 2 GiB each.
/// Every node pair of the torus stays attachable beside it.
const STANDING: [(&str, &str, bool); 4] = [
    ("n00", "n02", false),
    ("n10", "n12", true),
    ("n21", "n23", false),
    ("n31", "n33", false),
];

/// A probe must land within `reference + (hops - 1) × [MIN, MAX]`.
const HOP_NS_MIN: u64 = 250;
/// Upper per-hop cost of the RTT envelope.
const HOP_NS_MAX: u64 = 400;

/// The configuration the provenance hash covers.
pub const CONFIG: &str = "rack_churn torus=4x4 standing=n00>n02,n10>n12:bonded,n21>n23,n31>n33@2GiB cycles=512 pair=uniform size=ceil(8*mem)GiB bonded=mem>cpu hop_ns=250..400";

/// One generated lease lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Borrowing host.
    pub borrower: String,
    /// Donor host.
    pub donor: String,
    /// Lease size in GiB.
    pub gib: u64,
    /// Whether the lease bonds two channels.
    pub bonded: bool,
}

/// The seeded cycle stream: a uniform distinct node pair, and a size
/// and bonding drawn from the dcsim cluster-trace marginals (memory
/// demand sets the size; a memory-heavier-than-CPU task bonds).
pub fn cycles(seed: u64, n: usize) -> Vec<Cycle> {
    let mut rng = DetRng::split_stream(seed, 1);
    let mut trace = TraceGenerator::new(TraceParams::default(), seed ^ 0xc4c1e);
    let nodes = torus::SIDE * torus::SIDE;
    (0..n)
        .map(|_| {
            let b = rng.index(nodes);
            let d = (b + 1 + rng.index(nodes - 1)) % nodes;
            let task = trace.next_event();
            Cycle {
                borrower: torus::node(b / torus::SIDE, b % torus::SIDE),
                donor: torus::node(d / torus::SIDE, d % torus::SIDE),
                gib: f64_to_u64_saturating((task.mem * 8.0).ceil()).clamp(1, 8),
                bonded: task.mem > task.cpu,
            }
        })
        .collect()
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Out {
    /// Per cycle: probe RTT (ns) and route hops, or the cycle's error.
    pub probes: Vec<Result<(u64, usize), String>>,
    /// Leases live after teardown.
    pub live_after: usize,
    /// Rack journal records at the end of the cycle stream.
    pub journal_records: usize,
    /// Live heap after the last detach minus before the first attach.
    pub retained_bytes: i64,
}

/// The workload.
pub struct RackChurn {
    cycles: Vec<Cycle>,
    reference_ns: u64,
    retained_per_cycle: f64,
    journal_records: usize,
}

impl RackChurn {
    /// Generates the cycle stream and measures the reference
    /// point-to-point RTT that anchors the envelope.
    pub fn new(seed: u64) -> Result<Self, String> {
        let reference = Fabric::reference_load_latency(&DatapathParams::prototype(), 1)
            .map_err(|e| e.to_string())?;
        Ok(RackChurn {
            cycles: cycles(seed, CYCLES),
            reference_ns: reference.as_ns(),
            retained_per_cycle: 0.0,
            journal_records: 0,
        })
    }
}

/// One lifecycle; returns the probe RTT (ns) and the route's hop count.
fn cycle(rack: &mut Rack, c: &Cycle, tr: &mut Tracer) -> Result<(u64, usize), RackError> {
    let mut req = AttachRequest::new(&c.borrower, &c.donor, c.gib * GIB);
    if c.bonded {
        req = req.bonded();
    }
    let lease = tr.span("rack.attach", || rack.attach(req))?;
    let hops = tr.span("rack.query", || {
        let path = rack.lease_path(lease.id())?;
        let route = rack.fabric(&c.borrower)?.topology_route(path)?;
        Some(route.links.len())
    });
    let rtt = tr.span("rack.measure_lease_rtt", || {
        rack.measure_lease_rtt(lease.id())
    })?;
    tr.span("rack.detach", || rack.detach(lease.id()))?;
    Ok((rtt.as_ns(), hops.unwrap_or(0)))
}

/// Judges one iteration: every cycle succeeded, every probe lands in
/// the RTT envelope, and no lease outlives the teardown. An op is one
/// lease cycle.
pub fn judge(reference_ns: u64, out: &Out) -> Judged {
    let mut failures = Vec::new();
    let mut ok = 0u64;
    for (i, probe) in out.probes.iter().enumerate() {
        match probe {
            Ok((rtt, hops)) if *hops >= 1 => {
                let extra = *hops as u64 - 1;
                let lo = reference_ns + extra * HOP_NS_MIN;
                let hi = reference_ns + extra * HOP_NS_MAX;
                if (lo..=hi).contains(rtt) {
                    ok += 1;
                } else {
                    failures.push(format!(
                        "cycle {i}: {rtt} ns over {hops} hops is outside [{lo}, {hi}] ns"
                    ));
                }
            }
            Ok((_, hops)) => failures.push(format!("cycle {i}: route of {hops} hops")),
            Err(e) => failures.push(format!("cycle {i}: {e}")),
        }
    }
    if out.live_after != 0 {
        failures.push(format!("{} leases live after teardown", out.live_after));
    }
    Judged::new(ok, out.probes.len() as u64, failures)
}

impl Workload for RackChurn {
    type Ready = Rack;
    type Out = Out;

    fn setup(&mut self, tr: &mut Tracer) -> Result<Rack, String> {
        let mut rack = tr
            .span("rack.build", torus::build)
            .map_err(|e| e.to_string())?;
        for (borrower, donor, bonded) in STANDING {
            let mut req = AttachRequest::new(borrower, donor, 2 * GIB);
            if bonded {
                req = req.bonded();
            }
            tr.span("rack.attach", || rack.attach(req))
                .map_err(|e| e.to_string())?;
        }
        Ok(rack)
    }

    fn run(&mut self, mut rack: Rack, tr: &mut Tracer) -> Result<Out, String> {
        let before = alloc::snap().live;
        let probes = self
            .cycles
            .iter()
            .map(|c| cycle(&mut rack, c, tr).map_err(|e| e.to_string()))
            .collect();
        let after = alloc::snap().live;
        let journal_records = rack.journal().len();
        let standing: Vec<_> = rack.leases().map(|l| l.id()).collect();
        for id in standing {
            rack.detach(id).map_err(|e| e.to_string())?;
        }
        Ok(Out {
            probes,
            live_after: rack.leases().count(),
            journal_records,
            retained_bytes: i64::try_from(after).unwrap_or(i64::MAX)
                - i64::try_from(before).unwrap_or(i64::MAX),
        })
    }

    fn judge(&mut self, out: &Out, traced: bool) -> Judged {
        if !traced {
            // Untraced iterations: the tracer's own buffers are not live.
            #[allow(clippy::cast_precision_loss)]
            let per_cycle = out.retained_bytes as f64 / CYCLES as f64;
            self.retained_per_cycle = per_cycle;
        }
        self.journal_records = out.journal_records;
        judge(self.reference_ns, out)
    }

    fn digest(&self, out: &Out) -> String {
        let probes: String = out.probes.iter().map(|p| format!("{p:?};")).collect();
        format!(
            "probes={:016x} journal={}",
            stats::fnv1a(probes.as_bytes()),
            out.journal_records
        )
    }

    fn model(&self, _out: &Out) -> Vec<Model> {
        Vec::new()
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        let attach = bench::durations(tr, "rack.attach");
        let detach = bench::durations(tr, "rack.detach");
        vec![
            (
                "rack.attach.us_p50",
                stats::quantile(&attach, 0.5) as f64 / 1e3,
            ),
            (
                "rack.attach.us_p99",
                stats::quantile(&attach, 0.99) as f64 / 1e3,
            ),
            (
                "rack.detach.us_p50",
                stats::quantile(&detach, 0.5) as f64 / 1e3,
            ),
            (
                "rack.detach.us_p99",
                stats::quantile(&detach, 0.99) as f64 / 1e3,
            ),
            (
                "rack.measure_lease_rtt.us",
                stats::mean_scaled(&bench::durations(tr, "rack.measure_lease_rtt"), 1e3),
            ),
            (
                "rack.attach.allocs",
                stats::mean_scaled(&bench::allocations(tr, "rack.attach"), 1.0),
            ),
            (
                "rack.detach.allocs",
                stats::mean_scaled(&bench::allocations(tr, "rack.detach"), 1.0),
            ),
            ("rack.retained_bytes_per_cycle", self.retained_per_cycle),
            ("rack.journal_records", self.journal_records as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_fixes_the_cycle_stream() {
        assert_eq!(cycles(7, 64), cycles(7, 64));
        assert_ne!(cycles(7, 64), cycles(8, 64));
        for c in cycles(3, 256) {
            assert_ne!(c.borrower, c.donor);
            assert!((1..=8).contains(&c.gib));
        }
        assert!(cycles(3, 256).iter().any(|c| c.bonded));
    }

    #[test]
    fn a_probe_outside_the_envelope_fails_the_iteration() {
        let good = Out {
            probes: vec![Ok((1159, 1)), Ok((1467, 2))],
            live_after: 0,
            journal_records: 0,
            retained_bytes: 0,
        };
        let j = judge(1159, &good);
        assert!(j.failures.is_empty(), "{:?}", j.failures);
        assert_eq!((j.ops, j.attempted), (2, 2));

        let mut slow = good.clone();
        slow.probes[1] = Ok((5000, 2));
        let j = judge(1159, &slow);
        assert_eq!((j.ops, j.failed), (0, 2));

        let mut leak = good.clone();
        leak.live_after = 1;
        assert_eq!(judge(1159, &leak).failed, 2);

        let mut err = good;
        err.probes[0] = Err("no path".into());
        assert_eq!(judge(1159, &err).failed, 2);
    }
}
