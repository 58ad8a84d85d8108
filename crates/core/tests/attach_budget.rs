//! Allocation budget of the lease control path.
//!
//! An attach reserves a control-plane path, signs and verifies two
//! agent configs, programs the lease's sections and wires its fabric
//! path; a detach undoes it. Both should cost host work in proportion
//! to the lease, not to the section table or the rack. This test runs
//! lease cycles (attach → RTT probe → detach) on the 4×4 torus rack
//! beside a standing lease population, counts the heap allocations of
//! every attach and every detach with the counting global allocator
//! (`counting`), and pins the mean per call.
//!
//! Allocation counts are part of the rack's deterministic output, so
//! the measurement also runs twice on fresh racks and must count
//! exactly the same.
//!
//! A second test bounds the bytes: a histogram nobody records into
//! allocates nothing, and the first attach on a borrower, which builds
//! its fabric with a registry of telemetry timers that stay empty while
//! telemetry is off, stays within a byte budget.

mod counting;

use counting::{allocs, bytes};
use simkit::stats::Histogram;
use simkit::units::GIB;
use thymesisflow_core::{AttachRequest, NodeConfig, Rack, RackBuilder};

/// Torus side length.
const SIDE: usize = 4;

/// Host name of row `r`, column `c`.
fn node(r: usize, c: usize) -> String {
    format!("n{r}{c}")
}

/// The standing population: `(borrower, donor, bonded)`, 2 GiB each.
const STANDING: [(&str, &str, bool); 4] = [
    ("n00", "n02", false),
    ("n10", "n12", true),
    ("n21", "n23", false),
    ("n31", "n33", false),
];

/// Lease cycles measured after the warm-up.
const CYCLES: usize = 64;

/// Bounds on the mean allocations per call, set at the values measured
/// when the control path became O(lease): 100.98 per attach (306.09
/// before) and 13.98 per detach (16.11 before), then lowered when the
/// route search and the control-plane graph became flat arrays and
/// unplug stopped collecting the host's sections: 81.48 per attach and
/// 9.86 per detach, then to 79.48 per attach when a path's two
/// histograms stopped allocating their buckets before the first
/// record. Lower them when the path gets leaner; never raise them.
const ATTACH_BUDGET: f64 = 79.5;
const DETACH_BUDGET: f64 = 9.9;

/// The 4×4 torus rack, cabled row- and column-wise, with the standing
/// leases attached.
fn torus_rack() -> Rack {
    let mut builder = RackBuilder::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            builder = builder.node(NodeConfig::ac922(&node(r, c)));
        }
    }
    for r in 0..SIDE {
        for c in 0..SIDE {
            builder = builder
                .cable(&node(r, c), &node(r, (c + 1) % SIDE))
                .cable(&node(r, c), &node((r + 1) % SIDE, c));
        }
    }
    let mut rack = builder.build().expect("torus rack builds");
    for (borrower, donor, bonded) in STANDING {
        let mut req = AttachRequest::new(borrower, donor, 2 * GIB);
        if bonded {
            req = req.bonded();
        }
        rack.attach(req).expect("standing lease attaches");
    }
    rack
}

/// Cycle `i`: a distinct borrower/donor pair, 1–8 GiB, every third
/// lease bonded. The pairs sweep every borrower, so a pass over them
/// builds every borrower's fabric.
fn request(i: usize) -> AttachRequest {
    let nodes = SIDE * SIDE;
    let b = (i * 7 + 3) % nodes;
    let d = (b + 1 + (i * 5) % (nodes - 1)) % nodes;
    let gib = 1 + (i as u64 * 3) % 8;
    let req = AttachRequest::new(
        &node(b / SIDE, b % SIDE),
        &node(d / SIDE, d % SIDE),
        gib * GIB,
    );
    if i % 3 == 0 {
        req.bonded()
    } else {
        req
    }
}

/// Runs cycles `0..CYCLES` once to warm the rack up, then again, and
/// returns the second pass's total allocations in attach and in detach.
fn measure() -> (u64, u64) {
    let mut rack = torus_rack();
    let mut totals = (0, 0);
    for pass in 0..2 {
        for i in 0..CYCLES {
            let req = request(i);
            let before = allocs();
            let lease = rack.attach(req).expect("cycle attaches");
            let attached = allocs();
            rack.measure_lease_rtt(lease.id()).expect("probe runs");
            let probed = allocs();
            rack.detach(lease.id()).expect("cycle detaches");
            if pass == 1 {
                totals.0 += attached - before;
                totals.1 += allocs() - probed;
            }
        }
    }
    assert_eq!(
        rack.leases().count(),
        STANDING.len(),
        "a cycle left a lease behind"
    );
    totals
}

/// Bound on the bytes the first attach on a fresh borrower asks the
/// allocator for, fabric build included, set at the value measured when
/// histograms came to store only the buckets they record: 142,364 B
/// (601,116 B before, when each of the fabric's 26 registry timers and
/// the path's two histograms allocated 16 KiB of buckets up front).
/// Lower it when the fabric gets leaner; never raise it.
const FIRST_ATTACH_BYTES: u64 = 142_364;

/// Bytes (and allocations) of one attach on `n01`, a borrower none of
/// the standing leases uses, so the attach builds its fabric.
fn first_attach() -> (u64, u64) {
    let mut rack = torus_rack();
    let (b0, a0) = (bytes(), allocs());
    rack.attach(AttachRequest::new("n01", "n03", 2 * GIB))
        .expect("first attach on n01");
    (bytes() - b0, allocs() - a0)
}

#[test]
fn unrecorded_histograms_and_fresh_fabrics_stay_within_the_byte_budget() {
    let (b0, a0) = (bytes(), allocs());
    let h = Histogram::new();
    assert_eq!(
        (bytes() - b0, allocs() - a0),
        (0, 0),
        "Histogram::new allocated"
    );
    assert!(h.is_empty());

    let (first, n) = first_attach();
    assert!(
        first <= FIRST_ATTACH_BYTES,
        "first attach on a fresh borrower asked for {first} B, budget {FIRST_ATTACH_BYTES} B"
    );
    assert_eq!(
        first_attach(),
        (first, n),
        "byte count differs between identical runs"
    );
}

#[test]
fn lease_cycles_stay_within_the_control_path_budget() {
    let (attach, detach) = measure();
    let per_attach = attach as f64 / CYCLES as f64;
    let per_detach = detach as f64 / CYCLES as f64;
    assert!(
        per_attach <= ATTACH_BUDGET,
        "{attach} allocations over {CYCLES} attaches = {per_attach:.1}/attach, budget {ATTACH_BUDGET}"
    );
    assert!(
        per_detach <= DETACH_BUDGET,
        "{detach} allocations over {CYCLES} detaches = {per_detach:.1}/detach, budget {DETACH_BUDGET}"
    );
    assert_eq!(
        measure(),
        (attach, detach),
        "allocation count differs between identical runs"
    );
}
