//! Allocation budget of the steady-state datapath.
//!
//! The step loop reuses its per-event buffers and the LLC allocates
//! only each sealed frame's shared payload (DESIGN.md §8), so a
//! warmed-up read stream costs well under one heap allocation per
//! event. This test pins that budget with a counting global allocator
//! (`counting`). The counter is a const-initialised thread-local, so
//! each test counts only what its own thread allocates, whatever the
//! harness runs beside it.
//!
//! Two shapes are measured: a bonded point-to-point stream, and a
//! four-hop torus path whose frames cross interior forwarding segments
//! (the `HopArrive`/`HopCredit` arms). Allocation counts are part of
//! the simulation's deterministic output, so each shape also runs twice
//! on fresh fabrics and must count exactly the same.

mod counting;

use counting::allocs;
use routing::topology::Torus2D;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{Fabric, FabricBuilder, PathId, PathSpec};
use thymesisflow_core::params::DatapathParams;

/// Readers and outstanding cachelines per reader: the paper's stream.
const THREADS: u32 = 16;
const WINDOW: u32 = 32;
/// Simulated span of one closed-loop run.
const SPAN: SimTime = SimTime::from_us(200);
/// The budget: at most one allocation every other event.
const BUDGET: f64 = 0.5;

/// One closed-loop span plus the drain that retires its tail.
fn stream(fabric: &mut Fabric, path: PathId) {
    fabric
        .measure_stream_bandwidth(path, THREADS, WINDOW, SPAN)
        .expect("stream runs");
    fabric.drain().expect("stream drains");
}

/// Warms `fabric` up with one span, then returns the allocations and
/// events of a second, identical span.
fn steady_state(fabric: &mut Fabric, path: PathId) -> (u64, u64) {
    stream(fabric, path);
    let events = fabric.events_processed();
    let before = allocs();
    stream(fabric, path);
    (allocs() - before, fabric.events_processed() - events)
}

fn assert_within_budget(shape: &str, build: impl Fn() -> (Fabric, PathId)) {
    let (mut fabric, path) = build();
    let (n, events) = steady_state(&mut fabric, path);
    assert!(events > 10_000, "{shape}: only {events} events measured");
    let per_event = n as f64 / events as f64;
    assert!(
        per_event <= BUDGET,
        "{shape}: {n} allocations over {events} events = {per_event:.3}/event, budget {BUDGET}"
    );
    let (mut again, path) = build();
    assert_eq!(
        steady_state(&mut again, path),
        (n, events),
        "{shape}: allocation count differs between identical runs"
    );
}

#[test]
fn bonded_point_to_point_stream_stays_within_budget() {
    assert_within_budget("point_to_point", || {
        FabricBuilder::point_to_point(DatapathParams::prototype(), 2, 256 << 20)
            .expect("point-to-point fabric assembles")
    });
}

#[test]
fn multi_hop_torus_stream_stays_within_budget() {
    let build = || {
        let torus = Torus2D::new(4, 4).expect("4x4 torus");
        let (fabric, paths) =
            FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0))
                .path_to(torus.host_at(2, 2), PathSpec::reference(256 << 20, 2))
                .build()
                .expect("torus fabric assembles");
        (fabric, paths[0])
    };
    let (mut fabric, path) = build();
    assert_eq!(fabric.topology_route(path).map(|r| r.hops()), Some(4));
    stream(&mut fabric, path);
    let forwarded: u64 = fabric
        .congestion_report()
        .links()
        .iter()
        .map(|l| l.forwarded)
        .sum();
    assert!(forwarded > 0, "no frame crossed an interior segment");
    assert_within_budget("torus 4 hops", build);
}
