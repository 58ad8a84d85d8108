//! Multi-hop forwarding properties and the Torus2D acceptance scenario.
//!
//! Three contracts from the topology layer's spec:
//!
//! 1. **Linearity** — on a line of hosts, the uncontended load RTT
//!    grows by exactly one per-hop increment per extra interior link;
//!    the increment itself is topology-independent.
//! 2. **Exact attribution** — a traced multi-hop load's spans sum to
//!    its RTT with no residue, and the interior traversals surface as a
//!    `SwitchTraversal` span of exactly `interior_nodes × 30 ns` per
//!    direction (the optical per-frame traversal constant).
//! 3. **Adaptive re-route** — a 4×4 torus running a cross-rack
//!    workload survives an interior link cut mid-run: the route is
//!    rebuilt around the cut, every in-flight load still resolves
//!    exactly once, and the detour avoids the downed link. A detached
//!    path leaves no route behind, and the survivors reroute exactly as
//!    they would without it. Once the link is restored it reports up
//!    again and new paths take the shortest route over it.

use opencapi::pasid::Pasid;
use rmmu::flow::NetworkId;
use routing::topology::{Line, Torus2D};
use simkit::time::SimTime;
use thymesisflow_core::fabric::{
    ChaosPlan, Fabric, FabricBuilder, HopKind, JournalKind, PathId, PathSpec, WireDir,
};
use thymesisflow_core::params::DatapathParams;

/// Uncontended single-load RTT over an `n`-host line end to end.
fn line_rtt(n: usize, channels: usize) -> SimTime {
    let line = Line::new(n).expect("line assembles");
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &line, routing::NodeId(0))
            .path_to(
                routing::NodeId((n - 1) as u32),
                PathSpec::reference(256 << 20, channels),
            )
            .build()
            .expect("line fabric assembles");
    fabric
        .measure_load_latency(paths[0])
        .expect("uncontended load completes")
}

#[test]
fn line_rtt_is_linear_in_hop_count() {
    for channels in [1, 2] {
        let rtts: Vec<SimTime> = (2..=6).map(|n| line_rtt(n, channels)).collect();
        let per_hop = rtts[1] - rtts[0];
        assert!(
            per_hop > SimTime::ZERO,
            "{channels}ch: an extra hop must cost time"
        );
        for (i, w) in rtts.windows(2).enumerate() {
            assert_eq!(
                w[1] - w[0],
                per_hop,
                "{channels}ch: hop increment drifted between {} and {} hosts",
                i + 3,
                i + 4,
            );
        }
        // RTT(n) == RTT(2) + (hops - 1) × per-hop, exactly.
        for (i, &rtt) in rtts.iter().enumerate() {
            assert_eq!(rtt, rtts[0] + per_hop * i as u64);
        }
    }
}

#[test]
fn multi_hop_spans_sum_exactly_to_rtt() {
    for n in [3usize, 5] {
        let line = Line::new(n).unwrap();
        let (mut fabric, paths) =
            FabricBuilder::from_topology(DatapathParams::prototype(), &line, routing::NodeId(0))
                .path_to(
                    routing::NodeId((n - 1) as u32),
                    PathSpec::reference(256 << 20, 1),
                )
                .build()
                .unwrap();
        let t = fabric.measure_traced_load(paths[0]).expect("traced probe");
        assert_eq!(
            t.spans_total(),
            t.rtt(),
            "{n}-host line: span decomposition left a residue"
        );
        // Interior nodes forward store-and-forward at the optical
        // traversal constant: 30 ns per interior node, per direction.
        let interior = (n - 2) as u64;
        for dir in [WireDir::Forward, WireDir::Reverse] {
            assert_eq!(
                t.time_in(HopKind::SwitchTraversal(dir)),
                SimTime::from_ns(30) * interior,
                "{n}-host line: {dir:?} interior traversal misattributed"
            );
        }
        // Contiguity: the spans tile [issued, retired] with no gaps.
        for w in t.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}

#[test]
fn torus_cross_rack_workload_reroutes_around_an_interior_cut() {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let src = torus.host_at(0, 0);
    let dst = torus.host_at(2, 2);
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, src)
            .path_to(dst, PathSpec::reference(256 << 20, 2).labelled("cross-rack"))
            .build()
            .expect("torus fabric assembles");
    let path = paths[0];
    fabric.set_telemetry(true);
    let route = fabric.topology_route(path).expect("routed path");
    assert_eq!(route.hops(), 4, "0,0 → 2,2 is manhattan distance 4");
    let names = fabric.topology_link_names();
    // Cut the route's first *interior* link mid-run, by topology name.
    let victim_idx = route.links[1];
    let victim = names[victim_idx].clone();
    fabric.schedule_chaos(&ChaosPlan::new().link_down_named(SimTime::from_ns(700), &victim));

    let issued: Vec<u64> = (0..24)
        .map(|_| fabric.issue_read(path).expect("healthy path issues"))
        .collect();
    let mut completed = Vec::new();
    while let Some(done) = fabric.step().expect("reroute is survivable") {
        completed.extend(done.iter().map(|c| c.tag));
    }
    let faults = fabric.faults();
    for &tag in &issued {
        let c = completed.iter().filter(|&&t| t == tag).count();
        let f = faults.iter().filter(|l| l.tag == tag).count();
        assert_eq!(c + f, 1, "tag {tag}: must resolve exactly once");
    }
    assert_eq!(
        completed.len(),
        issued.len(),
        "a torus has detours; the cut must strand nothing"
    );
    assert!(fabric.route_reroutes() >= 1, "no re-route was recorded");
    let detour = fabric.topology_route(path).expect("still routed");
    assert!(
        !detour.links.contains(&victim_idx),
        "the detour still crosses the downed link {victim}"
    );
    // The detour serves new traffic at a finite multi-hop RTT.
    let rtt = fabric.measure_load_latency(path).expect("detour serves");
    assert!(rtt > SimTime::ZERO);
}

#[test]
fn detached_path_drops_its_route_and_survivors_reroute_unchanged() {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let dst = torus.host_at(2, 2);
    let build = || {
        let (mut fabric, paths) =
            FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0))
                .path_to(dst, PathSpec::reference(256 << 20, 2).labelled("survivor"))
                .build()
                .expect("torus fabric assembles");
        fabric.set_journal(true);
        (fabric, paths[0])
    };
    // One fabric churns a second path over the same route before the
    // cut; the control never carried it.
    let (mut churned, survivor) = build();
    let transient = churned
        .attach_routed(
            &PathSpec::new(NetworkId(9), Pasid(7), 0x1000_0000, 256 << 20).labelled("transient"),
            dst,
        )
        .expect("second path attaches");
    assert_eq!(
        churned.topology_route(transient),
        churned.topology_route(survivor),
        "both paths ride the same route"
    );
    churned.detach_path(transient).expect("idle path detaches");
    assert_eq!(
        churned.topology_route(transient),
        None,
        "detach kept the route"
    );
    let (mut control, _) = build();

    let victim = {
        let route = control.topology_route(survivor).expect("routed path");
        control.topology_link_names()[route.links[1]].clone()
    };
    let cut = |fabric: &mut Fabric| {
        fabric.schedule_chaos(&ChaosPlan::new().link_down_named(SimTime::from_ns(700), &victim));
        for _ in 0..24 {
            fabric.issue_read(survivor).expect("healthy path issues");
        }
        fabric.drain().expect("reroute is survivable");
        let reroutes: Vec<(SimTime, Option<PathId>, Option<u32>, Vec<String>)> = fabric
            .journal()
            .expect("journal on")
            .records()
            .iter()
            .filter(|r| r.kind == JournalKind::Reroute)
            .map(|r| (r.at, r.path, r.generation, r.links.clone()))
            .collect();
        (
            fabric.route_reroutes(),
            reroutes,
            fabric.topology_route(survivor),
            fabric
                .measure_load_latency(survivor)
                .expect("detour serves"),
        )
    };
    let after_churn = cut(&mut churned);
    assert_eq!(after_churn.0, 1, "exactly the survivor reroutes");
    assert_eq!(after_churn, cut(&mut control));
}

#[test]
fn restored_link_comes_back_up_and_new_paths_take_it_again() {
    let torus = Torus2D::new(4, 4).expect("4x4 torus");
    let dst = torus.host_at(2, 2);
    let (mut fabric, paths) =
        FabricBuilder::from_topology(DatapathParams::prototype(), &torus, torus.host_at(0, 0))
            .path_to(dst, PathSpec::reference(256 << 20, 2).labelled("cut"))
            .build()
            .expect("torus fabric assembles");
    let path = paths[0];
    let shortest = fabric.topology_route(path).expect("routed path");
    let victim_idx = shortest.links[1];
    let victim = fabric.topology_link_names()[victim_idx].clone();
    let is_down = |fabric: &Fabric| {
        fabric
            .congestion_report()
            .get(&victim)
            .expect("victim has a congestion row")
            .down
    };
    let spec = |n: u32| {
        PathSpec::new(NetworkId(n), Pasid(n), 0x1000_0000, 256 << 20).labelled("probe")
    };

    // Cut the route's first interior link under traffic.
    fabric.schedule_chaos(&ChaosPlan::new().link_down_named(SimTime::from_ns(700), &victim));
    for _ in 0..24 {
        fabric.issue_read(path).expect("healthy path issues");
    }
    fabric.drain().expect("reroute is survivable");
    assert!(is_down(&fabric), "the cut link reports down");
    let detour = fabric.topology_route(path).expect("still routed");
    assert!(!detour.links.contains(&victim_idx));
    let during = fabric.attach_routed(&spec(9), dst).expect("attaches around the cut");
    assert!(
        !fabric.topology_route(during).expect("routed").links.contains(&victim_idx),
        "a path attached during the cut crosses it"
    );

    // Restore it.
    fabric.schedule_chaos(&ChaosPlan::new().link_up_named(fabric.now(), &victim));
    fabric.drain().expect("restore lands");
    assert!(!is_down(&fabric), "the restored link still reports down");
    assert_eq!(
        fabric.topology_route(path),
        Some(detour),
        "a detoured route stays on its detour"
    );
    let after = fabric.attach_routed(&spec(10), dst).expect("attaches after the restore");
    assert_eq!(
        fabric.topology_route(after),
        Some(shortest),
        "a new path takes the original shortest route again"
    );
    let rtt = fabric.measure_load_latency(after).expect("restored route serves");
    assert!(rtt > SimTime::ZERO);
}

#[test]
fn named_chaos_on_unknown_link_is_refused() {
    let torus = Torus2D::new(4, 4).unwrap();
    let src = torus.host_at(0, 0);
    let (mut fabric, _) = FabricBuilder::from_topology(DatapathParams::prototype(), &torus, src)
        .path_to(torus.host_at(1, 1), PathSpec::reference(256 << 20, 1))
        .build()
        .unwrap();
    fabric.schedule_chaos(
        &ChaosPlan::new().link_down_named(SimTime::from_ns(100), "not-a-link"),
    );
    // The bad target surfaces as a typed error when the event fires.
    let err = loop {
        match fabric.step() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("chaos on an unknown link was silently ignored"),
            Err(e) => break e,
        }
    };
    assert!(matches!(
        err,
        thymesisflow_core::fabric::FabricError::Topology(_)
    ));
}
