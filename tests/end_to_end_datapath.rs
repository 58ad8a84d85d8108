//! Cross-crate integration: the flit-level datapath against the
//! analytic calibration, and the endpoint pipeline's legality checks.

use thymesisflow::core::endpoint::{ComputeEndpoint, EndpointError, MemoryStealingEndpoint};
use thymesisflow::core::fabric::{Fabric, FabricBuilder, PathId};
use thymesisflow::core::params::DatapathParams;
use thymesisflow::opencapi::pasid::{Pasid, Region};
use thymesisflow::opencapi::transaction::MemRequest;
use thymesisflow::rmmu::flow::NetworkId;
use thymesisflow::rmmu::section::SectionEntry;
use thymesisflow::routing::ChannelId;
use thymesisflow::simkit::time::SimTime;

const WINDOW: u64 = 0x1000_0000_0000;
const DONOR: u64 = 0x7000_0000_0000;
const SECTION: u64 = 256 << 20;

/// The reference point-to-point fabric: one borrower, one donor,
/// `channels` bonded channels over a one-section attachment.
fn p2p(params: DatapathParams, channels: usize) -> (Fabric, PathId) {
    FabricBuilder::point_to_point(params, channels, SECTION)
        .expect("the reference topology always assembles")
}

/// Sustained closed-loop read rate over a fresh reference fabric.
fn stream_gib(channels: usize, threads: u32, window: u32, us: u64) -> f64 {
    let (mut fabric, path) = p2p(DatapathParams::prototype(), channels);
    fabric
        .measure_stream_bandwidth(path, threads, window, SimTime::from_us(us))
        .expect("the reference path streams cleanly")
        .as_gib_per_sec()
}

/// Load-to-use of one uncontended load over a fresh reference fabric.
fn load_to_use(params: DatapathParams) -> SimTime {
    let (mut fabric, path) = p2p(params, 1);
    fabric
        .measure_load_latency(path)
        .expect("a lossless path always completes")
}

#[test]
fn measured_rtt_tracks_the_analytic_budget_across_calibrations() {
    for params in [DatapathParams::prototype(), DatapathParams::asic_integrated()] {
        let analytic = params.remote_load_latency();
        let measured = load_to_use(params);
        let delta = measured.as_ns() as i64 - analytic.as_ns() as i64;
        assert!(
            delta.abs() < 150,
            "measured {measured} vs analytic {analytic}"
        );
    }
}

#[test]
fn asic_integration_cuts_latency_roughly_in_half() {
    let p = load_to_use(DatapathParams::prototype());
    let a = load_to_use(DatapathParams::asic_integrated());
    assert!(
        a.as_ns() * 2 < p.as_ns() + 300,
        "asic {a} vs prototype {p}"
    );
}

#[test]
fn saturation_ordering_single_vs_bonded() {
    let s = stream_gib(1, 8, 32, 100);
    let b = stream_gib(2, 8, 32, 100);
    assert!(b > s, "bonded {b} vs single {s}");
    assert!(b < 17.0, "C1 ceiling respected: {b}");
    // Bonding buys tens of percent, not 2x (paper: ~1.3x).
    let gain = b / s;
    assert!(gain > 1.15 && gain < 1.8, "gain {gain} (paper: ~1.3)");
}

#[test]
fn single_load_round_trip_matches_analytic_budget() {
    let params = DatapathParams::prototype();
    let analytic = params.remote_load_latency();
    let measured = load_to_use(params);
    let delta = measured.as_ns() as i64 - analytic.as_ns() as i64;
    // The event-level simulation and the closed-form budget agree
    // within the adaptive-batching flush windows (2 frames/direction).
    assert!(
        delta.abs() < 130,
        "measured {measured} vs analytic {analytic}"
    );
    // And both sit near the paper's ~950 ns RTT + ~105 ns DRAM.
    assert!((1000..=1200).contains(&measured.as_ns()), "{measured}");
}

#[test]
fn single_channel_saturates_near_ten_gib() {
    let gib = stream_gib(1, 8, 32, 200);
    assert!((8.5..=11.64).contains(&gib), "single channel {gib} GiB/s");
}

#[test]
fn bonding_is_capped_by_the_c1_engine() {
    // Two channels offer ~20 GiB/s of payload, but 128 B C1
    // transactions sink at most ~16 GiB/s (§VI-C).
    let gib = stream_gib(2, 16, 32, 200);
    assert!((13.0..=16.5).contains(&gib), "bonded {gib} GiB/s");
}

#[test]
fn two_channel_topology_has_an_llc_pair_per_direction_and_channel() {
    let (fabric, path) = p2p(DatapathParams::prototype(), 2);
    let stats = fabric.path_link_stats(path).expect("live path");
    let links: Vec<usize> = stats.iter().map(|s| s.link).collect();
    assert_eq!(links, vec![0, 1], "two channels, one link slot each");
    assert_eq!(fabric.path_donor(path).expect("live path"), 0);
    assert!(fabric.switch().is_none(), "point-to-point has no switch");
    // Each link carries an up and a down LLC pair, each with its own
    // full credit pool.
    let full = stats[0].up_credits;
    assert!(full > 0);
    for s in &stats {
        assert_eq!((s.up_credits, s.down_credits), (full, full), "link {}", s.link);
    }
}

#[test]
fn full_pipeline_enforces_legality_end_to_end() {
    // The §IV-C security property: "compute endpoint configurations
    // allow memory transactions forwarding only towards legal
    // destinations, and fail otherwise" — at every stage.
    let mut compute = ComputeEndpoint::new(WINDOW, 2 * SECTION);
    compute
        .program_section(
            0,
            SectionEntry::new(DONOR, NetworkId(1)),
            vec![ChannelId(0)],
        )
        .unwrap();
    // Section 1 deliberately left unprogrammed.
    let mut memory = MemoryStealingEndpoint::new(SimTime::from_ns(105));
    memory
        .register(
            Pasid(1),
            Region {
                ea_base: DONOR,
                len: SECTION,
            },
        )
        .unwrap();

    // Legal: programmed section, registered donor region.
    let (routed, ch) = compute
        .process(&MemRequest::read(0, WINDOW + 0x80))
        .expect("legal transaction");
    assert_eq!(ch, ChannelId(0));
    assert!(memory.serve(SimTime::ZERO, &routed, Pasid(1)).is_ok());

    // Illegal at the RMMU: unprogrammed section.
    assert!(matches!(
        compute.process(&MemRequest::read(0, WINDOW + SECTION + 0x80)),
        Err(EndpointError::Rmmu(_))
    ));

    // Illegal at the M1 window: outside the firmware-assigned range.
    assert!(matches!(
        compute.process(&MemRequest::read(0, 0x80)),
        Err(EndpointError::M1(_))
    ));

    // Illegal at the donor: wrong PASID.
    assert!(memory.serve(SimTime::ZERO, &routed, Pasid(9)).is_err());
}

#[test]
fn datapath_latency_histogram_is_tight_when_uncontended() {
    // One outstanding load at a time: every completion lands near the
    // analytic load-to-use.
    let (mut fabric, path) = p2p(DatapathParams::prototype(), 1);
    fabric
        .measure_stream_bandwidth(path, 1, 1, SimTime::from_us(100))
        .expect("the reference path streams cleanly");
    let h = fabric.completions(path).expect("live path");
    assert!(h.count() > 10);
    let spread = h.quantile(0.99) as f64 / h.quantile(0.5) as f64;
    assert!(spread < 1.3, "uncontended spread {spread}");
    let p99 = h.quantile(0.99);
    assert!((1000..=1300).contains(&p99), "p99 {p99} ns");
}
