//! Cross-crate integration: fabric topologies beyond the reference
//! point-to-point shape — one-compute × N-donor fan-out and the
//! circuit-switched rack — plus the facade/fabric trajectory-equality
//! guarantee the refactor rests on.

use thymesisflow::core::fabric::{FabricBuilder, StreamLoad};
use thymesisflow::core::params::DatapathParams;
use thymesisflow::netsim::switch::CircuitSwitch;
use thymesisflow::simkit::time::SimTime;

const SECTION: u64 = 256 << 20;

fn params() -> DatapathParams {
    DatapathParams::prototype()
}

#[test]
fn fan_out_streams_every_donor_at_full_channel_rate() {
    // Three donors on three independent channels behind one compute
    // side: each sustains the single-channel ~10 GiB/s concurrently.
    let (mut fabric, paths) = FabricBuilder::fan_out(params(), 3, SECTION).unwrap();
    let loads: Vec<StreamLoad> = paths
        .iter()
        .map(|&path| StreamLoad {
            path,
            threads: 8,
            window: 32,
        })
        .collect();
    let rates = fabric
        .run_closed_loop(&loads, SimTime::from_us(100))
        .unwrap();
    assert_eq!(rates.len(), 3);
    for (i, r) in rates.iter().enumerate() {
        let gib = r.as_gib_per_sec();
        assert!(
            (8.5..=11.64).contains(&gib),
            "donor {i} streamed {gib} GiB/s"
        );
    }
}

#[test]
fn detaching_one_donor_does_not_perturb_the_survivor() {
    // Two fabrics, identical seeds. In one, donor 0 stays attached (but
    // idle); in the other it is detached before measuring. The
    // survivor's trajectory must be bit-for-bit identical: tombstoned
    // link slots keep channel indices and seeds stable.
    let (mut idle, paths_a) = FabricBuilder::fan_out(params(), 2, SECTION).unwrap();
    let (mut torn, paths_b) = FabricBuilder::fan_out(params(), 2, SECTION).unwrap();
    torn.detach_path(paths_b[0]).unwrap();

    let a = idle
        .measure_stream_bandwidth(paths_a[1], 8, 32, SimTime::from_us(100))
        .unwrap();
    let b = torn
        .measure_stream_bandwidth(paths_b[1], 8, 32, SimTime::from_us(100))
        .unwrap();
    assert_eq!(
        a.as_gib_per_sec().to_bits(),
        b.as_gib_per_sec().to_bits(),
        "survivor rate drifted: {} vs {} GiB/s",
        a.as_gib_per_sec(),
        b.as_gib_per_sec()
    );
    let ha = idle.completions(paths_a[1]).unwrap();
    let hb = torn.completions(paths_b[1]).unwrap();
    assert_eq!(ha.count(), hb.count());
    assert_eq!(ha.max(), hb.max());
}

#[test]
fn circuit_switch_costs_one_traversal_each_way() {
    let p2p_rtt = {
        let (mut fabric, path) = FabricBuilder::point_to_point(params(), 1, SECTION).unwrap();
        fabric.measure_load_latency(path).unwrap()
    };
    let (mut rack, paths) =
        FabricBuilder::circuit_rack(params(), 1, SECTION, CircuitSwitch::optical(8)).unwrap();
    // The first load waits out the 25 us circuit programming.
    let first = rack.measure_load_latency(paths[0]).unwrap();
    assert!(first >= SimTime::from_us(25), "first load {first}");
    // Steady state: the established circuit adds exactly one switch
    // traversal (30 ns) per direction on top of the direct-attach RTT.
    let steady = rack.measure_load_latency(paths[0]).unwrap();
    let extra = steady.as_ns() as i64 - p2p_rtt.as_ns() as i64;
    assert_eq!(extra, 60, "switched {steady} vs direct {p2p_rtt}");
}

#[test]
fn circuit_rack_frees_ports_on_detach() {
    let (mut rack, paths) =
        FabricBuilder::circuit_rack(params(), 2, SECTION, CircuitSwitch::optical(8)).unwrap();
    {
        let sw = rack.switch().unwrap();
        assert_eq!(sw.circuit_count(), 2);
        assert_eq!(sw.free_ports().len(), 4);
    }
    rack.detach_path(paths[0]).unwrap();
    let sw = rack.switch().unwrap();
    assert_eq!(sw.circuit_count(), 1);
    assert_eq!(sw.free_ports().len(), 6);
    // The survivor keeps streaming at the full channel rate once its
    // circuit programming (25 us) has elapsed.
    let _ = rack.measure_load_latency(paths[1]).unwrap();
    let rate = rack
        .measure_stream_bandwidth(paths[1], 8, 32, SimTime::from_us(100))
        .unwrap();
    let gib = rate.as_gib_per_sec();
    assert!((8.5..=11.64).contains(&gib), "survivor {gib} GiB/s");
}
