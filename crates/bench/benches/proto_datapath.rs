//! §V prototype numbers — measured on the flit-level datapath.
//!
//! The paper reports a hardware datapath flit RTT of ~950 ns (four FPGA
//! stack crossings + six serDES crossings), a 12.5 GB/s per-channel
//! ceiling, and a memory-side C1 limit near 16 GiB/s with the POWER9's
//! 128 B transactions. This harness *measures* all three on the
//! discrete-event datapath instead of assuming them.

use bench::{banner, compare};
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::sweep::sweep;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{Fabric, FabricBuilder, PathId};
use thymesisflow_core::params::DatapathParams;

/// The reference point-to-point fabric with `channels` bonded channels.
fn p2p(channels: usize) -> (Fabric, PathId) {
    FabricBuilder::point_to_point(DatapathParams::prototype(), channels, 256 << 20)
        .expect("reference topology assembles")
}

fn reproduce() {
    banner("§V prototype — flit RTT, channel saturation, C1 ceiling");
    let params = DatapathParams::prototype();
    compare(
        "analytic flit RTT",
        950.0,
        params.flit_rtt().as_ns_f64(),
        "ns",
    );
    let (mut fabric, path) = p2p(1);
    let load = fabric
        .measure_load_latency(path)
        .expect("lossless probe completes");
    compare(
        "measured load-to-use (RTT+DRAM)",
        950.0 + params.dram_latency_ns as f64,
        load.as_ns_f64(),
        "ns",
    );
    // The stream measurements are independent simulations — fan them
    // with the sweep harness (grid order: single-channel, then bonded).
    let streams = sweep(
        0x960,
        vec![(1usize, 8u32), (2, 16)],
        |_i, (channels, threads), _rng| {
            let (mut fabric, path) = p2p(channels);
            fabric
                .measure_stream_bandwidth(path, threads, 32, SimTime::from_us(200))
                .expect("reference path streams")
                .as_gib_per_sec()
        },
    );
    let (single, bonded) = (streams[0], streams[1]);
    compare("single-channel read stream", 11.64, single, "GiB/s");
    compare("bonded read stream (C1 cap)", 16.0, bonded, "GiB/s");
    compare(
        "C1 sustained @128B",
        16.0,
        params.c1_sustained_rate().as_gib_per_sec(),
        "GiB/s",
    );
    compare(
        "bonding gain",
        1.30,
        bonded / single,
        "x",
    );
    assert!((900.0..=1000.0).contains(&params.flit_rtt().as_ns_f64()));
    assert!(bonded > single * 1.15, "bonding must help");
    assert!(bonded < 17.0, "C1 cap must bite");
    assert!(
        (950.0..=1200.0).contains(&load.as_ns_f64()),
        "load-to-use {load} off the ~950 ns prototype envelope"
    );
    assert!(
        (8.5..=11.64).contains(&single),
        "single-channel stream {single} GiB/s off the ~10 GiB/s prototype envelope"
    );
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("proto/single_load_rtt_sim", |b| {
        b.iter(|| {
            let (mut fabric, path) = p2p(1);
            std::hint::black_box(fabric.measure_load_latency(path))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
