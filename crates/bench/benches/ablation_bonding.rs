//! Ablation (§VI-C analysis) — why bonding buys ~30%, not 2×.
//!
//! Sweeps the OpenCAPI transaction size and the channel count on the
//! flit-level datapath: with the POWER9's 128 B ld/st transactions the
//! memory-side C1 engine saturates near 16 GiB/s, so the second bonded
//! channel is mostly wasted; 256 B transactions would lift the ceiling
//! to 20 GiB/s ("which cannot be used in the current ThymesisFlow design
//! as the POWER9 processor is only issuing 128 B wide ld/st
//! transactions").

use bench::{banner, header, row};
use criterion::{criterion_group, criterion_main, Criterion};
use opencapi::c1::C1Port;
use simkit::sweep::sweep;
use simkit::time::SimTime;
use thymesisflow_core::fabric::FabricBuilder;
use thymesisflow_core::params::DatapathParams;

fn reproduce() {
    banner("Ablation — bonding vs the C1 transaction-size ceiling");
    println!("C1 sustained rate vs transaction size:");
    header(&["txn bytes", "GiB/s"]);
    for bytes in [64u32, 128, 256, 512] {
        row(
            &bytes.to_string(),
            &[bytes as f64, C1Port::sustained_rate(bytes).as_gib_per_sec()],
        );
    }
    println!("\nmeasured stream bandwidth on the flit datapath:");
    header(&["channels", "GiB/s", "vs 1ch"]);
    // The channel-count axis sweeps independent datapath simulations.
    let gibs = sweep(0xAB0, vec![1usize, 2], |_i, channels, _rng| {
        let (mut fabric, path) =
            FabricBuilder::point_to_point(DatapathParams::prototype(), channels, 256 << 20)
                .expect("reference topology assembles");
        fabric
            .measure_stream_bandwidth(path, 16, 32, SimTime::from_us(150))
            .expect("reference path streams")
            .as_gib_per_sec()
    });
    let single = gibs[0];
    for (channels, gib) in [1usize, 2].iter().zip(&gibs) {
        row(
            &channels.to_string(),
            &[*channels as f64, *gib, *gib / single],
        );
    }
    println!("\npaper: ~30% improvement for bonding; 2 channels offer 2x wire rate\nbut the 128 B C1 engine sinks at most ~16 GiB/s.");
}

fn criterion_benches(c: &mut Criterion) {
    reproduce();
    c.bench_function("ablation/c1_sustained_rate", |b| {
        b.iter(|| std::hint::black_box(C1Port::sustained_rate(std::hint::black_box(128))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(300));
    targets = criterion_benches
}
criterion_main!(benches);
