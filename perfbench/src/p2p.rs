//! `p2p_stream`: the paper's bonded point-to-point read stream, driven
//! load by load through `Fabric::issue_read` and `Fabric::step`.
//!
//! Nearly all host time goes to the event queue and the fabric
//! handlers; rack, control plane, routing, SLO/obs polling and
//! parallel fan-out do no work here, so a gain in those layers must
//! read as no change on this workload. Its inputs do not depend on the
//! seed: the stream is the paper's fixed reference shape.

use std::time::Instant;

use simkit::bandwidth::Rate;
use simkit::time::SimTime;
use thymesisflow_core::fabric::{Completion, Fabric, FabricError, PathId};
use thymesisflow_core::{DatapathParams, FabricBuilder};

use crate::bench::{Judged, Layer, Model, Workload};
use crate::trace::Tracer;
use crate::{alloc, stats};

/// Bonded channels.
const CHANNELS: usize = 2;
/// Attached window.
const BYTES: u64 = 256 << 20;
/// Reader threads.
const THREADS: u32 = 16;
/// Outstanding cachelines per thread.
const WINDOW: u32 = 32;
/// Simulated span of one iteration's closed loop.
const SPAN: SimTime = SimTime::from_us(2_000);
/// Loads one iteration retires, with headroom (about 270k at 15.9 GiB/s).
const TAG_CAPACITY: usize = 1 << 19;

/// Paper reference: bonded stream, ~15 GiB/s (EXPERIMENTS.md E2).
const PAPER_STREAM_GIB_S: f64 = 15.0;
/// Paper reference: remote load-to-use, ~1.06 µs (EXPERIMENTS.md E2).
const PAPER_LOAD_TO_USE_NS: f64 = 1060.0;

/// The configuration the provenance hash covers.
pub const CONFIG: &str = "p2p_stream point_to_point(prototype) channels=2 bytes=268435456 threads=16 window=32 span_us=2000 closed_loop";

/// A fresh fabric plus the per-tag retirement tally, pre-sized so the
/// tally never allocates inside the timed span.
pub struct Ready {
    fabric: Fabric,
    path: PathId,
    tally: Vec<u8>,
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Out {
    /// Sustained rate over the span, as `Fabric::run_closed_loop` computes it.
    pub gib_s: f64,
    /// Retirements seen per issued tag, in issue order.
    pub tally: Vec<u8>,
    /// Completions for tags never issued in this iteration.
    pub strays: u64,
    /// Typed faults the fabric recorded (none on a lossless stream).
    pub faults: usize,
    /// Events the fabric processed.
    pub events: u64,
}

/// The workload, with the reference figures computed once per run.
pub struct P2pStream {
    reference_gib_s: f64,
    load_to_use_ns: u64,
    traced_ops: u64,
}

fn build() -> Result<(Fabric, PathId), FabricError> {
    FabricBuilder::point_to_point(DatapathParams::prototype(), CHANNELS, BYTES)
}

impl P2pStream {
    /// Measures the references on fresh fabrics:
    /// `Fabric::measure_stream_bandwidth` over the same span, and one
    /// uncontended load-to-use probe.
    pub fn new() -> Result<Self, FabricError> {
        let (mut fabric, path) = build()?;
        let reference = fabric.measure_stream_bandwidth(path, THREADS, WINDOW, SPAN)?;
        let (mut fabric, path) = build()?;
        let load_to_use = fabric.measure_load_latency(path)?;
        Ok(P2pStream {
            reference_gib_s: reference.as_gib_per_sec(),
            load_to_use_ns: load_to_use.as_ns(),
            traced_ops: 0,
        })
    }
}

fn issue(fabric: &mut Fabric, path: PathId, tr: &mut Tracer) -> Result<u64, FabricError> {
    if !tr.on() {
        return fabric.issue_read(path);
    }
    let a = alloc::snap();
    let t = Instant::now();
    let tag = fabric.issue_read(path);
    let ns = stats::ns(t.elapsed());
    let b = alloc::snap();
    tr.fold(
        "fabric.issue_read",
        ns,
        0,
        b.allocs - a.allocs,
        b.bytes - a.bytes,
    );
    tag
}

fn step(fabric: &mut Fabric, tr: &mut Tracer) -> Result<Option<Vec<Completion>>, FabricError> {
    if !tr.on() {
        return fabric.step();
    }
    let events = fabric.events_processed();
    let a = alloc::snap();
    let t = Instant::now();
    let done = fabric.step();
    let ns = stats::ns(t.elapsed());
    let b = alloc::snap();
    let events = fabric.events_processed() - events;
    tr.fold(
        "fabric.step",
        ns,
        events,
        b.allocs - a.allocs,
        b.bytes - a.bytes,
    );
    done
}

impl Out {
    fn note_issued(&mut self, first: u64, tag: u64) {
        if tag.checked_sub(first) == Some(self.tally.len() as u64) {
            self.tally.push(0);
        } else {
            self.strays += 1;
        }
    }

    fn note_retired(&mut self, first: u64, done: &[Completion]) {
        for c in done {
            match usize::try_from(c.tag.wrapping_sub(first))
                .ok()
                .and_then(|i| self.tally.get_mut(i))
            {
                Some(n) => *n = n.saturating_add(1),
                None => self.strays += 1,
            }
        }
    }
}

/// Judges one iteration against the reference rate: every issued tag
/// retires exactly once, nothing faults, and the rate is bit-identical.
/// An op is one retired load; a failed check fails every op.
pub fn judge(reference_gib_s: f64, out: &Out) -> Judged {
    let attempted = out.tally.len() as u64;
    let once = out.tally.iter().filter(|&&n| n == 1).count() as u64;
    let mut failures = Vec::new();
    if out.gib_s.to_bits() != reference_gib_s.to_bits() {
        failures.push(format!(
            "stream rate {} GiB/s differs from measure_stream_bandwidth {} GiB/s",
            out.gib_s, reference_gib_s
        ));
    }
    if once != attempted || out.strays != 0 {
        failures.push(format!(
            "{} of {attempted} tags retired exactly once, {} stray completions",
            once, out.strays
        ));
    }
    if out.faults != 0 {
        failures.push(format!("{} typed faults on a lossless stream", out.faults));
    }
    Judged::new(once, attempted, failures)
}

impl Workload for P2pStream {
    type Ready = Ready;
    type Out = Out;

    fn setup(&mut self, _tr: &mut Tracer) -> Result<Ready, String> {
        let (fabric, path) = build().map_err(|e| e.to_string())?;
        Ok(Ready {
            fabric,
            path,
            tally: Vec::with_capacity(TAG_CAPACITY),
        })
    }

    /// The closed loop of `Fabric::run_closed_loop`, then a drain so
    /// every issued load retires.
    fn run(&mut self, ready: Ready, tr: &mut Tracer) -> Result<Out, String> {
        let Ready {
            mut fabric,
            path,
            tally,
        } = ready;
        let err = |e: FabricError| e.to_string();
        let mut out = Out {
            gib_s: 0.0,
            tally,
            strays: 0,
            faults: 0,
            events: 0,
        };
        let start = fabric.now();
        let deadline = start + SPAN;
        let start_bytes = fabric.completed_bytes(path).map_err(err)?;
        let first = issue(&mut fabric, path, tr).map_err(err)?;
        out.note_issued(first, first);
        for _ in 1..(THREADS * WINDOW) {
            let tag = issue(&mut fabric, path, tr).map_err(err)?;
            out.note_issued(first, tag);
        }
        while let Some(done) = step(&mut fabric, tr).map_err(err)? {
            out.note_retired(first, &done);
            if fabric.now() >= deadline {
                break;
            }
            for _ in &done {
                let tag = issue(&mut fabric, path, tr).map_err(err)?;
                out.note_issued(first, tag);
            }
        }
        let elapsed = fabric.now().min(deadline) - start;
        let bytes = fabric.completed_bytes(path).map_err(err)? - start_bytes;
        #[allow(clippy::cast_precision_loss)]
        let rate = Rate::from_bytes_per_sec(bytes as f64 / elapsed.as_secs_f64());
        out.gib_s = rate.as_gib_per_sec();
        while let Some(done) = step(&mut fabric, tr).map_err(err)? {
            out.note_retired(first, &done);
        }
        out.faults = fabric.faults().len();
        out.events = fabric.events_processed();
        Ok(out)
    }

    fn judge(&mut self, out: &Out, traced: bool) -> Judged {
        let judged = judge(self.reference_gib_s, out);
        if traced {
            self.traced_ops += judged.ops;
        }
        judged
    }

    fn digest(&self, out: &Out) -> String {
        format!(
            "gib_s={:016x} loads={} events={}",
            out.gib_s.to_bits(),
            out.tally.len(),
            out.events
        )
    }

    fn model(&self, out: &Out) -> Vec<Model> {
        vec![
            Model::checked("model.stream_gib_s", out.gib_s, "GiB/s", PAPER_STREAM_GIB_S),
            Model::checked(
                "model.load_to_use_ns",
                self.load_to_use_ns as f64,
                "ns",
                PAPER_LOAD_TO_USE_NS,
            ),
        ]
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        let (mut calls, mut ns, mut events, mut allocs, mut bytes) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for s in tr.sliced("fabric.step") {
            calls += s.calls;
            ns += s.ns;
            events += s.events;
            allocs += s.allocs;
            bytes += s.bytes;
        }
        let (issues, issue_ns) = tr
            .sliced("fabric.issue_read")
            .fold((0u64, 0u64), |(c, n), s| (c + s.calls, n + s.ns));
        vec![
            ("fabric.step.ns_per_event", stats::ratio(ns, events)),
            (
                "fabric.events_per_load",
                stats::ratio(events, self.traced_ops),
            ),
            ("fabric.events_per_step", stats::ratio(events, calls)),
            ("fabric.step.allocs_per_event", stats::ratio(allocs, events)),
            ("fabric.step.bytes_per_event", stats::ratio(bytes, events)),
            ("fabric.issue_read.ns", stats::ratio(issue_ns, issues)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out() -> Out {
        Out {
            gib_s: 15.5,
            tally: vec![1; 4],
            strays: 0,
            faults: 0,
            events: 40,
        }
    }

    #[test]
    fn a_corrupted_stream_fails_every_load() {
        let good = judge(15.5, &out());
        assert!(good.failures.is_empty(), "{:?}", good.failures);
        assert_eq!((good.ops, good.attempted, good.failed), (4, 4, 0));

        let mut twice = out();
        twice.tally[2] = 2;
        assert_eq!(judge(15.5, &twice).failed, 4);

        let mut lost = out();
        lost.tally[0] = 0;
        assert_eq!(judge(15.5, &lost).failed, 4);

        let mut stray = out();
        stray.strays = 1;
        assert_eq!(judge(15.5, &stray).failed, 4);

        assert_eq!(
            judge(f64::from_bits(15.5f64.to_bits() + 1), &out()).failed,
            4
        );
    }
}
