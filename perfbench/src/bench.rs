//! The measurement loop shared by every workload.
//!
//! Each iteration sets the system up afresh (timed as `setup_s`), runs
//! the workload's fixed simulated work (the timed span), and judges its
//! outputs. Iterations repeat until the run's host-time budget is spent.
//! Because each iteration replays the same seeded inputs on a fresh
//! system, its op count, allocation count and simulated outputs must
//! repeat exactly; the loop checks that as well.
//!
//! After each timed span the host-speed probe runs, and `setup_s` and
//! `ops_per_s` are scaled to the reference host speed (see `probe`).
//!
//! In a traced run, iterations alternate untraced and traced, so the
//! tracing overhead is measured on the same host at the same time.

use std::time::{Duration, Instant};

use crate::trace::{self_times, Tracer};
use crate::{alloc, probe, stats};

/// A per-layer metric: name and value.
pub type Layer = (&'static str, f64);

/// One iteration's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Judged {
    /// Ops that succeeded (what `ops_per_s` counts).
    pub ops: u64,
    /// Ops attempted. A typed fault or refusal is attempted, not failed.
    pub attempted: u64,
    /// Ops failed: every op of an iteration with a failed check.
    pub failed: u64,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl Judged {
    /// A verdict; with any failure, every op fails and none succeeds.
    pub fn new(ops: u64, attempted: u64, failures: Vec<String>) -> Self {
        let attempted = attempted.max(1);
        let (ops, failed) = if failures.is_empty() {
            (ops, 0)
        } else {
            (0, attempted)
        };
        Judged {
            ops,
            attempted,
            failed,
            failures,
        }
    }
}

/// A simulated output printed beside the paper's reference.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Metric name (`model.*`).
    pub name: &'static str,
    /// Simulated value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The paper's figure, if one exists.
    pub paper: Option<f64>,
}

impl Model {
    /// A model output with a paper reference.
    pub fn checked(name: &'static str, value: f64, unit: &'static str, paper: f64) -> Self {
        Model {
            name,
            value,
            unit,
            paper: Some(paper),
        }
    }

    /// A model output no paper figure validates.
    pub fn unvalidated(name: &'static str, value: f64, unit: &'static str) -> Self {
        Model {
            name,
            value,
            unit,
            paper: None,
        }
    }

    /// `name = value unit (paper …, error …)`.
    pub fn line(&self) -> String {
        match self.paper {
            Some(p) => format!(
                "{} = {} {} (paper ~{} {}, error {:+.1}%)",
                self.name,
                self.value,
                self.unit,
                p,
                self.unit,
                (self.value - p) / p * 100.0
            ),
            None => format!(
                "{} = {} {} (unvalidated: the paper gives no reference)",
                self.name, self.value, self.unit
            ),
        }
    }
}

/// One workload: set up, run the timed span, judge the outputs.
pub trait Workload {
    /// The assembled system handed from setup to the timed span.
    type Ready;
    /// What the timed span produced.
    type Out;

    /// Assembles the system under test.
    fn setup(&mut self, tr: &mut Tracer) -> Result<Self::Ready, String>;
    /// The timed span.
    fn run(&mut self, ready: Self::Ready, tr: &mut Tracer) -> Result<Self::Out, String>;
    /// Checks one iteration's outputs.
    fn judge(&mut self, out: &Self::Out, traced: bool) -> Judged;
    /// A digest of the simulated outputs; equal on every iteration.
    fn digest(&self, out: &Self::Out) -> String;
    /// Simulated outputs to print beside the paper's references.
    fn model(&self, out: &Self::Out) -> Vec<Model>;
    /// Per-layer metrics from the traced iterations.
    fn layers(&self, tr: &Tracer) -> Vec<Layer>;
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops attempted over every iteration.
    pub attempted: u64,
    /// Ops failed over every iteration.
    pub failed: u64,
    /// Failed checks, with their iteration.
    pub failures: Vec<String>,
    /// Iterations run.
    pub iterations: u32,
    /// Ops per iteration (deterministic).
    pub ops_per_iteration: u64,
    /// Setup seconds at reference host speed, per untraced iteration.
    pub setup_s: Vec<f64>,
    /// Ops per second at reference host speed, per untraced iteration.
    pub ops_per_s: Vec<f64>,
    /// Ops per host second as measured, per untraced iteration.
    pub raw_ops_per_s: Vec<f64>,
    /// Ops per second at reference host speed, per traced iteration.
    pub traced_ops_per_s: Vec<f64>,
    /// Host-speed probe seconds, per iteration.
    pub probe_s: Vec<f64>,
    /// Allocations per op, per untraced iteration.
    pub allocs_per_op: Vec<f64>,
    /// Live-heap high-water in the timed span, per untraced iteration.
    pub peak_heap_bytes: Vec<f64>,
    /// Model outputs of the first iteration.
    pub model: Vec<Model>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Layer>,
}

/// Fewest iterations a run makes, whatever its budget.
const MIN_ITERATIONS: u32 = 4;

/// Runs `w` until `budget` host time is spent. With `trace`, odd
/// iterations are traced. Stops at the first iteration that fails.
/// Returns the outcome and the tracer holding the traced spans.
pub fn measure<W: Workload>(w: &mut W, budget: Duration, trace: bool) -> (Outcome, Tracer) {
    let mut tr = Tracer::new();
    let mut out = Outcome::default();
    let mut first_digest: Option<String> = None;
    let start = Instant::now();
    let mut iter = 0u32;
    while iter < MIN_ITERATIONS || start.elapsed() < budget {
        let traced = trace && iter % 2 == 1;
        tr.set_on(traced);
        tr.set_iter(iter);
        let t = Instant::now();
        let open = tr.open("setup");
        let ready = w.setup(&mut tr);
        tr.close(open);
        let setup = t.elapsed();
        let ready = match ready {
            Ok(r) => r,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.failures
                    .push(format!("iteration {iter}: setup failed: {e}"));
                break;
            }
        };
        alloc::reset_peak();
        let before = alloc::snap();
        let open = tr.open("iteration");
        let t = Instant::now();
        let ran = w.run(ready, &mut tr);
        let span = t.elapsed();
        tr.close(open);
        let after = alloc::snap();
        let peak = alloc::peak();
        let ran = match ran {
            Ok(r) => r,
            Err(e) => {
                out.attempted += out.ops_per_iteration.max(1);
                out.failed += out.ops_per_iteration.max(1);
                out.failures.push(format!("iteration {iter}: {e}"));
                break;
            }
        };
        let probe_s = probe::seconds();
        let judged = w.judge(&ran, traced);
        let digest = w.digest(&ran);
        let mut failures = judged.failures;
        match &first_digest {
            None => {
                out.model = w.model(&ran);
                out.ops_per_iteration = judged.ops;
                first_digest = Some(digest);
            }
            Some(first) => {
                if *first != digest {
                    failures.push(format!(
                        "outputs differ from iteration 0: {digest} vs {first}"
                    ));
                }
                if judged.ops != out.ops_per_iteration {
                    failures.push(format!(
                        "{} ops, iteration 0 made {}",
                        judged.ops, out.ops_per_iteration
                    ));
                }
            }
        }
        let judged = Judged::new(judged.ops, judged.attempted, failures);
        out.attempted += judged.attempted;
        out.failed += judged.failed;
        out.iterations += 1;
        // Host-time metrics are scaled to the reference host speed.
        let speed = probe_s / probe::REFERENCE_S;
        #[allow(clippy::cast_precision_loss)]
        let raw_ops_per_s = judged.ops as f64 / span.as_secs_f64();
        out.probe_s.push(probe_s);
        if traced {
            out.traced_ops_per_s.push(raw_ops_per_s * speed);
        } else {
            out.setup_s.push(setup.as_secs_f64() / speed);
            out.ops_per_s.push(raw_ops_per_s * speed);
            out.raw_ops_per_s.push(raw_ops_per_s);
            out.allocs_per_op.push(stats::ratio(
                after.allocs - before.allocs,
                judged.ops.max(1),
            ));
            #[allow(clippy::cast_precision_loss)]
            out.peak_heap_bytes.push(peak as f64);
        }
        if !judged.failures.is_empty() {
            out.failures.extend(
                judged
                    .failures
                    .iter()
                    .map(|f| format!("iteration {iter}: {f}")),
            );
            break;
        }
        iter += 1;
    }
    if trace && out.failures.is_empty() {
        out.layers = w.layers(&tr);
        out.layers.extend(common_layers(&tr, &out));
        out.layers
            .extend(out.model.iter().map(|m| (m.name, m.value)));
    }
    (out, tr)
}

/// `bench.driver_share` and `bench.trace_overhead_frac`.
fn common_layers(tr: &Tracer, out: &Outcome) -> Vec<Layer> {
    let (mut total, mut own) = (0u64, 0u64);
    let spans = tr.spans();
    let self_ns = self_times(spans);
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "iteration")
    {
        total += s.ns();
        let folded: u64 = tr
            .slices()
            .iter()
            .filter(|sl| sl.iter == s.iter)
            .map(|sl| sl.ns)
            .sum();
        own += self_ns[i].saturating_sub(folded);
    }
    let traced = stats::median(&out.traced_ops_per_s);
    let untraced = stats::median(&out.ops_per_s);
    let overhead = if untraced > 0.0 {
        1.0 - traced / untraced
    } else {
        0.0
    };
    vec![
        ("bench.driver_share", stats::ratio(own, total)),
        ("bench.trace_overhead_frac", overhead),
    ]
}

/// Share of traced iteration time spent in direct children of the
/// iteration span whose name satisfies `pick`.
pub fn child_share(tr: &Tracer, pick: impl Fn(&str) -> bool) -> f64 {
    let spans = tr.spans();
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == "iteration")
        .map(|s| s.ns())
        .sum();
    let inside: u64 = spans
        .iter()
        .filter(|s| pick(s.name))
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "iteration"))
        .map(|s| s.ns())
        .sum();
    stats::ratio(inside, total)
}

/// Durations (ns) of every span named `name`.
pub fn durations(tr: &Tracer, name: &str) -> Vec<u64> {
    tr.named(name).map(|s| s.ns()).collect()
}

/// Allocations of every span named `name`.
pub fn allocations(tr: &Tracer, name: &str) -> Vec<u64> {
    tr.named(name).map(|s| s.allocs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_fails_every_op() {
        let ok = Judged::new(10, 10, Vec::new());
        assert_eq!((ok.ops, ok.failed), (10, 0));
        let bad = Judged::new(10, 10, vec!["corrupt".into()]);
        assert_eq!((bad.ops, bad.failed), (0, 10));
    }
}
