//! The repository benchmark: three seeded workloads against the
//! simulator's public API, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload p2p_stream --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A run whose output
//! checks fail prints the failures to standard error, exits 1, and
//! prints no such line.

mod alloc;
mod bench;
mod churn;
mod fleet;
mod p2p;
mod probe;
mod stats;
mod torus;
mod trace;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use bench::{Outcome, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics: name and unit, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("allocs_per_op", "count"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics: name and unit. Every workload prints every one;
/// a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("fabric.step.ns_per_event", "ns"),
    ("fabric.events_per_load", "event/load"),
    ("fabric.events_per_step", "event/step"),
    ("fabric.step.allocs_per_event", "alloc/event"),
    ("fabric.step.bytes_per_event", "B/event"),
    ("fabric.issue_read.ns", "ns"),
    ("rack.run_fleet_streams.ns_per_event", "ns"),
    ("rack.run_fleet_streams.share", "ratio"),
    ("rack.run_fleet_streams.allocs_per_event", "alloc/event"),
    ("rack.evaluate_slos.us", "us"),
    ("rack.evaluate_slos.share", "ratio"),
    ("obs.poll.us", "us"),
    ("obs.poll.share", "ratio"),
    ("obs.hottest_link.us", "us"),
    ("rack.chaos.us", "us"),
    ("rack.chaos.share", "ratio"),
    ("rack.other.share", "ratio"),
    ("rack.attach.us_p50", "us"),
    ("rack.attach.us_p99", "us"),
    ("rack.detach.us_p50", "us"),
    ("rack.detach.us_p99", "us"),
    ("rack.measure_lease_rtt.us", "us"),
    ("rack.attach.allocs", "alloc/call"),
    ("rack.detach.allocs", "alloc/call"),
    ("rack.retained_bytes_per_cycle", "B/cycle"),
    ("rack.journal_records", "count"),
    ("bench.driver_share", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("model.stream_gib_s", "GiB/s"),
    ("model.load_to_use_ns", "ns"),
    ("model.hot_p99_ns", "ns"),
    ("model.breaches", "count"),
    ("model.hop_stall_ns", "ns"),
    ("model.credit_stalls", "count"),
    ("bench.iterations", "count"),
    ("bench.traced_iterations", "count"),
    ("bench.ops_per_iteration", "count"),
    ("bench.traced_ops_per_s", "op/s"),
    ("bench.untraced_ops_per_s", "op/s"),
    ("bench.raw_ops_per_s", "op/s"),
    ("bench.probe_ms", "ms"),
];

/// The workloads, with the configuration each one's provenance hashes.
const WORKLOADS: [(&str, &str); 3] = [
    ("p2p_stream", p2p::CONFIG),
    ("fleet_chaos", fleet::CONFIG),
    ("rack_churn", churn::CONFIG),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

/// The first line of a command's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance stamp every output carries, as one JSON object.
fn provenance(args: &Args, config: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let workers = if args.workload == "fleet_chaos" {
        fleet::WORKERS
    } else {
        1
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"config_hash\":\"{:016x}\",\"git_rev\":\"{}\",\"rustc\":\"{}\",\"nproc\":{nproc},\"workers\":{workers},\"traced\":{},\"seconds\":{}}}",
        args.workload,
        args.seed,
        stats::fnv1a(config.as_bytes()),
        tool_line("git", &["rev-parse", "HEAD"]),
        tool_line("rustc", &["--version"]),
        args.trace,
        args.seconds,
    )
}

fn measure(args: &Args) -> Result<(Outcome, trace::Tracer), String> {
    let budget = Duration::from_secs(args.seconds);
    fn go<W: Workload>(mut w: W, budget: Duration, trace: bool) -> (Outcome, trace::Tracer) {
        bench::measure(&mut w, budget, trace)
    }
    Ok(match args.workload.as_str() {
        "p2p_stream" => go(
            p2p::P2pStream::new().map_err(|e| e.to_string())?,
            budget,
            args.trace,
        ),
        "fleet_chaos" => go(fleet::FleetChaos::new(args.seed)?, budget, args.trace),
        _ => go(churn::RackChurn::new(args.seed)?, budget, args.trace),
    })
}

/// The metrics the result line carries.
fn metrics(args: &Args, out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    if !args.trace {
        let values = [
            stats::median(&out.setup_s),
            stats::median(&out.ops_per_s),
            stats::median(&out.allocs_per_op),
            stats::median(&out.peak_heap_bytes) / f64::from(1u32 << 20),
        ];
        return END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
    }
    let bench_rows = [
        ("bench.iterations", f64::from(out.iterations)),
        ("bench.traced_iterations", out.traced_ops_per_s.len() as f64),
        ("bench.ops_per_iteration", out.ops_per_iteration as f64),
        (
            "bench.traced_ops_per_s",
            stats::median(&out.traced_ops_per_s),
        ),
        ("bench.untraced_ops_per_s", stats::median(&out.ops_per_s)),
        ("bench.raw_ops_per_s", stats::median(&out.raw_ops_per_s)),
        ("bench.probe_ms", stats::median(&out.probe_s) * 1e3),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .layers
                .iter()
                .chain(bench_rows.iter())
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, unit, value)
        })
        .collect()
}

fn result_line(out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let mut line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <p2p_stream|fleet_chaos|rack_churn> --seed <n> --seconds <1..60> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let config = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, c)| c);
    let stamp = provenance(&args, config);
    let started = Instant::now();
    let (out, tr) = match measure(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {stamp}");
            eprintln!("perfbench: {} could not start: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let failed_frac = stats::ratio(out.failed, out.attempted);
    let summary = format!(
        "{} seed {}: {} iterations in {:.1} s, {} ops each, {} op/s as measured, probe {} ms; attempted {} failed {} failed_frac {failed_frac}",
        args.workload,
        args.seed,
        out.iterations,
        started.elapsed().as_secs_f64(),
        out.ops_per_iteration,
        stats::median(&out.raw_ops_per_s),
        stats::median(&out.probe_s) * 1e3,
        out.attempted,
        out.failed,
    );
    if !out.failures.is_empty() || out.failed != 0 {
        eprintln!("perfbench: {stamp}");
        eprintln!("perfbench: {summary}");
        for f in &out.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        return ExitCode::FAILURE;
    }
    if args.trace {
        let name = format!("{}-seed{}.spans.jsonl", args.workload, args.seed);
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from);
        if let Err(e) = tr.write_jsonl(&dir.join("perfbench").join(name), &stamp) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
    let metrics = metrics(&args, &out);
    println!("# provenance {stamp}");
    println!("# {summary}");
    for m in &out.model {
        println!("# {}", m.line());
    }
    for (name, unit, value) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", result_line(&out, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload rack_churn --seed 9 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "rack_churn".into(),
                seed: 9,
                seconds: 20,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload p2p_stream --trace 2")).is_err());
        assert!(parse(&argv("--workload p2p_stream --seconds 0")).is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"name\"").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _) in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
