//! `fleet_chaos`: the `FleetScenario::standard` story driven through
//! `Rack`'s public calls, so each call can be timed.
//!
//! A 4×4 torus with 8 SLO leases, 2 000 zipf(1.0) clients and 12 churn
//! tenants dealt from the seed; steady → peak → recovery, where peak
//! cuts the hot route, fails a bonded lane and crashes a donor
//! mid-burst; every 20 µs window closed by `Rack::evaluate_slos` and a
//! `Recorder` poll. Multi-hop hop chains, reroute and recovery, the
//! rack layer, SLO/obs polling and the fan-out of
//! `Rack::run_fleet_streams` all carry weight here: this is where a
//! rack, obs or parallelism gain shows.
//!
//! This module mirrors `workloads::fleet` step for step. Its report must
//! be byte-identical to `FleetScenario::standard(seed).run(1)`, which
//! checks the port and the 1-vs-2-worker determinism at once.

use std::collections::BTreeMap;

use dcsim::churn::{phase_churn, ChurnTenant};
use dcsim::trace::TraceParams;
use simkit::obs::{PhaseClock, Recorder};
use simkit::rng::{DetRng, ZipfSampler};
use simkit::time::SimTime;
use simkit::units::{f64_to_u64_saturating, GIB};
use thymesisflow_core::attach::LeaseId;
use thymesisflow_core::fabric::{ChaosPlan, SloBreach, SloSpec};
use thymesisflow_core::rack::{LeaseResolution, Rack, RackError};
use thymesisflow_core::AttachRequest;
use workloads::fleet::{
    BreachEntry, ChurnStats, FleetReport, FleetScenario, HottestLink, LeaseSummary, PhaseSummary,
    TrafficClass,
};

use crate::bench::{self, Judged, Layer, Model, Workload};
use crate::trace::Tracer;
use crate::{stats, torus};

/// Worker threads for `Rack::run_fleet_streams`.
pub const WORKERS: usize = 2;

/// Chaos lands this far into its phase (as in `workloads::fleet`).
const CHAOS_LEAD: SimTime = SimTime::from_us(5);

/// The configuration the provenance hash covers.
pub const CONFIG: &str = "fleet_chaos FleetScenario::standard torus=4x4 leases=8 clients=2000 zipf=1.0 churn=12 window_us=20 phases=steady:100us@1.0,peak:120us@1.25+cut+lane+crash(n23),recovery:80us@0.6 workers=2";

/// The base fleet: two leases contending over one hot route plus one
/// pair per remaining row, classes rotating, one bonded.
const PLAN: [(&str, &str, bool); 8] = [
    ("n00", "n02", false),
    ("n00", "n02", false),
    ("n10", "n12", true),
    ("n11", "n13", false),
    ("n20", "n22", false),
    ("n21", "n23", false),
    ("n30", "n32", false),
    ("n31", "n33", false),
];

/// The seed's generated inputs: the zipf client deal over the base
/// leases and the churn tenants' schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Clients dealt to each base lease.
    pub clients: [u64; PLAN.len()],
    /// Churn tenants on the phase grid.
    pub churn: Vec<ChurnTenant>,
}

/// Deals the seed's inputs exactly as `FleetScenario::run` does.
pub fn inputs(scenario: &FleetScenario) -> Inputs {
    let mut clients = [0u64; PLAN.len()];
    let mut rng = DetRng::split_stream(scenario.seed, 0);
    let sampler = ZipfSampler::new(PLAN.len() as u64, scenario.hot_theta);
    for _ in 0..scenario.clients {
        clients[usize::try_from(sampler.sample(&mut rng)).unwrap_or(0)] += 1;
    }
    let churn = phase_churn(
        &TraceParams::default(),
        scenario.seed ^ 0x5eed,
        scenario.churn_tenants,
        scenario.phases.len(),
    );
    Inputs { clients, churn }
}

/// The class's closed-loop shape: (window, clients per thread, max threads).
fn shape(class: TrafficClass) -> (u32, f64, f64) {
    match class {
        TrafficClass::Ycsb => (8, 50.0, 16.0),
        TrafficClass::Memcached => (4, 40.0, 24.0),
        TrafficClass::Search => (16, 100.0, 8.0),
    }
}

#[derive(Debug, Clone)]
struct FleetLease {
    id: LeaseId,
    class: TrafficClass,
    borrower: String,
    donor: String,
    bonded: bool,
    clients: u64,
    poisoned: bool,
}

#[derive(Debug, Clone)]
struct ChurnLease {
    id: LeaseId,
    poisoned: bool,
}

/// The assembled rack and its base fleet.
pub struct Ready {
    rack: Rack,
    leases: Vec<FleetLease>,
}

/// What one iteration produced.
pub struct Out {
    rack: Rack,
    report: FleetReport,
    events_at_start: u64,
}

/// Everything the checks read, gathered from one iteration's rack.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Per borrower fabric: (host, issued, retired, faulted, refused).
    pub loads: Vec<(String, u64, u64, u64, u64)>,
    /// The report as JSON.
    pub json: String,
    /// Breaches per phase, as (phase, kind).
    pub breaches: Vec<(String, String)>,
}

/// Judges one iteration: loads are conserved on every fabric, the
/// chaos ladder breaches (an availability breach among them, none in
/// the steady phase), and the report is byte-identical to the
/// reference. An op is one retired load.
pub fn judge(reference_json: &str, facts: &Facts) -> Judged {
    let mut failures = Vec::new();
    let (mut issued, mut retired) = (0u64, 0u64);
    for (host, i, r, f, x) in &facts.loads {
        issued += i;
        retired += r;
        if *i != r + f + x {
            failures.push(format!(
                "{host}: issued {i} != retired {r} + faulted {f} + refused {x}"
            ));
        }
    }
    if facts.breaches.is_empty() {
        failures.push("the chaos ladder breached no contract".into());
    }
    if !facts
        .breaches
        .iter()
        .any(|(_, kind)| kind == "availability")
    {
        failures.push("no availability breach".into());
    }
    if facts.breaches.iter().any(|(phase, _)| phase == "steady") {
        failures.push("a breach landed in the steady phase".into());
    }
    if facts.json != reference_json {
        failures.push("report differs from FleetScenario::standard(seed).run(1)".into());
    }
    Judged::new(retired, issued, failures)
}

/// The workload.
pub struct FleetChaos {
    scenario: FleetScenario,
    inputs: Inputs,
    reference_json: String,
    rfs_events: u64,
    events: u64,
    retired: u64,
    journal_records: usize,
}

impl FleetChaos {
    /// Deals the seed's inputs and runs the library scenario once on
    /// one worker as the reference report.
    pub fn new(seed: u64) -> Result<Self, String> {
        let scenario = FleetScenario::standard(seed);
        let reference = scenario.run(1).map_err(|e| format!("{e:?}"))?;
        Ok(FleetChaos {
            inputs: inputs(&scenario),
            scenario,
            reference_json: reference.to_json(),
            rfs_events: 0,
            events: 0,
            retired: 0,
            journal_records: 0,
        })
    }
}

/// Events processed so far across every borrower fabric.
fn fleet_events(rack: &Rack) -> u64 {
    torus::hosts()
        .iter()
        .filter_map(|h| rack.fabric(h))
        .map(|f| f.events_processed())
        .sum()
}

/// Turns on the load counters (not span tracing) of a fabric that has
/// none, so load conservation can be checked on every fabric.
fn count_loads(rack: &mut Rack, host: &str) {
    if let Some(f) = rack.fabric_mut(host) {
        if !f.telemetry_enabled() {
            f.set_telemetry(true);
            f.set_tracing(false);
        }
    }
}

fn stream_loads(
    leases: &[FleetLease],
    churn: &BTreeMap<u64, ChurnLease>,
    load: f64,
) -> Vec<(LeaseId, u32, u32)> {
    let mut out = Vec::with_capacity(leases.len() + churn.len());
    for lease in leases.iter().filter(|l| !l.poisoned) {
        let (window, per_thread, max_threads) = shape(lease.class);
        #[allow(clippy::cast_precision_loss)]
        let raw = lease.clients as f64 * load / per_thread;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let threads = raw.round().clamp(1.0, max_threads) as u32;
        out.push((lease.id, threads, window));
    }
    for lease in churn.values().filter(|l| !l.poisoned) {
        out.push((lease.id, 1, 2));
    }
    out
}

/// `(count, p99, p999)` of the lease's completions plus its faults.
#[allow(clippy::type_complexity)]
fn lease_counters(rack: &Rack, id: LeaseId) -> Option<((u64, u64, u64), u64)> {
    let path = rack.lease_path(id)?;
    let lease = rack.leases().find(|l| l.id() == id)?;
    let fabric = rack.fabric(lease.compute())?;
    let h = fabric.completions(path).ok()?;
    let faulted = fabric.faults().iter().filter(|f| f.path == path).count() as u64;
    Some(((h.count(), h.quantile(0.99), h.quantile(0.999)), faulted))
}

fn fleet_completed(rack: &Rack, leases: &[FleetLease], churn: &BTreeMap<u64, ChurnLease>) -> u64 {
    let base = leases.iter().filter(|l| !l.poisoned).map(|l| l.id);
    let extra = churn.values().filter(|l| !l.poisoned).map(|l| l.id);
    base.chain(extra)
        .filter_map(|id| lease_counters(rack, id))
        .map(|((count, _, _), _)| count)
        .sum()
}

fn push_breaches(ledger: &mut Vec<BreachEntry>, phase: &str, breaches: Vec<SloBreach>) {
    ledger.extend(breaches.into_iter().map(|b| BreachEntry {
        phase: phase.to_string(),
        lease: b.lease,
        kind: b.kind.name().to_string(),
        at_ns: b.at.as_ns(),
        detail: b.kind.to_string(),
    }));
}

fn route_link(rack: &Rack, id: LeaseId, borrower: &str, index: usize) -> Option<String> {
    let path = rack.lease_path(id)?;
    let fabric = rack.fabric(borrower)?;
    let names = fabric.topology_link_names();
    let route = fabric.topology_route(path)?;
    let link = route
        .links
        .get(index)
        .or_else(|| route.links.last())
        .copied()?;
    names.get(link).cloned()
}

/// Schedules a named link rung on `borrower`'s fabric.
fn schedule(
    rack: &mut Rack,
    tr: &mut Tracer,
    borrower: &str,
    id: LeaseId,
    index: usize,
    lane: bool,
) -> Option<String> {
    let link = route_link(rack, id, borrower, index)?;
    let fabric = rack.fabric_mut(borrower)?;
    let at = fabric.now() + CHAOS_LEAD;
    let plan = if lane {
        ChaosPlan::new().lane_fail_named(at, &link)
    } else {
        ChaosPlan::new().link_down_named(at, &link)
    };
    tr.span("fabric.schedule_chaos", || fabric.schedule_chaos(&plan));
    Some(format!(
        "{}:{link}",
        if lane { "lane_fail" } else { "link_down" }
    ))
}

/// Crashes `host` and re-points or poisons the leases it served.
fn crash(
    rack: &mut Rack,
    tr: &mut Tracer,
    host: &str,
    leases: &mut [FleetLease],
    churn: &mut BTreeMap<u64, ChurnLease>,
) -> Result<String, RackError> {
    let faults = tr.span("rack.crash_donor", || rack.crash_donor(host))?;
    let mut faulted_loads = 0usize;
    for fault in &faults {
        faulted_loads += fault.loads_faulted;
        match &fault.resolution {
            LeaseResolution::Migrated {
                lease: new_id,
                donor,
            } => {
                for l in leases.iter_mut().filter(|l| l.id == fault.lease) {
                    l.id = *new_id;
                    l.donor = donor.clone();
                }
                for l in churn.values_mut().filter(|l| l.id == fault.lease) {
                    l.id = *new_id;
                }
            }
            LeaseResolution::Poisoned => {
                for l in leases.iter_mut().filter(|l| l.id == fault.lease) {
                    l.poisoned = true;
                }
                for l in churn.values_mut().filter(|l| l.id == fault.lease) {
                    l.poisoned = true;
                }
            }
        }
    }
    Ok(format!(
        "donor_crash:{host} ({} leases, {faulted_loads} loads faulted)",
        faults.len()
    ))
}

fn summarize(rack: &Rack, lease: &FleetLease) -> LeaseSummary {
    let ((completed, p99_ns, p999_ns), faulted) =
        lease_counters(rack, lease.id).unwrap_or(((0, 0, 0), 0));
    let total = completed + faulted;
    #[allow(clippy::cast_precision_loss)]
    let availability = if total == 0 {
        1.0
    } else {
        completed as f64 / total as f64
    };
    LeaseSummary {
        lease: lease.id.0,
        class: lease.class.name().to_string(),
        borrower: lease.borrower.clone(),
        donor: lease.donor.clone(),
        clients: lease.clients,
        p99_ns,
        p999_ns,
        availability,
        completed,
        faulted,
    }
}

impl FleetChaos {
    /// One `run_fleet_streams` call, with its events counted when traced.
    fn streams(
        &mut self,
        rack: &mut Rack,
        tr: &mut Tracer,
        loads: &[(LeaseId, u32, u32)],
        span: SimTime,
        drain: bool,
    ) -> Result<(), RackError> {
        let before = if tr.on() { fleet_events(rack) } else { 0 };
        tr.span("rack.run_fleet_streams", || {
            if drain {
                rack.run_fleet_streams(loads, span, WORKERS)
            } else {
                rack.run_fleet_streams_undrained(loads, span, WORKERS)
            }
        })?;
        if tr.on() {
            self.rfs_events += fleet_events(rack) - before;
        }
        Ok(())
    }

    /// Closes a window: SLO judgement into the ledger.
    fn judge_window(
        rack: &mut Rack,
        tr: &mut Tracer,
        ledger: &mut Vec<BreachEntry>,
        phase: &str,
    ) -> Result<(), RackError> {
        let breaches = tr.span("rack.evaluate_slos", || rack.evaluate_slos())?;
        push_breaches(ledger, phase, breaches);
        Ok(())
    }

    /// Calibration, the phase ladder and the report: the body of
    /// `FleetScenario::run` after populate.
    #[allow(clippy::too_many_lines)]
    fn ladder(
        &mut self,
        rack: &mut Rack,
        mut leases: Vec<FleetLease>,
        tr: &mut Tracer,
    ) -> Result<FleetReport, RackError> {
        let s = self.scenario.clone();
        let hot_borrower = leases[0].borrower.clone();
        let mut recorder = Recorder::new(s.window, 64);
        let mut churn: BTreeMap<u64, ChurnLease> = BTreeMap::new();
        let mut churn_stats = ChurnStats::default();

        // Calibrate at the ladder's top load factor.
        let top = s.phases.iter().map(|p| p.load).fold(1.0f64, f64::max);
        let loads = stream_loads(&leases, &churn, top);
        self.streams(rack, tr, &loads, s.window + s.window, true)?;
        for lease in &leases {
            let q = tr.span("rack.query", || lease_counters(rack, lease.id));
            let Some(((count, p99, p999), _)) = q else {
                continue;
            };
            if count == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let spec = SloSpec::new()
                .p99(SimTime::from_ns_f64(p99 as f64 * s.p99_margin))
                .p999(SimTime::from_ns_f64(p999 as f64 * s.p99_margin))
                .availability(s.availability_floor);
            tr.span("rack.set_lease_slo", || rack.set_lease_slo(lease.id, spec))?;
        }
        let _ = tr.span("rack.evaluate_slos", || rack.evaluate_slos())?;

        let clock = PhaseClock::new(s.phases.iter().map(|p| (p.name.clone(), p.duration)));
        let mut ledger: Vec<BreachEntry> = Vec::new();
        let mut phase_rows: Vec<PhaseSummary> = Vec::new();
        let mut cursor = SimTime::ZERO;
        for (phase, segment) in s.phases.iter().zip(clock.phases()) {
            let index = phase_rows.len();
            for tenant in &self.inputs.churn {
                if tenant.arrive_phase == index {
                    let row = usize::try_from(tenant.id).unwrap_or(0) % torus::SIDE;
                    let gib = f64_to_u64_saturating((tenant.mem_fraction * 8.0).ceil()).clamp(1, 8);
                    let borrower = torus::node(row, 2);
                    let req = AttachRequest::new(&borrower, &torus::node(row, 3), gib * GIB);
                    let spec = SloSpec::new().availability(s.availability_floor);
                    match tr.span("rack.attach", || rack.attach_with_slo(req, spec)) {
                        Ok(lease) => {
                            count_loads(rack, &borrower);
                            churn.insert(
                                tenant.id,
                                ChurnLease {
                                    id: lease.id(),
                                    poisoned: false,
                                },
                            );
                            churn_stats.attached += 1;
                        }
                        Err(_) => churn_stats.skipped += 1,
                    }
                }
                if tenant.depart_phase == index {
                    if let Some(lease) = churn.remove(&tenant.id) {
                        tr.span("rack.detach", || rack.detach(lease.id))?;
                        churn_stats.detached += 1;
                    }
                }
            }
            // Link rungs are fabric events landing mid-window; a donor
            // crash waits for one undrained slice so it faults loads.
            let mut chaos_applied: Vec<String> = Vec::new();
            let mut crashes: Vec<String> = Vec::new();
            for rung in &phase.chaos {
                let note = match rung {
                    workloads::fleet::FleetChaos::CutHotRoute => {
                        let open = tr.open("rack.chaos");
                        let note = schedule(rack, tr, &hot_borrower, leases[0].id, 1, false);
                        tr.close(open);
                        note
                    }
                    workloads::fleet::FleetChaos::DegradeHotLane => {
                        let open = tr.open("rack.chaos");
                        let target = leases
                            .iter()
                            .find(|l| l.bonded && !l.poisoned)
                            .map(|l| (l.id, l.borrower.clone()));
                        let note = target
                            .and_then(|(id, borrower)| schedule(rack, tr, &borrower, id, 0, true));
                        tr.close(open);
                        note
                    }
                    workloads::fleet::FleetChaos::CrashDonor(host) => {
                        crashes.push(host.clone());
                        None
                    }
                };
                chaos_applied.extend(note);
            }
            let completed_before = tr.span("rack.query", || fleet_completed(rack, &leases, &churn));
            let mut windows = 0u64;
            let before = ledger.len();
            if !crashes.is_empty() {
                let slice = s.window.min(segment.end.saturating_sub(cursor));
                let loads = stream_loads(&leases, &churn, phase.load);
                if !loads.is_empty() {
                    self.streams(rack, tr, &loads, slice, false)?;
                    cursor += slice;
                    windows += 1;
                }
                for host in &crashes {
                    let open = tr.open("rack.chaos");
                    let note = crash(rack, tr, host, &mut leases, &mut churn);
                    tr.close(open);
                    chaos_applied.push(note?);
                }
                Self::judge_window(rack, tr, &mut ledger, &phase.name)?;
            }
            while cursor < segment.end {
                let slice = s.window.min(segment.end.saturating_sub(cursor));
                let loads = stream_loads(&leases, &churn, phase.load);
                if loads.is_empty() {
                    break;
                }
                self.streams(rack, tr, &loads, slice, true)?;
                cursor += slice;
                windows += 1;
                if let Some(fabric) = rack.fabric_mut(&hot_borrower) {
                    if recorder.due(fabric.now()) {
                        let open = tr.open("obs.poll");
                        let snap =
                            tr.span("fabric.telemetry_snapshot", || fabric.telemetry_snapshot());
                        tr.span("obs.recorder.record", || recorder.record(snap));
                        tr.close(open);
                    }
                }
                Self::judge_window(rack, tr, &mut ledger, &phase.name)?;
            }
            let completed = tr.span("rack.query", || fleet_completed(rack, &leases, &churn));
            phase_rows.push(PhaseSummary {
                name: phase.name.clone(),
                load: phase.load,
                start_ns: segment.start.as_ns(),
                end_ns: segment.end.as_ns(),
                windows,
                completed: completed.saturating_sub(completed_before),
                breaches: (ledger.len() - before) as u64,
                chaos: chaos_applied,
            });
        }

        let lease_rows = tr.span("rack.query", || {
            leases.iter().map(|l| summarize(rack, l)).collect()
        });
        let hottest = tr
            .span("obs.hottest_link", || rack.hottest_link())
            .map(|(host, link)| HottestLink {
                host,
                link: link.name.clone(),
                utilization: link.utilization,
                stall_ns: link.stall_ns,
                frames: link.frames(),
            });
        let retired_per_window = recorder
            .deltas("fabric.loads.retired")
            .iter()
            .map(|&(_, d)| d)
            .collect();
        Ok(FleetReport {
            scenario: s.name.clone(),
            seed: s.seed,
            clients: s.clients,
            topology: format!("{}x{}-torus", torus::SIDE, torus::SIDE),
            leases: lease_rows,
            phases: phase_rows,
            breaches: ledger,
            hottest,
            churn: churn_stats,
            hot_lease_retired_per_window: retired_per_window,
        })
    }
}

/// Reads the facts the checks need off one iteration's rack.
fn facts(out: &Out) -> Facts {
    let loads = torus::hosts()
        .into_iter()
        .filter_map(|h| {
            let f = out.rack.fabric(&h)?;
            let snap = f.telemetry().snapshot(f.now());
            let count = |path: &str| snap.counter(path).unwrap_or(0);
            Some((
                h,
                count("fabric.loads.issued"),
                count("fabric.loads.retired"),
                f.faults().len() as u64,
                f.injects_refused(),
            ))
        })
        .collect();
    Facts {
        loads,
        json: out.report.to_json(),
        breaches: out
            .report
            .breaches
            .iter()
            .map(|b| (b.phase.clone(), b.kind.clone()))
            .collect(),
    }
}

/// (summed stall ns, summed credit stalls) over every fleet link.
fn congestion(rack: &Rack) -> (u64, u64) {
    rack.fleet_congestion()
        .values()
        .flat_map(|r| r.links().iter())
        .fold((0, 0), |(ns, n), l| (ns + l.stall_ns, n + l.credit_stalls))
}

impl Workload for FleetChaos {
    type Ready = Ready;
    type Out = Out;

    fn setup(&mut self, tr: &mut Tracer) -> Result<Ready, String> {
        let err = |e: RackError| format!("{e:?}");
        let mut rack = tr.span("rack.build", torus::build).map_err(err)?;
        rack.set_observability(true);
        let floor = self.scenario.availability_floor;
        let mut leases = Vec::with_capacity(PLAN.len());
        for (i, &(borrower, donor, bonded)) in PLAN.iter().enumerate() {
            let mut req = AttachRequest::new(borrower, donor, 8 * GIB);
            if bonded {
                req = req.bonded();
            }
            let spec = SloSpec::new().availability(floor);
            let lease = tr
                .span("rack.attach", || rack.attach_with_slo(req, spec))
                .map_err(err)?;
            leases.push(FleetLease {
                id: lease.id(),
                class: TrafficClass::ALL[i % TrafficClass::ALL.len()],
                borrower: borrower.to_string(),
                donor: donor.to_string(),
                bonded,
                clients: self.inputs.clients[i],
                poisoned: false,
            });
        }
        rack.set_lease_telemetry(leases[0].id, true).map_err(err)?;
        for (borrower, _, _) in PLAN {
            count_loads(&mut rack, borrower);
        }
        Ok(Ready { rack, leases })
    }

    fn run(&mut self, ready: Ready, tr: &mut Tracer) -> Result<Out, String> {
        let Ready { mut rack, leases } = ready;
        let events_at_start = fleet_events(&rack);
        let report = self
            .ladder(&mut rack, leases, tr)
            .map_err(|e| format!("{e:?}"))?;
        Ok(Out {
            rack,
            report,
            events_at_start,
        })
    }

    fn judge(&mut self, out: &Out, _traced: bool) -> Judged {
        let facts = facts(out);
        let judged = judge(&self.reference_json, &facts);
        self.events = fleet_events(&out.rack) - out.events_at_start;
        self.retired = facts.loads.iter().map(|l| l.2).sum();
        self.journal_records = out.rack.journal().len();
        judged
    }

    fn digest(&self, out: &Out) -> String {
        let (stall_ns, stalls) = congestion(&out.rack);
        format!(
            "report={:016x} stall_ns={stall_ns} credit_stalls={stalls} journal={}",
            stats::fnv1a(out.report.to_json().as_bytes()),
            out.rack.journal().len()
        )
    }

    fn model(&self, out: &Out) -> Vec<Model> {
        let (stall_ns, stalls) = congestion(&out.rack);
        let hot_p99 = out.report.leases.first().map_or(0, |l| l.p99_ns);
        vec![
            Model::unvalidated("model.hot_p99_ns", hot_p99 as f64, "ns"),
            Model::unvalidated("model.breaches", out.report.breaches.len() as f64, "count"),
            Model::unvalidated("model.hop_stall_ns", stall_ns as f64, "ns"),
            Model::unvalidated("model.credit_stalls", stalls as f64, "count"),
        ]
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        let rfs: Vec<_> = tr.named("rack.run_fleet_streams").collect();
        let rfs_ns: u64 = rfs.iter().map(|s| s.ns()).sum();
        let rfs_allocs: u64 = rfs.iter().map(|s| s.allocs).sum();
        let attach = bench::durations(tr, "rack.attach");
        let detach = bench::durations(tr, "rack.detach");
        let named = [
            "rack.run_fleet_streams",
            "rack.evaluate_slos",
            "obs.poll",
            "rack.chaos",
        ];
        vec![
            (
                "fabric.events_per_load",
                stats::ratio(self.events, self.retired),
            ),
            (
                "rack.run_fleet_streams.ns_per_event",
                stats::ratio(rfs_ns, self.rfs_events),
            ),
            (
                "rack.run_fleet_streams.allocs_per_event",
                stats::ratio(rfs_allocs, self.rfs_events),
            ),
            (
                "rack.run_fleet_streams.share",
                bench::child_share(tr, |n| n == named[0]),
            ),
            (
                "rack.evaluate_slos.share",
                bench::child_share(tr, |n| n == named[1]),
            ),
            ("obs.poll.share", bench::child_share(tr, |n| n == named[2])),
            (
                "rack.chaos.share",
                bench::child_share(tr, |n| n == named[3]),
            ),
            (
                "rack.other.share",
                bench::child_share(tr, |n| !named.contains(&n)),
            ),
            (
                "rack.evaluate_slos.us",
                stats::mean_scaled(&bench::durations(tr, "rack.evaluate_slos"), 1e3),
            ),
            (
                "obs.poll.us",
                stats::mean_scaled(&bench::durations(tr, "obs.poll"), 1e3),
            ),
            (
                "obs.hottest_link.us",
                stats::mean_scaled(&bench::durations(tr, "obs.hottest_link"), 1e3),
            ),
            (
                "rack.chaos.us",
                stats::mean_scaled(&bench::durations(tr, "rack.chaos"), 1e3),
            ),
            (
                "rack.attach.us_p50",
                stats::quantile(&attach, 0.5) as f64 / 1e3,
            ),
            (
                "rack.attach.us_p99",
                stats::quantile(&attach, 0.99) as f64 / 1e3,
            ),
            (
                "rack.detach.us_p50",
                stats::quantile(&detach, 0.5) as f64 / 1e3,
            ),
            (
                "rack.detach.us_p99",
                stats::quantile(&detach, 0.99) as f64 / 1e3,
            ),
            (
                "rack.attach.allocs",
                stats::mean_scaled(&bench::allocations(tr, "rack.attach"), 1.0),
            ),
            (
                "rack.detach.allocs",
                stats::mean_scaled(&bench::allocations(tr, "rack.detach"), 1.0),
            ),
            ("rack.journal_records", self.journal_records as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_fixes_the_deal() {
        let a = inputs(&FleetScenario::standard(42));
        assert_eq!(a, inputs(&FleetScenario::standard(42)));
        assert_ne!(a, inputs(&FleetScenario::standard(43)));
        assert_eq!(a.clients.iter().sum::<u64>(), 2_000);
        assert_eq!(a.churn.len(), 12);
    }

    fn facts() -> Facts {
        Facts {
            loads: vec![("n00".into(), 10, 7, 2, 1)],
            json: "{}".into(),
            breaches: vec![("peak".into(), "availability".into())],
        }
    }

    #[test]
    fn a_corrupted_report_fails_every_load() {
        let good = judge("{}", &facts());
        assert!(good.failures.is_empty(), "{:?}", good.failures);
        assert_eq!((good.ops, good.attempted), (7, 10));

        let mut lost = facts();
        lost.loads[0].2 = 6;
        assert_eq!(judge("{}", &lost).failed, 10);

        let mut steady = facts();
        steady.breaches.push(("steady".into(), "p99".into()));
        assert_eq!(judge("{}", &steady).failed, 10);

        let mut quiet = facts();
        quiet.breaches[0].1 = "p99".into();
        assert_eq!(judge("{}", &quiet).failed, 10);

        assert_eq!(judge("{\"x\":1}", &facts()).failed, 10);
    }
}
