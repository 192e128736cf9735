//! The two kinds of run: end-to-end (untraced, timed) and per-layer
//! (traced), each with the checks that make its numbers trustworthy.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use byzcast_core::message::WireMsg;
use byzcast_core::ResourceStats;
use byzcast_harness::{check_run, standard_oracles, RunSummary, ScenarioConfig, Workload};
use byzcast_sim::{NodeId, Simulator};

use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{self, Ledger};
use crate::workloads::Bench;

/// Simulator builds timed for `setup_s` before each timed run, so set-up
/// samples spread over the whole measuring window.
const SETUP_BUILDS_PER_RUN: usize = 3;

/// Oracles whose violation means the program produced a wrong output (as
/// opposed to a late or missing one), so the run is not correct.
const SAFETY_ORACLES: [&str; 3] = ["validity", "no-duplication", "bounded-resources"];

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// (message, correct node) pairs that should see a delivery.
    pub attempted: u64,
    /// Attempted pairs without a delivery.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Measurements printed on the report lines only, not in the result.
    pub extra: Vec<Metric>,
    /// What failed, when not correct.
    pub problems: Vec<String>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Delivery results pooled over a run's scenarios, and oracle violations
/// over the scenarios checked.
#[derive(Clone, Debug, Default)]
struct Pooled {
    attempted: u64,
    delivered: u64,
    frames: u64,
    latencies: Vec<f64>,
    /// Violations per oracle, in the standard oracles' order.
    oracles: Vec<(String, u64)>,
}

impl Pooled {
    /// Adds one scenario's summary, checking that its delivery count and
    /// p99 agree with the summary's own figures.
    fn add(&mut self, seed: u64, summary: &RunSummary, problems: &mut Vec<String>) {
        let attempted = (summary.messages * summary.correct) as u64;
        let delivered = summary.latencies_s.len() as u64;
        let ratio = if attempted == 0 {
            0.0
        } else {
            delivered as f64 / attempted as f64
        };
        if delivered > attempted || (ratio - summary.delivery_ratio).abs() > 1e-9 {
            problems.push(format!(
                "seed {seed}: {delivered} deliveries of {attempted} pairs disagree with delivery ratio {}",
                summary.delivery_ratio
            ));
        }
        if percentile(&summary.latencies_s, 0.99) != summary.p99_latency_s {
            problems.push(format!(
                "seed {seed}: p99 latency disagrees with the run summary"
            ));
        }
        self.attempted += attempted;
        self.delivered += delivered;
        self.frames += summary.frames_sent;
        self.latencies.extend_from_slice(&summary.latencies_s);
    }

    /// Runs one untimed `check_run` on `scenario`: its summary must equal
    /// `timed` (the same scenario's untraced run) and the safety oracles
    /// must find nothing. Adds the violations per oracle.
    fn check(
        &mut self,
        scenario: &ScenarioConfig,
        workload: &Workload,
        timed: &RunSummary,
        problems: &mut Vec<String>,
    ) {
        let mut summary = check_run(scenario, workload, &standard_oracles()).summary;
        let outcomes = std::mem::take(&mut summary.oracle_outcomes);
        if &summary != timed {
            problems.push(format!(
                "seed {}: check_run summary differs from the timed run's",
                scenario.seed
            ));
        }
        for (name, count) in outcomes {
            if count > 0 && SAFETY_ORACLES.contains(&name.as_str()) {
                problems.push(format!("seed {}: {count} {name} violations", scenario.seed));
            }
            match self.oracles.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += count,
                None => self.oracles.push((name, count)),
            }
        }
    }

    fn failed(&self) -> u64 {
        self.attempted - self.delivered
    }

    /// Accept-latency percentiles over every correct delivery: reported,
    /// not bounded, because they move with the placement far more than any
    /// bound allows.
    fn latency(&self) -> [Metric; 2] {
        let mut latencies = self.latencies.clone();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        [
            metric("latency_p50_s", percentile(&latencies, 0.5), "sim_s"),
            metric("latency_p99_s", percentile(&latencies, 0.99), "sim_s"),
        ]
    }

    /// Violations in total and per oracle.
    fn violations(&self) -> Vec<Metric> {
        let total = self.oracles.iter().map(|(_, c)| c).sum::<u64>();
        let mut out = vec![metric("oracle_violations", total as f64, "count")];
        for (name, count) in &self.oracles {
            out.push(metric(&format!("oracle.{name}"), *count as f64, "count"));
        }
        out
    }
}

/// One timed, untraced `ScenarioConfig::run`.
fn timed_run(scenario: &ScenarioConfig, workload: &Workload) -> (f64, RunSummary) {
    let start = Instant::now();
    let summary = black_box(scenario.run(black_box(workload)));
    (start.elapsed().as_secs_f64(), summary)
}

/// Whether another step that took `last` still fits before `deadline`.
fn fits(last: Duration, deadline: Instant) -> bool {
    Instant::now() + last <= deadline
}

/// The end-to-end run: runs the scenarios untraced in turn, timing a few
/// simulator builds before each run, for one full pass and then for as
/// long as another run fits in `budget`; then checks the first scenario
/// with one untimed `check_run`.
pub fn end_to_end(bench: &Bench, budget: Duration) -> Outcome {
    let scenarios = &bench.scenarios;
    let mut out = Outcome::default();
    let deadline = Instant::now() + budget;
    let mut setup = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); scenarios.len()];
    let mut summaries: Vec<Option<RunSummary>> = vec![None; scenarios.len()];
    for (i, (k, scenario)) in scenarios.iter().enumerate().cycle().enumerate() {
        let step = Instant::now();
        for _ in 0..SETUP_BUILDS_PER_RUN {
            let start = Instant::now();
            let sim = black_box(scenario.build_wire_sim());
            setup.push(start.elapsed().as_secs_f64());
            drop(sim);
        }
        let (wall, summary) = timed_run(scenario, &bench.workload);
        walls[k].push(wall);
        match &summaries[k] {
            Some(first) if *first != summary => out
                .problems
                .push(format!("seed {}: repeated runs differ", scenario.seed)),
            Some(_) => {}
            None => summaries[k] = Some(summary),
        }
        if i + 1 >= scenarios.len() && !fits(step.elapsed(), deadline) {
            break;
        }
    }

    let summaries: Vec<RunSummary> = summaries
        .into_iter()
        .map(|s| s.expect("every scenario ran"))
        .collect();
    let mut pool = Pooled::default();
    for (scenario, summary) in scenarios.iter().zip(&summaries) {
        pool.add(scenario.seed, summary, &mut out.problems);
    }
    pool.check(
        &scenarios[0],
        &bench.workload,
        &summaries[0],
        &mut out.problems,
    );

    let run_wall = walls.iter().map(|w| median(w)).sum::<f64>() / walls.len() as f64;
    out.push("run_wall_s", run_wall, "s");
    out.push("setup_s", median(&setup), "s");
    match peak_rss_mb() {
        Some(mb) => out.push("peak_rss_mb", mb, "MB"),
        None => out.problems.push("peak RSS is not reported".to_owned()),
    }
    out.push(
        "delivery_ratio",
        pool.delivered as f64 / pool.attempted as f64,
        "ratio",
    );
    out.push(
        "frames_per_delivery",
        pool.frames as f64 / pool.delivered as f64,
        "frames",
    );
    out.extra.extend(pool.latency());
    finish(out, &pool)
}

/// Work counts of one traced pass, summed over the run's scenarios. They
/// repeat exactly for the same inputs and program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Frames sent, by wire-message kind.
    pub frames_by_kind: BTreeMap<&'static str, u64>,
    /// Successful receptions.
    pub receptions: u64,
    /// Receptions lost to collisions.
    pub collisions: u64,
    /// Protocol callbacks, correct nodes and attackers together.
    pub callbacks: u64,
    /// Signature verifications.
    pub verify_calls: u64,
    /// Verifications answered by the cache.
    pub cache_hits: u64,
    /// Verifications that ran the verifier.
    pub cache_misses: u64,
    /// Overlay decisions of correct nodes.
    pub decide_calls: u64,
}

impl Fingerprint {
    /// The fingerprint as a one-line JSON object.
    pub fn json(&self) -> String {
        let kinds: Vec<String> = self
            .frames_by_kind
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!(
            "{{\"frames_by_kind\": {{{}}}, \"receptions\": {}, \"collisions\": {}, \"callbacks\": {}, \"verify_calls\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"decide_calls\": {}}}",
            kinds.join(", "),
            self.receptions,
            self.collisions,
            self.callbacks,
            self.verify_calls,
            self.cache_hits,
            self.cache_misses,
            self.decide_calls
        )
    }
}

/// Counts read from a finished traced simulator, summed over scenarios.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counts {
    fingerprint: Fingerprint,
    frames_sent: u64,
    noise_losses: u64,
    queue_drops: u64,
    core_callbacks: u64,
    store_peak_msgs: u64,
    store_peak_bytes: u64,
    resources: ResourceStats,
    requests: u64,
    finds: u64,
    recovered: u64,
    true_suspicions: u64,
    false_suspicions: u64,
}

impl Counts {
    fn add(&mut self, scenario: &ScenarioConfig, sim: &Simulator<WireMsg>, ledger: &Ledger) {
        let m = sim.metrics();
        let fp = &mut self.fingerprint;
        for (kind, frames) in &m.frames_by_kind {
            *fp.frames_by_kind.entry(kind).or_insert(0) += frames;
        }
        fp.receptions += m.frames_received;
        fp.collisions += m.collision_losses;
        fp.callbacks += ledger.core_calls + ledger.adversary_calls;
        fp.verify_calls += ledger.verify_calls;
        fp.decide_calls += ledger.decide_calls;
        self.frames_sent += m.frames_sent;
        self.noise_losses += m.noise_losses;
        self.queue_drops += m.queue_drops;
        self.core_callbacks += ledger.core_calls;

        let adversaries = scenario.adversary_set();
        let mut cache = None;
        for i in 0..scenario.n as u32 {
            let Some(node) = trace::core_node(sim, NodeId(i)) else {
                continue;
            };
            // One verifier (and cache) is shared by every node of a run.
            cache = cache.or(node.sig_cache_stats());
            self.store_peak_msgs = self.store_peak_msgs.max(node.store().high_water() as u64);
            self.store_peak_bytes = self.store_peak_bytes.max(node.store().peak_bytes() as u64);
            self.resources.merge(&node.resource_stats());
            let c = node.counters();
            self.requests += c.requests_sent;
            self.finds += c.finds_sent;
            self.recovered += c.recovered_via_request;
            for ep in node.suspicion_log().episodes() {
                if adversaries.contains(&ep.suspect) {
                    self.true_suspicions += 1;
                } else {
                    self.false_suspicions += 1;
                }
            }
        }
        if let Some(c) = cache {
            fp.cache_hits += c.hits;
            fp.cache_misses += c.misses;
        }
    }
}

/// One traced run: the simulator built with every layer wrapped, driven
/// through the workload.
struct Traced {
    wall_s: f64,
    ledger: Ledger,
    summary: RunSummary,
    sim: Simulator<WireMsg>,
}

fn traced_run(scenario: &ScenarioConfig, workload: &Workload) -> Traced {
    trace::reset();
    let start = Instant::now();
    let mut sim = trace::build_traced(scenario);
    scenario.drive(&mut sim, workload);
    let summary = RunSummary::from_metrics(
        scenario.protocol_label(),
        sim.metrics(),
        &scenario.correct_mask(),
    );
    let wall_s = start.elapsed().as_secs_f64();
    Traced {
        wall_s,
        ledger: trace::snapshot(),
        summary,
        sim,
    }
}

/// The simulated outputs a traced run must reproduce exactly: frames by
/// kind, collisions, delivery ratio and the full latency vector.
fn observable(s: &RunSummary) -> impl PartialEq + '_ {
    (
        &s.frame_kinds,
        s.collisions,
        s.noise_losses,
        s.delivery_ratio.to_bits(),
        &s.latencies_s,
    )
}

/// Runs `scenario` untraced and traced, and reports a difference between
/// their simulated outputs as a problem.
fn traced_pair(
    scenario: &ScenarioConfig,
    workload: &Workload,
    problems: &mut Vec<String>,
) -> (f64, RunSummary, Traced) {
    let (untraced_wall, untraced) = timed_run(scenario, workload);
    let traced = traced_run(scenario, workload);
    if observable(&traced.summary) != observable(&untraced) {
        problems.push(format!(
            "seed {}: the traced run's frames, collisions or deliveries differ from the untraced run's",
            scenario.seed
        ));
    }
    let calls = traced.ledger.verify_calls;
    let cache = trace::core_node(&traced.sim, NodeId(0)).and_then(|n| n.sig_cache_stats());
    if let Some(c) = cache.filter(|c| c.hits + c.misses != calls) {
        problems.push(format!(
            "seed {}: {calls} verify calls timed but the cache saw {}",
            scenario.seed,
            c.hits + c.misses
        ));
    }
    (untraced_wall, untraced, traced)
}

/// The work-count fingerprint of one traced pass over `bench`'s
/// scenarios, and any transparency problem found on the way.
pub fn fingerprint(bench: &Bench) -> (Fingerprint, Vec<String>) {
    let mut problems = Vec::new();
    let mut counts = Counts::default();
    for scenario in &bench.scenarios {
        let (_, _, traced) = traced_pair(scenario, &bench.workload, &mut problems);
        counts.add(scenario, &traced.sim, &traced.ledger);
    }
    (counts.fingerprint, problems)
}

/// The per-layer run: each scenario untraced and then traced, for one pass
/// and then for as long as another pass fits in `budget`, with the
/// transparency guard on every pair; then each scenario checked once with
/// the standard oracles. Times are per pass over all scenarios, averaged
/// over passes; counts are per pass.
pub fn layers(bench: &Bench, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + budget;
    let mut passes = 0u32;
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut ledger_sum = Ledger::default();
    let mut first: Option<(Counts, Vec<RunSummary>)> = None;
    loop {
        let pass = Instant::now();
        let mut counts = Counts::default();
        let mut summaries = Vec::new();
        for scenario in &bench.scenarios {
            let (wall, untraced, traced) =
                traced_pair(scenario, &bench.workload, &mut out.problems);
            untraced_s += wall;
            traced_s += traced.wall_s;
            ledger_sum += traced.ledger;
            counts.add(scenario, &traced.sim, &traced.ledger);
            summaries.push(untraced);
        }
        passes += 1;
        match &first {
            Some((c, _)) if *c != counts => out
                .problems
                .push("work counts differ between passes".to_owned()),
            Some(_) => {}
            None => first = Some((counts, summaries)),
        }
        if !fits(pass.elapsed(), deadline) {
            break;
        }
    }
    let (counts, summaries) = first.expect("at least one pass");

    let mut pool = Pooled::default();
    for (scenario, summary) in bench.scenarios.iter().zip(&summaries) {
        pool.add(scenario.seed, summary, &mut out.problems);
        pool.check(scenario, &bench.workload, summary, &mut out.problems);
    }

    let per_pass = |ns: u64| ns as f64 / 1e9 / f64::from(passes);
    let fp = &counts.fingerprint;
    let sim_self_s = traced_s / f64::from(passes) - per_pass(ledger_sum.callback_ns());
    let core_self_s = per_pass(ledger_sum.core_self_ns());
    let verify_s = per_pass(ledger_sum.verify_ns);
    let decide_s = per_pass(ledger_sum.decide_ns);
    let per_call_ns = |secs: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            secs * 1e9 / calls as f64
        }
    };
    let lookups = fp.cache_hits + fp.cache_misses;

    out.push("sim.self_s", sim_self_s, "s");
    out.push(
        "sim.ns_per_frame",
        per_call_ns(sim_self_s, counts.frames_sent),
        "ns",
    );
    out.push("sim.frames_sent", counts.frames_sent as f64, "count");
    out.push("sim.frames_received", fp.receptions as f64, "count");
    out.push("sim.collision_losses", fp.collisions as f64, "count");
    out.push("sim.noise_losses", counts.noise_losses as f64, "count");
    out.push("sim.queue_drops", counts.queue_drops as f64, "count");
    out.push("core.dispatch_self_s", core_self_s, "s");
    out.push("core.callbacks", counts.core_callbacks as f64, "count");
    out.push(
        "core.ns_per_callback",
        per_call_ns(core_self_s, counts.core_callbacks),
        "ns",
    );
    out.push(
        "core.store.peak_msgs",
        counts.store_peak_msgs as f64,
        "count",
    );
    out.push("core.store.peak_bytes", counts.store_peak_bytes as f64, "B");
    let r = &counts.resources;
    out.push(
        "core.resources.frames_dropped",
        r.frames_dropped as f64,
        "count",
    );
    out.push(
        "core.resources.verifs_dropped",
        r.verifs_dropped as f64,
        "count",
    );
    out.push(
        "core.resources.store_rejects",
        r.store_rejects as f64,
        "count",
    );
    out.push("core.recovery.requests", counts.requests as f64, "count");
    out.push("core.recovery.finds", counts.finds as f64, "count");
    out.push("core.recovery.recovered", counts.recovered as f64, "count");
    out.push("crypto.verify_calls", fp.verify_calls as f64, "count");
    out.push("crypto.verify_s", verify_s, "s");
    out.push(
        "crypto.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            fp.cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    out.push("overlay.decide_calls", fp.decide_calls as f64, "count");
    out.push("overlay.decide_s", decide_s, "s");
    out.push(
        "overlay.ns_per_decide",
        per_call_ns(decide_s, fp.decide_calls),
        "ns",
    );
    out.push("fd.true_suspicions", counts.true_suspicions as f64, "count");
    out.push(
        "fd.false_suspicions",
        counts.false_suspicions as f64,
        "count",
    );
    out.push(
        "adversary.self_s",
        per_pass(ledger_sum.adversary_self_ns()),
        "s",
    );
    out.push(
        "trace.overhead_s",
        (traced_s - untraced_s) / f64::from(passes),
        "s",
    );
    out.metrics.extend(pool.latency());
    out.metrics.extend(pool.violations());
    finish(out, &pool)
}

fn finish(mut out: Outcome, pool: &Pooled) -> Outcome {
    out.attempted = pool.attempted;
    out.failed = pool.failed();
    if pool.attempted == 0 || pool.delivered == 0 {
        out.problems.push("nothing was delivered".to_owned());
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("{} is not finite", m.name));
        }
    }
    out.correct = out.problems.is_empty();
    out
}
