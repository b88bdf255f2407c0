//! One run of one workload: the untraced pass for the end-to-end metrics,
//! or (with `--trace 1`) an untraced pass followed by the traced pass for
//! the per-layer metrics, with the verifications of both.

use crate::json::Json;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::Trace;
use crate::traced;
use crate::workloads::{
    self, cycles_per_s, ns_per_flit, sweep_schemes, wall_s, Ops, Plan, SimPlan, SETUP_REPS,
    SWEEP_REPS,
};
use stcc::ControllerCounters;
use std::collections::BTreeMap;
use std::path::PathBuf;
use wormsim::Counters;

/// Everything one run reports. A metric missing from `metrics` does not
/// apply to the workload; the result line carries it as 0.
#[derive(Debug, Default)]
pub struct Report {
    pub ops: Ops,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Values that must be identical across repetitions with one seed.
    pub fingerprints: Vec<(&'static str, u64)>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn failed(&self) -> u64 {
        (self.ops.failures.len() as u64).min(self.ops.attempted)
    }
}

pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/out/trace-{workload}.jsonl"))
}

/// Runs `workload` once.
///
/// # Errors
///
/// Returns a message when the workload could not run at all (unknown
/// name, invalid configuration, missing golden file, failed sweep point).
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let plan = workloads::plan(workload, seed, seconds)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let mut report = Report::default();
    report.set("host.calib_mops", crate::host::calib_mops());
    match (&plan, traced) {
        (Plan::Sim(p), false) => sim_end_to_end(p, &mut report)?,
        (Plan::Sim(p), true) => sim_per_layer(workload, p, &mut report)?,
        (Plan::Sweep { schemes }, false) => sweep_end_to_end(*schemes, &mut report)?,
        (Plan::Sweep { schemes }, true) => sweep_per_layer(workload, *schemes, &mut report)?,
    }
    Ok(report)
}

fn sim_end_to_end(plan: &SimPlan, report: &mut Report) -> Result<(), String> {
    let pass = workloads::run_sim(plan, SETUP_REPS, &mut report.ops).map_err(|e| e.to_string())?;
    report.set("setup_s", median(&pass.setup_s));
    report.set("sim_cycles_per_s", cycles_per_s(&pass.segments));
    report.set("host_ns_per_flit", ns_per_flit(&pass.segments));
    report.set("accepted_flits_per_node_cycle", pass.accepted);
    report.set("net_latency_cycles", pass.latency);
    if let Some(mb) = pass.peak_rss_mb {
        report.set("peak_rss_mb", mb);
    }
    report
        .fingerprints
        .push(("final_checkpoint", pass.final_hash));
    Ok(())
}

fn sweep_end_to_end(schemes: usize, report: &mut Report) -> Result<(), String> {
    let pass = workloads::run_sweep(
        &sweep_schemes(schemes),
        SETUP_REPS,
        SWEEP_REPS,
        &mut report.ops,
    )?;
    report.set("setup_s", median(&pass.setup_s));
    report.set("sim_cycles_per_s", pass.cycles() as f64 / pass.wall_s);
    report.set("host_ns_per_flit", pass.wall_s * 1e9 / pass.flits());
    report.set("accepted_flits_per_node_cycle", pass.accepted());
    report.set("net_latency_cycles", pass.latency());
    if let Some(mb) = pass.peak_rss_mb {
        report.set("peak_rss_mb", mb);
    }
    report.fingerprints.push(("csv", pass.csv_hash));
    Ok(())
}

/// A per-layer metric read off a counter struct.
type Count<T> = (&'static str, fn(&T) -> u64);

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * part / whole
}

fn sim_per_layer(workload: &str, plan: &SimPlan, report: &mut Report) -> Result<(), String> {
    let untraced = workloads::run_sim(plan, 1, &mut report.ops).map_err(|e| e.to_string())?;
    let mut trace = Trace::new();
    let pass = traced::run_sim(plan, &mut trace, &mut report.ops)?;
    report.ops.check(pass.at_end.net == untraced.counters, || {
        format!(
            "traced driver ended in different counters:\n  traced   {:?}\n  untraced {:?}",
            pass.at_end.net, untraced.counters
        )
    });
    report
        .ops
        .check(pass.at_end.ctl == untraced.controller, || {
            "traced driver ended in different controller counters".to_owned()
        });

    let own = trace.self_by_name(pass.timed_root);
    let busy = trace.busy_by_name(pass.timed_root);
    let ns =
        |map: &BTreeMap<&'static str, u64>, name: &str| map.get(name).copied().unwrap_or(0) as f64;
    let timed_ns = trace.spans()[pass.timed_root].busy_ns as f64;
    let cycles = (plan.cfg.cycles - plan.cfg.warmup) as f64;
    let nodes = plan.cfg.net.node_count() as f64;
    // Counts over the timed region: end state minus the warm-up boundary.
    let (c0, c1) = (pass.at_warmup.net, pass.at_end.net);
    let net_counts: [Count<Counters>; 10] = [
        ("netsim.stage_inject_visits", |c| c.stage_inject_visits),
        ("netsim.stage_route_visits", |c| c.stage_route_visits),
        ("netsim.stage_starvation_checks", |c| {
            c.stage_starvation_checks
        }),
        ("netsim.stage_switch_visits", |c| c.stage_switch_visits),
        ("netsim.stage_drain_steps", |c| c.stage_drain_steps),
        ("netsim.recovered_packets", |c| c.recovered_packets),
        ("netsim.recovery_timeouts", |c| c.recovery_timeouts),
        ("netsim.throttled_injections", |c| c.throttled_injections),
        ("netsim.refused_generations", |c| c.refused_generations),
        ("traffic.generated_packets", |c| c.generated_packets),
    ];
    for (name, get) in net_counts {
        report.set(name, (get(&c1) - get(&c0)) as f64);
    }
    let (k0, k1) = (pass.at_warmup.ctl, pass.at_end.ctl);
    let ctl_counts: [Count<ControllerCounters>; 4] = [
        ("core.decisions", |k| k.decisions),
        ("core.raises", |k| k.raises),
        ("core.cuts", |k| k.cuts),
        ("core.resets", |k| k.resets),
    ];
    for (name, get) in ctl_counts {
        report.set(name, (get(&k1) - get(&k0)) as f64);
    }
    let visits = (c1.stage_cycles().total() - c0.stage_cycles().total()) as f64;

    let cycle_self = ns(&own, "netsim.cycle");
    report.set("netsim.cycle_self_s", cycle_self / 1e9);
    report.set("netsim.cycle_self_share_pct", pct(cycle_self, timed_ns));
    report.set("netsim.self_ns_per_visit", cycle_self / visits);
    report.set("netsim.visits_per_cycle", visits / cycles);
    report.set(
        "netsim.full_buffers_mean",
        pass.tally.census_sum as f64 / pass.tally.census_samples as f64,
    );
    report.set(
        "netsim.new_s",
        ns(&trace.busy_by_name(pass.setup_root), "netsim.new") / 1e9,
    );
    report.set("netsim.audit_ms", pass.audit_ms);
    if let Some(phase) = pass.phase {
        report.set(
            "netsim.phase_decide_ns_per_cycle",
            phase.decide_ns as f64 / cycles,
        );
        report.set(
            "netsim.phase_apply_ns_per_cycle",
            phase.apply_ns as f64 / cycles,
        );
        report.set(
            "netsim.phase_barrier_ns_per_cycle",
            phase.barrier_ns as f64 / cycles,
        );
    }
    if let Some(x) = untraced.shard_speedup {
        report.set("netsim.shard_speedup_x", x);
    }

    let poll = ns(&own, "traffic.poll");
    report.set("traffic.poll_s", poll / 1e9);
    report.set("traffic.poll_share_pct", pct(poll, timed_ns));
    report.set("traffic.poll_ns", poll / (cycles * nodes));

    let on_cycle = ns(&own, "core.on_cycle");
    report.set("core.on_cycle_s", on_cycle / 1e9);
    report.set("core.on_cycle_share_pct", pct(on_cycle, timed_ns));
    report.set("core.allow_injection_calls", pass.tally.allow_calls as f64);
    if let Some(threshold) = pass.threshold_final {
        report.set("core.threshold_final", threshold);
    }
    report.set("core.sim_new_s", median(&untraced.sim_new_s));

    if let Some(sb) = pass.sideband {
        report.set("sideband.on_cycle_ns", sb.on_cycle_ns);
        report.set("sideband.estimate_ns", sb.estimate_ns);
        report.set("sideband.gathers", sb.gathers as f64);
    }

    report.set(
        "metrics.drain_record_s",
        ns(&own, "metrics.drain_record") / 1e9,
    );
    report.set("metrics.records", pass.tally.records as f64);

    if pass.roundtrips > 0 {
        let ms_of = |name: &str| -> Vec<f64> {
            trace
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.busy_ns as f64 / 1e6)
                .collect()
        };
        let (ser, res) = (ms_of("checkpoint.serialize"), ms_of("checkpoint.restore"));
        report.set("checkpoint.serialize_ms", median(&ser));
        report.set(
            "checkpoint.serialize_ms_max",
            ser.iter().copied().fold(0.0, f64::max),
        );
        report.set("checkpoint.restore_ms", median(&res));
        report.set(
            "checkpoint.restore_ms_max",
            res.iter().copied().fold(0.0, f64::max),
        );
        report.set("checkpoint.bytes", pass.checkpoint_bytes as f64);
        report.set("checkpoint.roundtrips", pass.roundtrips as f64);
        report.set(
            "checkpoint.share_pct",
            pct(ns(&busy, "checkpoint.roundtrip"), timed_ns),
        );
    }

    report.set(
        "trace.overhead_pct",
        pct(wall_s(&pass.segments), wall_s(&untraced.segments)) - 100.0,
    );
    finish_trace(workload, &trace, report)
}

fn sweep_per_layer(workload: &str, schemes: usize, report: &mut Report) -> Result<(), String> {
    let untraced = workloads::run_sweep(&sweep_schemes(schemes), 1, 1, &mut report.ops)?;
    let mut trace = Trace::new();
    let pass = traced::run_sweep(schemes, untraced.table.rows(), &mut trace, &mut report.ops)?;
    let busy_ms: f64 = pass.point_ms.iter().sum();
    report.set("experiments.points", pass.point_ms.len() as f64);
    report.set("experiments.point_ms_p50", median(&pass.point_ms));
    report.set(
        "experiments.point_ms_max",
        pass.point_ms.iter().copied().fold(0.0, f64::max),
    );
    report.set(
        "experiments.pool_busy_share_pct",
        pct(busy_ms / 1e3, workloads::SWEEP_JOBS as f64 * pass.wall_s),
    );
    report.set("experiments.jobs1_wall_s", pass.jobs1_wall_s);
    report.set(
        "experiments.parallel_speedup_x",
        pass.jobs1_wall_s / pass.wall_s,
    );
    report.set("core.decisions", pass.ctl.decisions as f64);
    report.set("core.raises", pass.ctl.raises as f64);
    report.set("core.cuts", pass.ctl.cuts as f64);
    report.set("core.resets", pass.ctl.resets as f64);
    report.set(
        "trace.overhead_pct",
        pct(pass.wall_s, untraced.wall_s) - 100.0,
    );
    finish_trace(workload, &trace, report)
}

fn finish_trace(workload: &str, trace: &Trace, report: &mut Report) -> Result<(), String> {
    report.set("trace.spans", trace.len() as f64);
    let path = trace_path(workload);
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The metrics a run in this mode reports, in manifest order.
pub fn metrics_of(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Prints the run: one `metric` line per number by name with its unit,
/// the fingerprints and failures, and as the last line the result object.
pub fn emit(report: &Report, traced: bool) {
    let mut metrics = Vec::new();
    for m in metrics_of(traced) {
        let value = report.metrics.get(m.name).copied();
        match value {
            Some(v) => println!("metric {} {v} {}", m.name, m.unit),
            None => println!("metric {} n/a {}", m.name, m.unit),
        }
        metrics.push((
            m.name,
            Json::obj(vec![
                ("value", Json::Num(value.unwrap_or(0.0))),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    if !traced {
        println!(
            "metric host.calib_mops {} Mops/s",
            report.metrics["host.calib_mops"]
        );
    }
    for (name, hash) in &report.fingerprints {
        println!("fingerprint {name} {hash:016x}");
    }
    for failure in &report.ops.failures {
        println!("fail {}", failure.replace('\n', " | "));
    }
    println!("ops {} {}", report.ops.attempted, report.failed());
    let result = Json::obj(vec![
        ("correct", Json::Bool(report.ops.failures.is_empty())),
        ("attempted", Json::Int(report.ops.attempted)),
        ("failed", Json::Int(report.failed())),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
}
