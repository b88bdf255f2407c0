//! The benchmark's definition: workloads, metrics, bounds. `BENCHMARK.json`
//! at the repository root is generated from these tables (`run.sh
//! --manifest`), so the file the driver reads and the numbers the program
//! prints cannot drift apart.

use crate::json::Json;

/// Seconds one run measures for at nominal scale. Every cycle count in
/// [`crate::workloads`] is stated for this many seconds on the reference
/// host and scaled linearly by `--seconds / RUN_SECONDS`.
pub const RUN_SECONDS: u64 = 5;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` the value `new` is worse (negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (base - new) / base,
            Better::Lower => (new - base) / base,
        }
    }
}

/// One reported number. `simulated` metrics are produced by the modelled
/// network and repeat exactly for a given seed; the others are host time
/// or host memory.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    pub simulated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    simulated: bool,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        simulated,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        simulated: false,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. Measured with tracing off.
/// `failed_ops_share` is not in this list because the contract asks for
/// metrics that are never 0: it is `failed / attempted` of the result line
/// and the suite prints it under that name.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.25, false),
    e2e("host_ns_per_flit", "ns/flit", Lower, 0.25, false),
    e2e(
        "accepted_flits_per_node_cycle",
        "flits/node/cycle",
        Higher,
        0.25,
        true,
    ),
    e2e("net_latency_cycles", "cycles", Lower, 0.25, true),
    e2e("peak_rss_mb", "MB", Lower, 0.15, false),
];

/// Single layers, from the traced pass. A value of 0 on a workload that
/// does not exercise the layer means "not applicable" (see README).
pub const PER_LAYER: &[Metric] = &[
    layer("netsim.cycle_self_s", "s", Lower),
    layer("netsim.cycle_self_share_pct", "%", Lower),
    layer("netsim.self_ns_per_visit", "ns", Lower),
    layer("netsim.stage_inject_visits", "count", Lower),
    layer("netsim.stage_route_visits", "count", Lower),
    layer("netsim.stage_starvation_checks", "count", Lower),
    layer("netsim.stage_switch_visits", "count", Lower),
    layer("netsim.stage_drain_steps", "count", Lower),
    layer("netsim.visits_per_cycle", "count", Lower),
    layer("netsim.recovered_packets", "count", Lower),
    layer("netsim.recovery_timeouts", "count", Lower),
    layer("netsim.throttled_injections", "count", Lower),
    layer("netsim.refused_generations", "count", Lower),
    layer("netsim.full_buffers_mean", "count", Lower),
    layer("netsim.new_s", "s", Lower),
    layer("netsim.audit_ms", "ms", Lower),
    layer("netsim.phase_decide_ns_per_cycle", "ns", Lower),
    layer("netsim.phase_apply_ns_per_cycle", "ns", Lower),
    layer("netsim.phase_barrier_ns_per_cycle", "ns", Lower),
    layer("netsim.shard_speedup_x", "x", Higher),
    layer("traffic.poll_s", "s", Lower),
    layer("traffic.poll_share_pct", "%", Lower),
    layer("traffic.poll_ns", "ns", Lower),
    layer("traffic.generated_packets", "count", Higher),
    layer("core.on_cycle_s", "s", Lower),
    layer("core.on_cycle_share_pct", "%", Lower),
    layer("core.allow_injection_calls", "count", Lower),
    layer("core.decisions", "count", Higher),
    layer("core.raises", "count", Higher),
    layer("core.cuts", "count", Lower),
    layer("core.resets", "count", Lower),
    layer("core.threshold_final", "count", Higher),
    layer("core.sim_new_s", "s", Lower),
    layer("sideband.on_cycle_ns", "ns", Lower),
    layer("sideband.estimate_ns", "ns", Lower),
    layer("sideband.gathers", "count", Higher),
    layer("metrics.drain_record_s", "s", Lower),
    layer("metrics.records", "count", Higher),
    layer("checkpoint.serialize_ms", "ms", Lower),
    layer("checkpoint.serialize_ms_max", "ms", Lower),
    layer("checkpoint.restore_ms", "ms", Lower),
    layer("checkpoint.restore_ms_max", "ms", Lower),
    layer("checkpoint.bytes", "count", Lower),
    layer("checkpoint.roundtrips", "count", Higher),
    layer("checkpoint.share_pct", "%", Lower),
    layer("experiments.points", "count", Higher),
    layer("experiments.point_ms_p50", "ms", Lower),
    layer("experiments.point_ms_max", "ms", Lower),
    layer("experiments.pool_busy_share_pct", "%", Higher),
    layer("experiments.jobs1_wall_s", "s", Lower),
    layer("experiments.parallel_speedup_x", "x", Higher),
    layer("host.calib_mops", "Mops/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

/// One benchmark workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "sat_tune",
        why: "paper 16-ary 2-cube saturated under the self-tuned throttle: netsim does ~all the work with every stage busy, controller and side-band live each cycle",
    },
    WorkloadSpec {
        name: "sat_base_avoid",
        why: "same load with Duato avoidance and no control: bypasses core/sideband and the recovery path, so a controller change must not move it but a switch/route change must",
    },
    WorkloadSpec {
        name: "light_tune",
        why: "below the knee the pipeline is nearly idle, so per-cycle fixed costs (traffic polling, controller hook) dominate and arbitration speed-ups should show nothing",
    },
    WorkloadSpec {
        name: "cube3_tune_s2",
        why: "12-ary 3-cube (1728 nodes) on 2 shards: dynamic routing past the table limit, tens of MB of state and the shard pool/barrier on the blocking path",
    },
    WorkloadSpec {
        name: "resume_storm",
        why: "checkpoint then restore into a fresh simulation every 250 cycles: the kill/resume cadence as a user pays it, over half of it codec, rebuild and audit",
    },
    WorkloadSpec {
        name: "sweep_zoo_jobs2",
        why: "the controller-zoo figure sweep through the 2-job runner pool: per-point set-up, every controller law and pattern, what regenerating a figure costs",
    },
];

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.label())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// The contents of the root `BENCHMARK.json`.
pub fn manifest() -> String {
    let doc = Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ]);
    let mut out = doc.pretty();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
    }

    /// The committed manifest is the generated one (skipped in a checkout
    /// that has no root file yet).
    #[test]
    fn committed_manifest_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(committed, manifest(), "run benchmark/run.sh --manifest");
        }
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
