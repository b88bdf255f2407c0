//! Figure 7: performance under the bursty load.
//!
//! Delivered throughput vs time for `Base`, `ALO` and `Tune` under the
//! Figure 6 workload, with deadlock recovery (a) and avoidance (b), plus the
//! average packet latencies the paper quotes in the text. The shape to
//! reproduce: Base and ALO ramp up at each burst and then collapse into deep
//! saturation (the recovery configuration drains its backlog long after the
//! burst ends); Tune delivers sustained throughput and far lower latency.

use crate::figures::fig6;
use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{Scale, SweepCtx, Table};
use stcc::{Scheme, SimConfig};
use wormsim::{DeadlockMode, NetConfig};

/// The six (deadlock mode, scheme) combinations the bursty figures run.
fn combos() -> Vec<(DeadlockMode, &'static str, Scheme)> {
    let mut v = Vec::new();
    for (mode, mode_name) in [
        (DeadlockMode::PAPER_RECOVERY, "recovery"),
        (DeadlockMode::Avoidance, "avoidance"),
    ] {
        for scheme in [Scheme::Base, Scheme::Alo, Scheme::tuned_paper()] {
            v.push((mode, mode_name, scheme));
        }
    }
    v
}

/// Runs the six bursty traces, fanned across `ctx`'s pool. Each row is one
/// time window; the `latency` columns repeat each run's whole-run averages
/// on every row of that run (self-describing CSV).
///
/// # Errors
///
/// Returns the first failing trace.
pub fn generate(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 7 — bursty-load performance (throughput vs time; run-average latencies)",
        &[
            "deadlock",
            "scheme",
            "t",
            "tput_flits",
            "avg_net_latency",
            "avg_total_latency",
            "recovered",
        ],
    );
    let cycles = fig6::cycles(scale);
    let window = (cycles / 90).max(1);
    let rows = ctx.try_run_rows(
        combos(),
        |(_, mode_name, scheme)| format!("fig7 {mode_name} {}", scheme.label()),
        |(mode, mode_name, scheme)| {
            let cfg = SimConfig {
                net: NetConfig::paper(mode),
                workload: fig6::workload(scale),
                scheme: scheme.clone(),
                // The time series covers the whole run; latencies skip the
                // first (quiet) phase as warm-up.
                cycles,
                warmup: scale.bursty_phase() / 2,
                seed: 0xF16_0007,
            };
            let r = ctx.try_run_series(cfg, window)?;
            Ok::<_, JobError>(
                r.tput
                    .normalized(r.nodes)
                    .map(|(time, tput)| {
                        vec![
                            mode_name.to_owned(),
                            scheme.label(),
                            time.to_string(),
                            fnum(tput),
                            fnum(r.latency),
                            fnum(r.latency_total),
                            r.recovered.to_string(),
                        ]
                    })
                    .collect(),
            )
        },
    )?;
    t.extend(rows);
    Ok(t)
}

/// Condensed variant: just the per-run average latencies (the numbers the
/// paper quotes in §5.2.3).
///
/// # Errors
///
/// Returns the first failing trace.
pub fn latency_summary(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 7 (text) — average packet latency under the bursty load",
        &["deadlock", "scheme", "avg_net_latency", "avg_total_latency"],
    );
    let cycles = fig6::cycles(scale);
    let rows = ctx.try_run_rows(
        combos(),
        |(_, mode_name, scheme)| format!("fig7-latency {mode_name} {}", scheme.label()),
        |(mode, mode_name, scheme)| {
            let cfg = SimConfig {
                net: NetConfig::paper(mode),
                workload: fig6::workload(scale),
                scheme: scheme.clone(),
                cycles,
                warmup: scale.bursty_phase() / 2,
                seed: 0xF16_0007,
            };
            let r = ctx.try_run_series(cfg, cycles / 8)?;
            Ok::<_, JobError>(vec![vec![
                mode_name.to_owned(),
                scheme.label(),
                fnum(r.latency),
                fnum(r.latency_total),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
