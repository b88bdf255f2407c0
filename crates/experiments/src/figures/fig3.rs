//! Figure 3: overall performance with uniform-random traffic.
//!
//! Four panels: delivered throughput and average latency vs offered load,
//! under deadlock recovery (a, b) and deadlock avoidance (c, d), comparing
//! `Base` (no control), `ALO` (local estimate) and `Tune` (the paper's
//! scheme). The shape to reproduce: Base and ALO collapse at saturation
//! (catastrophically under recovery); Tune stays near peak throughput with
//! bounded latency at every offered load.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{steady_config, sweep_rates_for, Scale, SweepCtx, Table};
use stcc::Scheme;
use traffic::Pattern;
use wormsim::{DeadlockMode, NetConfig};

/// Runs the Figure 3 sweeps (all four panels in one table), fanned across
/// `ctx`'s pool.
///
/// # Errors
///
/// Returns the first failing sweep point.
pub fn generate(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 3 — overall performance, uniform random (base/alo/tune x recovery/avoidance)",
        &[
            "deadlock",
            "scheme",
            "offered_pkts",
            "tput_pkts",
            "tput_flits",
            "net_latency",
            "total_latency",
            "throttled",
        ],
    );
    let mut jobs = Vec::new();
    for (mode, mode_name) in [
        (DeadlockMode::PAPER_RECOVERY, "recovery"),
        (DeadlockMode::Avoidance, "avoidance"),
    ] {
        for scheme in [Scheme::Base, Scheme::Alo, Scheme::tuned_paper()] {
            for (i, &rate) in sweep_rates_for(scale).iter().enumerate() {
                jobs.push((mode, mode_name, scheme.clone(), rate, i));
            }
        }
    }
    let rows = ctx.try_run_rows(
        jobs,
        |(_, mode_name, scheme, rate, _)| format!("fig3 {mode_name} {} @ {rate}", scheme.label()),
        |(mode, mode_name, scheme, rate, i)| {
            let cfg = steady_config(
                NetConfig::paper(mode),
                scheme.clone(),
                Pattern::UniformRandom,
                rate,
                scale,
                0xF16_0003 + i as u64,
            );
            let r = ctx.try_run_point(cfg)?;
            Ok::<_, JobError>(vec![vec![
                mode_name.to_owned(),
                scheme.label(),
                fnum(rate),
                fnum(r.tput_packets),
                fnum(r.tput_flits),
                fnum(r.latency),
                fnum(r.latency_total),
                r.throttled.to_string(),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
