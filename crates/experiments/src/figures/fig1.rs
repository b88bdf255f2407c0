//! Figure 1: performance breakdown at network saturation.
//!
//! 16-ary 2-cube, adaptive routing, deadlock recovery, **no congestion
//! control**; uniform-random and butterfly traffic; delivered bandwidth vs
//! offered load. The paper's two observations to reproduce: (1) both
//! patterns collapse dramatically at saturation, and (2) they saturate at
//! *different* offered loads.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{steady_config, sweep_rates_for, Scale, SweepCtx, Table};
use stcc::Scheme;
use traffic::Pattern;
use wormsim::{DeadlockMode, NetConfig};

/// Runs the Figure 1 sweep, fanned across `ctx`'s pool (journaled points
/// are replayed, not re-run).
///
/// # Errors
///
/// Returns the first failing sweep point.
pub fn generate(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 1 — saturation breakdown (base, deadlock recovery, 16-ary 2-cube)",
        &[
            "pattern",
            "offered_pkts",
            "tput_pkts",
            "tput_flits",
            "net_latency",
            "recovered",
        ],
    );
    let mut jobs = Vec::new();
    for pattern in [Pattern::UniformRandom, Pattern::Butterfly] {
        for (i, &rate) in sweep_rates_for(scale).iter().enumerate() {
            jobs.push((pattern.clone(), rate, i));
        }
    }
    let rows = ctx.try_run_rows(
        jobs,
        |(pattern, rate, _)| format!("fig1 {} @ {rate}", pattern.name()),
        |(pattern, rate, i)| {
            let cfg = steady_config(
                NetConfig::paper(DeadlockMode::PAPER_RECOVERY),
                Scheme::Base,
                pattern.clone(),
                rate,
                scale,
                0xF16_0001 + i as u64,
            );
            let r = ctx.try_run_point(cfg)?;
            Ok::<_, JobError>(vec![vec![
                pattern.name().to_owned(),
                fnum(rate),
                fnum(r.tput_packets),
                fnum(r.tput_flits),
                fnum(r.latency),
                r.recovered.to_string(),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
