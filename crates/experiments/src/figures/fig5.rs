//! Figure 5: static thresholds vs self-tuning.
//!
//! Deadlock recovery; uniform-random and butterfly traffic; `Base`, two
//! fixed global thresholds (250 ≈ 8% occupancy and 50 ≈ 1.6%), and `Tune`.
//! The point to reproduce: 250 works well for uniform random but cannot
//! prevent butterfly saturation, 50 protects butterfly but over-throttles
//! uniform random, and the self-tuner adapts to both.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{steady_config, sweep_rates_for, NetPreset, Scale, SweepCtx, Table};
use stcc::{Scheme, StaticConfig};
use traffic::Pattern;
use wormsim::DeadlockMode;

/// Runs the Figure 5 sweeps on a chosen network preset, fanned across
/// `ctx`'s pool.
///
/// # Errors
///
/// Returns the first failing sweep point.
pub fn generate_on(net: NetPreset, scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 5 — static thresholds vs self-tuning (deadlock recovery)",
        &[
            "pattern",
            "scheme",
            "offered_pkts",
            "tput_pkts",
            "tput_flits",
            "net_latency",
        ],
    );
    let schemes: Vec<Scheme> = [Scheme::Base]
        .into_iter()
        .chain(net.static_thresholds().into_iter().map(|threshold| {
            Scheme::Static(StaticConfig {
                threshold,
                sideband: net.sideband(),
            })
        }))
        .chain([net.tuned()])
        .collect();
    let mut jobs = Vec::new();
    for pattern in [Pattern::UniformRandom, Pattern::Butterfly] {
        for scheme in &schemes {
            for (i, &rate) in sweep_rates_for(scale).iter().enumerate() {
                jobs.push((pattern.clone(), scheme.clone(), rate, i));
            }
        }
    }
    let rows = ctx.try_run_rows(
        jobs,
        |(pattern, scheme, rate, _)| format!("fig5 {} {} @ {rate}", pattern.name(), scheme.label()),
        |(pattern, scheme, rate, i)| {
            let cfg = steady_config(
                net.net(DeadlockMode::PAPER_RECOVERY),
                scheme.clone(),
                pattern.clone(),
                rate,
                scale,
                0xF16_0005 + i as u64,
            );
            let r = ctx.try_run_point(cfg)?;
            Ok::<_, JobError>(vec![vec![
                pattern.name().to_owned(),
                scheme.label(),
                fnum(rate),
                fnum(r.tput_packets),
                fnum(r.tput_flits),
                fnum(r.latency),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
