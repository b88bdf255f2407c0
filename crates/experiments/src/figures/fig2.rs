//! Figure 2: throughput vs full buffers.
//!
//! The paper's Figure 2 is a conceptual sketch: as offered load rises, both
//! the full-buffer count and the delivered bandwidth rise; past saturation
//! bandwidth falls while full buffers keep climbing — which is why a
//! full-buffer threshold (point B, the knee) is a usable throttle set-point.
//! We regenerate it with data: sweep offered load on the base network and
//! report measured (full-buffer occupancy, delivered bandwidth) pairs.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{steady_config, sweep_rates_for, NetPreset, Scale, SweepCtx, Table};
use simstats::GaugeSeries;
use stcc::{Scheme, Simulation};
use traffic::Pattern;
use wormsim::DeadlockMode;

/// Runs the Figure 2 sweep (deadlock recovery, uniform random, base) on a
/// chosen network preset.
///
/// # Errors
///
/// Returns the first failing sweep point.
pub fn generate_on(net: NetPreset, scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 2 — delivered bandwidth vs full-buffer occupancy (base, deadlock recovery)",
        &[
            "offered_pkts",
            "avg_full_buffers",
            "full_buffer_pct",
            "tput_flits",
        ],
    );
    let jobs: Vec<(usize, f64)> = sweep_rates_for(scale).into_iter().enumerate().collect();
    let rows = ctx.try_run_rows(
        jobs,
        |&(_, rate)| format!("fig2 base @ {rate}"),
        |(i, rate)| {
            let cfg = steady_config(
                net.net(DeadlockMode::PAPER_RECOVERY),
                Scheme::Base,
                Pattern::UniformRandom,
                rate,
                scale,
                0xF16_0002 + i as u64,
            );
            let warmup = cfg.warmup;
            let label = format!("fig2 base @ {rate}");
            let mut sim = ctx.simulation(cfg, None, &label)?;
            let mut occupancy = GaugeSeries::new();
            let mut sample = |sim: &Simulation| {
                if sim.now() >= warmup && sim.now().is_multiple_of(256) {
                    occupancy.sample(sim.now(), f64::from(sim.network().full_buffer_count()));
                }
            };
            ctx.drive(&mut sim, &label, Some(&mut sample))?;
            let s = sim
                .summary()
                .map_err(|e| JobError::Failed(format!("fig2 summary: {e}")))?;
            let avg_full = occupancy.points().iter().map(|&(_, v)| v).sum::<f64>()
                / occupancy.points().len().max(1) as f64;
            let total = f64::from(sim.network().total_vc_buffers());
            Ok::<_, JobError>(vec![vec![
                fnum(rate),
                fnum(avg_full),
                fnum(100.0 * avg_full / total),
                fnum(s.throughput_flits()),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
