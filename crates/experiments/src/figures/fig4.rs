//! Figure 4: self-tuning operation over time.
//!
//! One run at a just-saturating uniform-random load, comparing
//! hill-climbing **alone** against hill climbing **plus local-maximum
//! avoidance** (§4.2). The shape to reproduce: the hill-climber's threshold
//! ratchets upward as the network creeps into saturation and throughput
//! decays; the full scheme takes sharp corrective dips in the threshold and
//! sustains throughput.
//!
//! Parameter substitution: the paper runs this on deadlock avoidance with a
//! 100-cycle regeneration interval — *just at their network's saturation
//! point*. Our simulator's saturation knee sits at twice that load and the
//! creep pathology lives in the recovery configuration (DESIGN.md §5b), so
//! the equivalent experiment here is a 50-cycle interval under deadlock
//! recovery.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{NetPreset, Scale, SweepCtx, Table};
use stcc::{Scheme, SimConfig, TuneConfig};
use traffic::{Pattern, Process, Workload};
use wormsim::DeadlockMode;

/// Time-series sample spacing, in cycles (long scales; short scales shrink
/// it so every run still yields a dozen windows).
const SAMPLE: u64 = 4_000;

/// The [`SimConfig`] of one Figure 4 variant, exposed so the
/// checkpoint-determinism tests and the CI smoke gate can snapshot/restore
/// exactly the simulation a `fig4` run executes.
#[must_use]
pub fn sim_config(net: NetPreset, scale: Scale, avoid: bool) -> SimConfig {
    let tune = TuneConfig {
        sideband: net.sideband(),
        avoid_local_maxima: avoid,
        ..TuneConfig::paper()
    };
    SimConfig {
        net: net.net(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::periodic(50)),
        scheme: Scheme::Tuned(tune),
        cycles: scale.cycles(),
        warmup: scale.warmup(),
        seed: 0xF16_0004,
    }
}

/// Runs the two Figure 4 traces (threshold and throughput vs time) on a
/// chosen network preset.
///
/// # Errors
///
/// Returns the first failing trace.
pub fn generate_on(net: NetPreset, scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Figure 4 — self-tuning operation (threshold & throughput vs time, avoidance, interval 100)",
        &["variant", "t", "threshold", "tput_flits"],
    );
    let window = SAMPLE.min((scale.cycles() / 12).max(1));
    let variants = vec![
        (false, "hill-climbing-only"),
        (true, "hill-climbing+avoid-max"),
    ];
    let rows = ctx.try_run_rows(
        variants,
        |&(_, name)| format!("fig4 {name}"),
        |(avoid, name)| {
            let r = ctx.try_run_series(sim_config(net, scale, avoid), window)?;
            let thresholds: Vec<_> = r.threshold.points().to_vec();
            Ok::<_, JobError>(
                r.tput
                    .normalized(r.nodes)
                    .enumerate()
                    .map(|(i, (time, tput))| {
                        let thr = thresholds.get(i).map_or(f64::NAN, |&(_, v)| v);
                        vec![name.to_owned(), time.to_string(), fnum(thr), fnum(tput)]
                    })
                    .collect(),
            )
        },
    )?;
    t.extend(rows);
    Ok(t)
}
