//! Ablation experiments the paper describes in prose (DESIGN.md X1–X5):
//!
//! * **X1** — last-snapshot vs linear-extrapolation congestion estimation
//!   (§3.1 credits extrapolation with 3%/5% of throughput under
//!   avoidance/recovery),
//! * **X2** — tuning-period insensitivity over 32–192 cycles (§4.1),
//! * **X3** — increment/decrement insensitivity over 1–4% (§4.1),
//! * **X4** — narrow (9-bit) side-band channels (§5.1 / companion TR),
//! * **X5** — side-band hop delay `h` (§5.2).
//!
//! All run the self-tuned scheme at a heavily oversaturated uniform-random
//! load, where the throttle does all the work.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{Scale, SweepCtx, Table};
use sideband::{Estimator, Quantizer, SidebandConfig};
use stcc::{Scheme, SimConfig, TuneConfig};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// The overload at which the ablations run (packets/node/cycle).
const RATE: f64 = 0.056;

fn run_tuned(
    ctx: &SweepCtx,
    tune: TuneConfig,
    mode: DeadlockMode,
    scale: Scale,
    seed: u64,
) -> Result<(f64, f64), JobError> {
    let cfg = SimConfig {
        net: NetConfig::paper(mode),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(RATE)),
        scheme: Scheme::Tuned(tune),
        cycles: scale.cycles(),
        warmup: scale.warmup(),
        seed,
    };
    ctx.try_run_point(cfg).map(|r| (r.tput_flits, r.latency))
}

/// X1 — estimator comparison, both deadlock modes.
///
/// # Errors
///
/// Returns the first failing run.
pub fn extrapolation(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Ablation X1 — congestion estimator (tune @ 0.056, uniform random)",
        &["deadlock", "estimator", "tput_flits", "net_latency"],
    );
    let mut jobs = Vec::new();
    for (mode, mode_name) in [
        (DeadlockMode::PAPER_RECOVERY, "recovery"),
        (DeadlockMode::Avoidance, "avoidance"),
    ] {
        for (est, est_name) in [
            (Estimator::LastSnapshot, "last-snapshot"),
            (Estimator::LinearExtrapolation, "linear-extrapolation"),
            (Estimator::Ewma { alpha: 0.5 }, "ewma-0.5"),
        ] {
            jobs.push((mode, mode_name, est, est_name));
        }
    }
    let rows = ctx.try_run_rows(
        jobs,
        |(_, mode_name, _, est_name)| format!("X1 {mode_name} {est_name}"),
        |(mode, mode_name, est, est_name)| {
            let mut tune = TuneConfig::paper();
            tune.sideband.estimator = est;
            let (tput, lat) = run_tuned(ctx, tune, mode, scale, 0xAB1)?;
            Ok::<_, JobError>(vec![vec![
                mode_name.to_owned(),
                est_name.to_owned(),
                fnum(tput),
                fnum(lat),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}

/// X2 — tuning period sweep (1–6 gathers = 32–192 cycles).
///
/// # Errors
///
/// Returns the first failing run.
pub fn tuning_period(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Ablation X2 — tuning period (tune @ 0.056, recovery)",
        &["tune_period_cycles", "tput_flits", "net_latency"],
    );
    let rows = ctx.try_run_rows(
        vec![1u32, 2, 3, 4, 6],
        |gathers| format!("X2 gathers={gathers}"),
        |gathers| {
            let tune = TuneConfig {
                tune_gathers: gathers,
                ..TuneConfig::paper()
            };
            let period = tune.tune_period();
            let (tput, lat) = run_tuned(ctx, tune, DeadlockMode::PAPER_RECOVERY, scale, 0xAB2)?;
            Ok::<_, JobError>(vec![vec![period.to_string(), fnum(tput), fnum(lat)]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}

/// X3 — increment/decrement step sweep (1%–4% of all buffers).
///
/// # Errors
///
/// Returns the first failing run.
pub fn increments(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Ablation X3 — increment/decrement steps (tune @ 0.056, recovery)",
        &["inc_pct", "dec_pct", "tput_flits", "net_latency"],
    );
    let rows = ctx.try_run_rows(
        vec![
            (0.01, 0.04),
            (0.01, 0.01),
            (0.02, 0.04),
            (0.04, 0.04),
            (0.04, 0.01),
        ],
        |&(inc, dec)| format!("X3 inc={inc} dec={dec}"),
        |(inc, dec)| {
            let tune = TuneConfig {
                increment_frac: inc,
                decrement_frac: dec,
                ..TuneConfig::paper()
            };
            let (tput, lat) = run_tuned(ctx, tune, DeadlockMode::PAPER_RECOVERY, scale, 0xAB3)?;
            Ok::<_, JobError>(vec![vec![
                fnum(inc * 100.0),
                fnum(dec * 100.0),
                fnum(tput),
                fnum(lat),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}

/// X4 — side-band width: full 25-bit counts vs 9-bit quantized channels.
///
/// # Errors
///
/// Returns the first failing run.
pub fn sideband_bits(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Ablation X4 — side-band width (tune @ 0.056, recovery)",
        &["sideband_bits", "tput_flits", "net_latency"],
    );
    let rows = ctx.try_run_rows(
        vec![(25u32, None), (9, Some(Quantizer::new(9)))],
        |&(bits, _)| format!("X4 bits={bits}"),
        |(bits, quant)| {
            let mut tune = TuneConfig::paper();
            tune.sideband.quantizer = quant;
            let (tput, lat) = run_tuned(ctx, tune, DeadlockMode::PAPER_RECOVERY, scale, 0xAB4)?;
            Ok::<_, JobError>(vec![vec![bits.to_string(), fnum(tput), fnum(lat)]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}

/// X5 — side-band hop delay sweep (`h` in cycles; `g = 16 h`).
///
/// # Errors
///
/// Returns the first failing run.
pub fn hop_delay(scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Ablation X5 — side-band hop delay (tune @ 0.056, recovery)",
        &["hop_delay", "gather_period", "tput_flits", "net_latency"],
    );
    let rows = ctx.try_run_rows(
        vec![1u64, 2, 4, 8],
        |h| format!("X5 h={h}"),
        |h| {
            let sideband = SidebandConfig {
                hop_delay: h,
                ..SidebandConfig::paper()
            };
            let g = sideband.gather_period();
            let tune = TuneConfig {
                sideband,
                ..TuneConfig::paper()
            };
            let (tput, lat) = run_tuned(ctx, tune, DeadlockMode::PAPER_RECOVERY, scale, 0xAB5)?;
            Ok::<_, JobError>(vec![vec![
                h.to_string(),
                g.to_string(),
                fnum(tput),
                fnum(lat),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
