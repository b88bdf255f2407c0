//! Resilience: graceful degradation under side-band faults.
//!
//! Not a figure of the paper — this reproduction's fault-injection
//! experiment (DESIGN.md, "Fault model & degradation"). At a saturating
//! uniform-random load, sweep the side-band snapshot **loss rate** and
//! compare Base, Static and Tuned delivered bandwidth. The globally
//! informed schemes must degrade gracefully: as snapshots disappear their
//! estimates go quiet and both fall back towards uncontrolled (Base)
//! behavior — the self-tuner additionally via its staleness watchdog, whose
//! trip/re-arm counters the table reports alongside the controller's
//! raise/cut decision counts (quieting decisions are the mechanism of the
//! fallback, so the columns make the degradation story auditable). At 100% loss the Tuned scheme
//! must neither panic nor collapse: it fails open and lands within a few
//! percent of Static.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{steady_config, NetPreset, Scale, SweepCtx, Table};
use faults::{FaultPlan, SidebandFaults};
use stcc::Scheme;
use traffic::Pattern;
use wormsim::DeadlockMode;

/// The swept snapshot loss rates.
#[must_use]
pub fn loss_rates() -> Vec<f64> {
    vec![0.0, 0.1, 0.5, 0.9, 1.0]
}

/// Offered load of every run: past the base network's saturation knee, so
/// throttling (or its faulted absence) is what decides the outcome.
pub const LOAD: f64 = 0.028;

/// The three compared schemes, with the static threshold and side-band
/// radix matched to the preset's topology.
#[must_use]
pub fn schemes_on(net: NetPreset) -> Vec<Scheme> {
    vec![
        Scheme::Base,
        Scheme::Static {
            threshold: net.static_thresholds()[0],
            sideband: net.sideband(),
        },
        net.tuned(),
    ]
}

/// Runs the resilience sweep (deadlock recovery, uniform random) on a
/// chosen network preset, fanned across `ctx`'s pool.
///
/// # Errors
///
/// Returns the first failing sweep point.
pub fn generate_on(net: NetPreset, scale: Scale, ctx: &SweepCtx) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Resilience — delivered bandwidth under side-band snapshot loss (uniform random @ 0.028)",
        &[
            "loss_rate",
            "scheme",
            "tput_flits",
            "latency",
            "throttled",
            "lost_snaps",
            "rejected",
            "wd_trips",
            "wd_rearms",
            "raises",
            "cuts",
        ],
    );
    let mut jobs = Vec::new();
    for &loss in &loss_rates() {
        for scheme in schemes_on(net) {
            jobs.push((loss, scheme));
        }
    }
    let rows = ctx.try_run_rows(
        jobs,
        |(loss, scheme)| format!("resilience {} loss={loss}", scheme.label()),
        |(loss, scheme)| {
            let cfg = steady_config(
                net.net(DeadlockMode::PAPER_RECOVERY),
                scheme.clone(),
                Pattern::UniformRandom,
                LOAD,
                scale,
                0xFA_0001,
            );
            let plan = FaultPlan::sideband_only(
                0xFA17,
                SidebandFaults {
                    loss_rate: loss,
                    ..SidebandFaults::none()
                },
            );
            let (p, f) = ctx.try_run_point_instrumented(cfg, Some(plan))?;
            let sb = f.sideband.unwrap_or_default();
            Ok::<_, JobError>(vec![vec![
                fnum(loss),
                scheme.label(),
                fnum(p.tput_flits),
                fnum(p.latency),
                p.throttled.to_string(),
                sb.lost_snapshots.to_string(),
                sb.rejected().to_string(),
                f.controller.watchdog_trips.to_string(),
                f.controller.watchdog_rearms.to_string(),
                f.controller.raises.to_string(),
                f.controller.cuts.to_string(),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
