//! Controller-zoo head-to-head: every registered congestion controller
//! over every traffic pattern.
//!
//! This is the figure the pluggable-controller refactor exists for: the
//! paper claims the self-tuner beats any fixed policy *across patterns*,
//! and this table pits it against the local baseline and the three rival
//! adaptive schemes (AIMD, DEC-bit, BBR-flavored) plus a representative
//! static threshold, with per-controller throughput, latency and Jain
//! fairness columns.

use crate::runner::{JobError, SweepError};
use crate::table::fnum;
use crate::{steady_config, sweep_rates_for, NetPreset, Scale, SweepCtx, Table};
use stcc::{Scheme, StaticConfig};
use traffic::Pattern;
use wormsim::DeadlockMode;

/// Every traffic pattern the harness knows (the hotspot at node 0 with the
/// literature's 25% skew).
#[must_use]
pub fn all_patterns() -> Vec<Pattern> {
    vec![
        Pattern::UniformRandom,
        Pattern::BitReversal,
        Pattern::PerfectShuffle,
        Pattern::Butterfly,
        Pattern::BitComplement,
        Pattern::Transpose,
        Pattern::Hotspot {
            target: 0,
            fraction: 0.25,
        },
    ]
}

/// The full head-to-head roster on a network preset: every registry name
/// plus the preset's representative (higher) static threshold.
#[must_use]
pub fn roster(net: NetPreset) -> Vec<Scheme> {
    let sideband = net.sideband();
    let mut schemes: Vec<Scheme> = Scheme::registry_names()
        .iter()
        .map(|name| Scheme::by_name(name, &sideband).expect("registry names resolve"))
        .collect();
    schemes.push(Scheme::Static(StaticConfig {
        threshold: net.static_thresholds()[0],
        sideband,
    }));
    schemes
}

/// Runs the head-to-head over an explicit scheme list: [`roster`], or the
/// `--controllers` filter.
///
/// # Errors
///
/// Returns the first failing sweep point.
pub fn generate_filtered(
    net: NetPreset,
    scale: Scale,
    ctx: &SweepCtx,
    schemes: &[Scheme],
) -> Result<Table, SweepError> {
    let mut t = Table::new(
        "Controller zoo — every controller × every traffic pattern (deadlock recovery)",
        &[
            "pattern",
            "scheme",
            "offered_pkts",
            "tput_pkts",
            "tput_flits",
            "net_latency",
            "fairness",
            "throttled",
        ],
    );
    let mut jobs = Vec::new();
    for pattern in all_patterns() {
        for scheme in schemes {
            for (i, &rate) in sweep_rates_for(scale).iter().enumerate() {
                jobs.push((pattern.clone(), scheme.clone(), rate, i));
            }
        }
    }
    let rows = ctx.try_run_rows(
        jobs,
        |(pattern, scheme, rate, _)| {
            format!("controllers {} {} @ {rate}", pattern.name(), scheme.label())
        },
        |(pattern, scheme, rate, i)| {
            let cfg = steady_config(
                net.net(DeadlockMode::PAPER_RECOVERY),
                scheme.clone(),
                pattern.clone(),
                rate,
                scale,
                0xC0_2200 + i as u64,
            );
            let r = ctx.try_run_point(cfg)?;
            Ok::<_, JobError>(vec![vec![
                pattern.name().to_owned(),
                scheme.label(),
                fnum(rate),
                fnum(r.tput_packets),
                fnum(r.tput_flits),
                fnum(r.latency),
                fnum(r.fairness),
                r.throttled.to_string(),
            ]])
        },
    )?;
    t.extend(rows);
    Ok(t)
}
