use crate::runner::{active_budget, JobError};
use crate::Scale;
use faults::FaultPlan;
use sideband::SidebandConfig;
use simstats::{GaugeSeries, RunSummary, WindowSeries};
use stcc::{Controller, RunGuard, TuneConfig};
use stcc::{FaultReport, LivelockDiag, Scheme, SimConfig, Simulation, DEFAULT_LIVELOCK_WINDOW};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use std::{fs, io};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// The [`RunGuard`] for the job running on this worker thread: the default
/// livelock window (overridable via `STCC_LIVELOCK_WINDOW`; `0` disables)
/// plus whatever cycle/wall-clock budget the pool published
/// ([`crate::runner::JobBudget`]).
fn job_guard() -> RunGuard {
    let (deadline, max_cycles) = active_budget();
    let livelock_window = std::env::var("STCC_LIVELOCK_WINDOW")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(Some(DEFAULT_LIVELOCK_WINDOW), |w| (w > 0).then_some(w));
    RunGuard {
        livelock_window,
        max_cycles,
        deadline,
    }
}

/// Checkpoint cadence from the environment: write a snapshot every
/// `STCC_CKPT_EVERY` cycles (0/unset disables) into `STCC_CKPT_DIR`
/// (default `checkpoints/`).
fn ckpt_cadence() -> Option<(u64, PathBuf)> {
    let every = std::env::var("STCC_CKPT_EVERY").ok()?.parse::<u64>().ok()?;
    if every == 0 {
        return None;
    }
    let dir =
        std::env::var("STCC_CKPT_DIR").map_or_else(|_| PathBuf::from("checkpoints"), PathBuf::from);
    Some((every, dir))
}

fn livelock_diag(sim: &Simulation, window: u64) -> LivelockDiag {
    let net = sim.network();
    LivelockDiag {
        cycle: sim.now(),
        window,
        live_packets: net.live_packets(),
        full_buffers: net.full_buffer_count(),
        token_queue: net.token_queue_len(),
        recovery_active: net.recovery_active(),
        last_progress_at: net.last_progress_at(),
        last_delivery_at: net.last_delivery_at(),
        delivered_packets: net.counters().delivered_packets,
    }
}

/// Atomically writes this job's snapshot (one file per job, keyed by a hash
/// of its label; overwritten at every cadence point). The temp name is
/// unique per process and writer so that two jobs whose labels collide
/// (e.g. fig4's two tuner variants share a point label) can never
/// interleave bytes in one temp file — each rename publishes a complete
/// snapshot, last writer wins.
fn write_checkpoint(dir: &Path, label: &str, sim: &Simulation) -> io::Result<()> {
    static WRITER: AtomicU64 = AtomicU64::new(0);
    fs::create_dir_all(dir)?;
    let key = checkpoint::fnv1a64(label.as_bytes());
    let tmp = dir.join(format!(
        "ckpt-{key:016x}.{}-{}.tmp",
        std::process::id(),
        WRITER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, sim.checkpoint())?;
    fs::rename(&tmp, dir.join(format!("ckpt-{key:016x}.bin")))
}

/// Steps `sim` to its configured end under the worker's [`RunGuard`],
/// calling `after_step` after every cycle (series sampling), honoring the
/// `STCC_CKPT_EVERY` checkpoint cadence and bailing promptly on SIGINT.
///
/// A guarded drive that completes is bit-identical to
/// [`Simulation::run_to_end`]: the guard and the checkpoints only observe.
pub(crate) fn drive(
    sim: &mut Simulation,
    label: &str,
    mut after_step: impl FnMut(&mut Simulation),
) -> Result<(), JobError> {
    let guard = job_guard();
    let cadence = ckpt_cadence();
    let cycles = sim.config().cycles;
    let mut stepped: u64 = 0;
    while sim.now() < cycles {
        if let Some(max) = guard.max_cycles {
            if stepped >= max {
                return Err(JobError::TimedOut(format!(
                    "{label}: cycle budget ({max}) exhausted at cycle {}",
                    sim.now()
                )));
            }
        }
        if stepped.is_multiple_of(1024) {
            if crate::sigint::interrupted() {
                return Err(JobError::Interrupted);
            }
            if let Some(deadline) = guard.deadline {
                if Instant::now() >= deadline {
                    return Err(JobError::TimedOut(format!(
                        "{label}: wall-clock budget exhausted at cycle {}",
                        sim.now()
                    )));
                }
            }
        }
        sim.step();
        stepped += 1;
        after_step(sim);
        if let Some(window) = guard.livelock_window {
            if sim.network().livelocked(window) {
                return Err(JobError::TimedOut(format!(
                    "{label}: livelock: {}",
                    livelock_diag(sim, window)
                )));
            }
        }
        if let Some((every, dir)) = &cadence {
            if sim.now().is_multiple_of(*every) && sim.now() < cycles {
                write_checkpoint(dir, label, sim)
                    .map_err(|e| JobError::Failed(format!("{label}: checkpoint write: {e}")))?;
            }
        }
    }
    Ok(())
}

/// The measurements of one sweep point, in the units the paper plots.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Offered load, packets/node/cycle.
    pub offered: f64,
    /// Delivered bandwidth, packets/node/cycle (normalized accepted
    /// traffic).
    pub tput_packets: f64,
    /// Delivered bandwidth, flits/node/cycle.
    pub tput_flits: f64,
    /// Mean network latency (cycles), `NaN` if nothing was delivered.
    pub latency: f64,
    /// Mean end-to-end latency including source queueing (cycles).
    pub latency_total: f64,
    /// Packets delivered via Disha recovery during the measured window.
    pub recovered: u64,
    /// Injection-gate denials during the measured window.
    pub throttled: u64,
    /// Jain's fairness index over per-source delivered packets (1.0 =
    /// perfectly equal service).
    pub fairness: f64,
}

/// Runs one simulation (guarded; see [`drive`]) and condenses its summary.
///
/// # Errors
///
/// Returns a typed [`JobError`] naming the offending point on an invalid
/// configuration, a summary taken before warm-up, a tripped
/// livelock/budget guard ([`JobError::TimedOut`]) or SIGINT
/// ([`JobError::Interrupted`]); the error crosses
/// [`crate::runner::Pool`] worker threads untouched.
pub fn try_run_point(cfg: SimConfig) -> Result<PointResult, JobError> {
    let label = point_label(&cfg);
    let mut sim = Simulation::new(cfg)
        .map_err(|e| JobError::Failed(format!("bad experiment ({label}): {e}")))?;
    drive(&mut sim, &label, |_| {})?;
    report_stage_stats(&label, &sim);
    let s = sim
        .summary()
        .map_err(|e| JobError::Failed(format!("summary failed ({label}): {e}")))?;
    Ok(condense(&s))
}

/// Runs one simulation and condenses its summary.
///
/// # Panics
///
/// Panics on an invalid configuration (the harness constructs only valid
/// ones; the error message names the offender). Worker code should prefer
/// [`try_run_point`].
#[must_use]
pub fn run_point(cfg: SimConfig) -> PointResult {
    try_run_point(cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one simulation — under a fault plan when one is given — and
/// condenses its summary together with the run's fault/degradation report
/// (which carries the controller's full decision counters even on a
/// fault-free run).
///
/// # Errors
///
/// Returns a typed [`JobError`] naming the offending point on an invalid
/// configuration or fault plan, a tripped guard, or SIGINT.
pub fn try_run_point_instrumented(
    cfg: SimConfig,
    plan: Option<FaultPlan>,
) -> Result<(PointResult, FaultReport), JobError> {
    let label = point_label(&cfg);
    let mut sim = match plan {
        Some(plan) => Simulation::with_faults(cfg, plan),
        None => Simulation::new(cfg),
    }
    .map_err(|e| JobError::Failed(format!("bad experiment ({label}): {e}")))?;
    drive(&mut sim, &label, |_| {})?;
    report_stage_stats(&label, &sim);
    let report = sim.fault_report();
    let s = sim
        .summary()
        .map_err(|e| JobError::Failed(format!("summary failed ({label}): {e}")))?;
    Ok((condense(&s), report))
}

/// Runs one simulation under an installed fault plan and condenses its
/// summary together with the run's fault/degradation counters.
///
/// # Errors
///
/// Returns a typed [`JobError`] naming the offending point on an invalid
/// configuration or fault plan, a tripped guard, or SIGINT.
pub fn try_run_point_with_faults(
    cfg: SimConfig,
    plan: FaultPlan,
) -> Result<(PointResult, FaultReport), JobError> {
    try_run_point_instrumented(cfg, Some(plan))
}

/// Runs one simulation under an installed fault plan and condenses its
/// summary together with the run's fault/degradation counters.
///
/// # Panics
///
/// Panics on an invalid configuration or fault plan (the harness constructs
/// only valid ones). Worker code should prefer
/// [`try_run_point_with_faults`].
#[must_use]
pub fn run_point_with_faults(cfg: SimConfig, plan: FaultPlan) -> (PointResult, FaultReport) {
    try_run_point_with_faults(cfg, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// Whether per-stage work-share reporting is on (`STCC_STAGE_STATS=1`).
///
/// Unset, empty and `0` disable it; anything else is reported (once per
/// run, to stderr) and treated as off rather than silently accepted.
fn stage_stats_enabled(label: &str) -> bool {
    match std::env::var("STCC_STAGE_STATS") {
        Ok(v) if v == "1" => true,
        Ok(v) if v.is_empty() || v == "0" => false,
        Ok(v) => {
            eprintln!("stage-stats ({label}): ignoring STCC_STAGE_STATS={v} (expected 0 or 1)");
            false
        }
        Err(_) => false,
    }
}

/// Prints the finished run's per-stage work breakdown
/// ([`wormsim::StageCycles`]) to stderr when `STCC_STAGE_STATS=1`.
/// Diagnostics only: the shares never enter a figure's CSV.
fn report_stage_stats(label: &str, sim: &Simulation) {
    if !stage_stats_enabled(label) {
        return;
    }
    let stages = sim.network().counters().stage_cycles();
    let total = stages.total();
    if total == 0 {
        eprintln!("stage-stats ({label}): no stage work recorded");
        return;
    }
    let share = |v: u64| 100.0 * (v as f64) / (total as f64);
    eprintln!(
        "stage-stats ({label}): inject {:.1}% route {:.1}% starvation {:.1}% \
         switch {:.1}% drain {:.1}% ({total} visits over {} cycles)",
        share(stages.inject),
        share(stages.route),
        share(stages.starvation),
        share(stages.switch),
        share(stages.drain),
        sim.now()
    );
}

pub(crate) fn point_label(cfg: &SimConfig) -> String {
    format!(
        "{} {} @ {:.4}",
        cfg.scheme.label(),
        cfg.workload.phases()[0].pattern.name(),
        cfg.workload.offered_rate_at(cfg.warmup)
    )
}

fn condense(s: &RunSummary) -> PointResult {
    PointResult {
        offered: s.offered_rate,
        tput_packets: s.throughput_packets(),
        tput_flits: s.throughput_flits(),
        latency: s.network_latency.mean().unwrap_or(f64::NAN),
        latency_total: s.total_latency.mean().unwrap_or(f64::NAN),
        recovered: s.recovered_packets,
        throttled: s.throttled_injections,
        fairness: s.fairness,
    }
}

/// Time-resolved measurements of one run (Figures 4 and 7).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesResult {
    /// Window width used for the throughput series, in cycles.
    pub window: u64,
    /// Node count (for normalization).
    pub nodes: usize,
    /// Delivered flits per window.
    pub tput: WindowSeries,
    /// Self-tuner threshold samples (empty for other schemes).
    pub threshold: GaugeSeries,
    /// Full-buffer census samples (one per window).
    pub full_buffers: GaugeSeries,
    /// Mean network latency over the whole run (cycles).
    pub latency: f64,
    /// Mean end-to-end latency over the whole run (cycles).
    pub latency_total: f64,
    /// Packets recovered via the deadlock network.
    pub recovered: u64,
}

/// Runs one simulation collecting windowed time series (no warm-up
/// exclusion on the series; the latency means respect the configured
/// warm-up).
///
/// # Errors
///
/// Returns a typed [`JobError`] naming the offending point on an invalid
/// configuration, a summary taken before warm-up, a tripped guard, or
/// SIGINT.
pub fn try_run_series(cfg: SimConfig, window: u64) -> Result<SeriesResult, JobError> {
    let label = point_label(&cfg);
    let mut sim = Simulation::new(cfg)
        .map_err(|e| JobError::Failed(format!("bad experiment ({label}): {e}")))?;
    let nodes = sim.network().torus().node_count();
    let mut tput = WindowSeries::new(window);
    let mut threshold = GaugeSeries::new();
    let mut full = GaugeSeries::new();
    let mut last_flits = 0u64;
    drive(&mut sim, &label, |sim| {
        let now = sim.now() - 1;
        let cum = sim.network().delivered_flits_cum();
        tput.add(now, cum - last_flits);
        last_flits = cum;
        if now.is_multiple_of(window) {
            if let Some(t) = sim.tuned() {
                if let Some(v) = t.threshold() {
                    threshold.sample(now, v);
                }
            }
            full.sample(now, f64::from(sim.network().full_buffer_count()));
        }
    })?;
    report_stage_stats(&label, &sim);
    let s = sim
        .summary()
        .map_err(|e| JobError::Failed(format!("summary failed ({label}): {e}")))?;
    Ok(SeriesResult {
        window,
        nodes,
        tput,
        threshold,
        full_buffers: full,
        latency: s.network_latency.mean().unwrap_or(f64::NAN),
        latency_total: s.total_latency.mean().unwrap_or(f64::NAN),
        recovered: s.recovered_packets,
    })
}

/// Runs one simulation collecting windowed time series.
///
/// # Panics
///
/// Panics on an invalid configuration. Worker code should prefer
/// [`try_run_series`].
#[must_use]
pub fn run_series(cfg: SimConfig, window: u64) -> SeriesResult {
    try_run_series(cfg, window).unwrap_or_else(|e| panic!("{e}"))
}

/// The injection-rate sweep of the paper's load/throughput plots
/// (log-spaced from 0.001 to 0.1 packets/node/cycle).
#[must_use]
pub fn sweep_rates() -> Vec<f64> {
    vec![
        0.001, 0.0015, 0.002, 0.003, 0.005, 0.007, 0.010, 0.014, 0.020, 0.028, 0.040, 0.056, 0.080,
        0.100,
    ]
}

/// The sweep actually run at a given scale: the full 14 points at paper
/// scale, a 9-point subset otherwise (wall-clock economy on one core; the
/// subset still brackets the saturation cliff).
#[must_use]
pub fn sweep_rates_for(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => sweep_rates(),
        Scale::Reduced => {
            vec![
                0.001, 0.002, 0.005, 0.010, 0.014, 0.020, 0.028, 0.056, 0.100,
            ]
        }
        Scale::Smoke => vec![0.001, 0.005, 0.014, 0.028, 0.056, 0.100],
        // Golden snapshots: three points bracketing the knee are enough to
        // pin determinism while keeping the committed files small.
        Scale::Tiny => vec![0.005, 0.028, 0.100],
    }
}

/// Which network the figures run on: the paper's 16-ary 2-cube, or a
/// small 8-ary 2-cube used by the committed golden snapshots (fast enough
/// to re-simulate inside the test suite).
///
/// The preset bundles everything that must stay mutually consistent when
/// the topology changes: the side-band's radix (and hence its gather
/// period), the tuner's side-band, and Figure 5's static thresholds
/// (rescaled to the same occupancy fractions of the smaller buffer pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetPreset {
    /// The paper's 16-ary 2-cube (256 nodes, 3072 VC buffers).
    #[default]
    Paper,
    /// An 8-ary 2-cube (64 nodes, 768 VC buffers) for golden tests.
    Small,
}

impl NetPreset {
    /// The network configuration.
    #[must_use]
    pub fn net(self, deadlock: DeadlockMode) -> NetConfig {
        match self {
            NetPreset::Paper => NetConfig::paper(deadlock),
            NetPreset::Small => NetConfig::small(deadlock),
        }
    }

    /// The matching side-band configuration (radix follows the torus).
    #[must_use]
    pub fn sideband(self) -> SidebandConfig {
        SidebandConfig {
            radix: match self {
                NetPreset::Paper => 16,
                NetPreset::Small => 8,
            },
            ..SidebandConfig::paper()
        }
    }

    /// The matching self-tuned scheme.
    #[must_use]
    pub fn tuned(self) -> Scheme {
        Scheme::Tuned(TuneConfig {
            sideband: self.sideband(),
            ..TuneConfig::paper()
        })
    }

    /// Figure 5's static thresholds, in full buffers: the paper's 250/50
    /// (8% / 1.6% of 3072) rescaled to the preset's buffer pool.
    #[must_use]
    pub fn static_thresholds(self) -> [u32; 2] {
        match self {
            NetPreset::Paper => [250, 50],
            // Same occupancy fractions of 768 buffers.
            NetPreset::Small => [62, 12],
        }
    }

    /// Parses `paper` / `small`.
    #[must_use]
    pub fn parse(s: &str) -> Option<NetPreset> {
        match s {
            "paper" => Some(NetPreset::Paper),
            "small" => Some(NetPreset::Small),
            _ => None,
        }
    }

    /// Label used in messages.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetPreset::Paper => "paper",
            NetPreset::Small => "small",
        }
    }
}

/// Builds the [`SimConfig`] for one steady-load sweep point.
#[must_use]
pub fn steady_config(
    net: NetConfig,
    scheme: Scheme,
    pattern: Pattern,
    rate: f64,
    scale: Scale,
    seed: u64,
) -> SimConfig {
    SimConfig {
        net,
        workload: Workload::steady(pattern, Process::bernoulli(rate)),
        scheme,
        cycles: scale.cycles(),
        warmup: scale.warmup(),
        seed,
    }
}
