use crate::runner::{JobError, Pool};
use crate::{Scale, SweepCtx};
use core::ops::ControlFlow;
use faults::FaultPlan;
use sideband::SidebandConfig;
use simstats::{GaugeSeries, RunSummary, WindowSeries};
use stcc::{Controller, FaultReport, Observer, RunGuard, Scheme, SimConfig, SimError};
use stcc::{Simulation, TuneConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use std::{fs, io};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

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

impl SweepCtx {
    /// Builds one simulation of this sweep — under a fault plan when one is
    /// given — with the context's shard count and audit cadence applied.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Failed`] naming `label` on an invalid
    /// configuration or fault plan.
    pub fn simulation(
        &self,
        cfg: SimConfig,
        plan: Option<FaultPlan>,
        label: &str,
    ) -> Result<Simulation, JobError> {
        let mut sim = match plan {
            Some(plan) => Simulation::with_faults(cfg, plan),
            None => Simulation::new(cfg),
        }
        .map_err(|e| JobError::Failed(format!("bad experiment ({label}): {e}")))?;
        sim.set_shards(self.options().shards);
        sim.set_audit_every(self.options().audit_every);
        Ok(sim)
    }

    /// Runs `sim` to its configured end through
    /// [`Simulation::run_guarded`], supplying what the harness adds to that
    /// loop: the guard from the context's options (watchdog window, job
    /// budget) with SIGINT as its cancellation flag, `sample` after every
    /// cycle (series sampling), the checkpoint cadence, and the
    /// [`SimError`] → [`JobError`] mapping.
    ///
    /// With neither a sampler nor a cadence nothing observes the cycles and
    /// the loop may fast-forward. A drive that completes is bit-identical to
    /// [`Simulation::run_to_end`] either way.
    pub(crate) fn drive(
        &self,
        sim: &mut Simulation,
        label: &str,
        mut sample: Option<&mut dyn FnMut(&Simulation)>,
    ) -> Result<(), JobError> {
        let opts = self.options();
        let guard = RunGuard {
            livelock_window: opts.livelock_window,
            max_cycles: opts.budget.cycles,
            deadline: opts.budget.wall.map(|w| Instant::now() + w),
            cancel: Some(crate::sigint::flag()),
        };
        let cycles = sim.config().cycles;
        let observed = sample.is_some() || opts.checkpoint.is_some();
        let mut observe = |sim: &Simulation| {
            if let Some(sample) = sample.as_mut() {
                sample(sim);
            }
            if let Some((every, dir)) = &opts.checkpoint {
                if sim.now().is_multiple_of(*every) && sim.now() < cycles {
                    if let Err(e) = write_checkpoint(dir, label, sim) {
                        return ControlFlow::Break(JobError::Failed(format!(
                            "{label}: checkpoint write: {e}"
                        )));
                    }
                }
            }
            ControlFlow::Continue(())
        };
        let observer: Option<Observer<'_, JobError>> =
            if observed { Some(&mut observe) } else { None };
        match sim.run_guarded(&guard, observer) {
            Ok(ControlFlow::Continue(())) => Ok(()),
            Ok(ControlFlow::Break(e)) => Err(e),
            Err(SimError::Cancelled { .. }) => Err(JobError::Interrupted),
            Err(e) => Err(JobError::TimedOut(format!("{label}: {e}"))),
        }
    }

    /// Runs one simulation (guarded; see [`SweepCtx::drive`]) and condenses
    /// its summary.
    ///
    /// # Errors
    ///
    /// Returns a typed [`JobError`] naming the offending point on an invalid
    /// configuration, a summary taken before warm-up, a tripped
    /// livelock/budget guard ([`JobError::TimedOut`]) or SIGINT
    /// ([`JobError::Interrupted`]); the error crosses
    /// [`crate::runner::Pool`] worker threads untouched.
    pub fn try_run_point(&self, cfg: SimConfig) -> Result<PointResult, JobError> {
        self.try_run_point_instrumented(cfg, None).map(|(p, _)| p)
    }

    /// Runs one simulation — under a fault plan when one is given — and
    /// condenses its summary together with the run's fault/degradation
    /// report (which carries the controller's full decision counters even
    /// on a fault-free run).
    ///
    /// # Errors
    ///
    /// Returns a typed [`JobError`] naming the offending point on an invalid
    /// configuration or fault plan, a tripped guard, or SIGINT.
    pub fn try_run_point_instrumented(
        &self,
        cfg: SimConfig,
        plan: Option<FaultPlan>,
    ) -> Result<(PointResult, FaultReport), JobError> {
        let label = point_label(&cfg);
        let mut sim = self.simulation(cfg, plan, &label)?;
        self.drive(&mut sim, &label, None)?;
        let report = sim.fault_report();
        let s = sim
            .summary()
            .map_err(|e| JobError::Failed(format!("summary failed ({label}): {e}")))?;
        Ok((condense(&s), report))
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
    pub fn try_run_series(&self, cfg: SimConfig, window: u64) -> Result<SeriesResult, JobError> {
        let label = point_label(&cfg);
        let mut sim = self.simulation(cfg, None, &label)?;
        let nodes = sim.network().torus().node_count();
        let mut tput = WindowSeries::new(window);
        let mut threshold = GaugeSeries::new();
        let mut full = GaugeSeries::new();
        let mut last_flits = 0u64;
        let mut sample = |sim: &Simulation| {
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
        };
        self.drive(&mut sim, &label, Some(&mut sample))?;
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
}

/// [`SweepCtx::try_run_point_instrumented`] under default runtime options.
///
/// # Errors
///
/// As the method.
pub fn try_run_point_instrumented(
    cfg: SimConfig,
    plan: Option<FaultPlan>,
) -> Result<(PointResult, FaultReport), JobError> {
    SweepCtx::bare(Pool::new(1)).try_run_point_instrumented(cfg, plan)
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

/// The injection-rate sweep of the paper's load/throughput plots: the full
/// 14 log-spaced points from 0.001 to 0.1 packets/node/cycle at paper
/// scale, a 9-point subset otherwise (wall-clock economy on one core; the
/// subset still brackets the saturation cliff).
#[must_use]
pub fn sweep_rates_for(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => vec![
            0.001, 0.0015, 0.002, 0.003, 0.005, 0.007, 0.010, 0.014, 0.020, 0.028, 0.040, 0.056,
            0.080, 0.100,
        ],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobBudget, RuntimeOptions};

    fn tiny_cfg() -> SimConfig {
        crate::figures::fig4::sim_config(NetPreset::Small, Scale::Tiny, true)
    }

    fn ctx(opts: RuntimeOptions) -> SweepCtx {
        SweepCtx::bare(Pool::new(1)).with_options(opts)
    }

    #[test]
    fn budget_in_the_options_times_the_job_out() {
        let budgeted = ctx(RuntimeOptions {
            budget: JobBudget {
                wall: None,
                cycles: Some(100),
            },
            ..RuntimeOptions::default()
        });
        match budgeted.try_run_point(tiny_cfg()) {
            Err(JobError::TimedOut(msg)) => {
                assert!(msg.contains("cycle budget exhausted at cycle 100"), "{msg}");
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    /// The checkpoint cadence only observes: same result with it on, and
    /// the snapshot it leaves restores into the configuration that wrote it.
    #[test]
    fn checkpoint_cadence_observes_without_perturbing() {
        let dir = std::env::temp_dir().join("stcc-run-test-cadence");
        let _ = fs::remove_dir_all(&dir);
        let plain = ctx(RuntimeOptions::default())
            .try_run_point(tiny_cfg())
            .unwrap();
        let snapped = ctx(RuntimeOptions {
            checkpoint: Some((2_000, dir.clone())),
            audit_every: Some(500),
            shards: 2,
            ..RuntimeOptions::default()
        })
        .try_run_point(tiny_cfg())
        .unwrap();
        assert_eq!(plain, snapped);
        let files: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(files.len(), 1, "one snapshot per job label, no temp left");
        let bytes = fs::read(files[0].path()).unwrap();
        let restored = Simulation::restore(tiny_cfg(), None, &bytes).unwrap();
        assert_eq!(restored.now(), 4_000, "last cadence point before the end");
        let _ = fs::remove_dir_all(&dir);
    }
}
