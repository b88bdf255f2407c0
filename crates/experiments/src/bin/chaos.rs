//! Deterministic chaos harness: seeded random configurations × traffic
//! patterns × fault storms, every trial stepped with invariant audits on
//! and forced through a mid-run checkpoint/restore split whose two halves
//! must finish in bit-identical states.
//!
//! Each trial draws a small random network (16 nodes, so every-cycle-ish
//! audits stay cheap), a scheme, a traffic pattern, and — half the time — a
//! storm of link stalls, hotspots and side-band faults. The trial runs to
//! its midpoint under a periodic full-scan audit, checkpoints, restores the
//! snapshot into a second simulation, then races both halves to the end:
//! any audit violation, restore failure, or divergence between the two
//! final checkpoints fails the run loudly with a one-line minimized repro
//! (`--seed S --trial T` reproduces exactly that trial and nothing else).
//!
//! The harness enters through the same front door as the figure sweeps
//! ([`FrontDoor`]): each trial is one job, completed trials are journaled,
//! `--resume` skips them after a kill, and the final report
//! (`<out>/chaos.report`) is byte-identical for a given seed whether the
//! run was interrupted or not — which is itself part of what CI checks.
//!
//! Usage: `chaos [--seed N] [--trials N] [--out DIR] [--trial T]
//! [--resume]`.
//!
//! Exit codes: 0 every trial passed, 1 a trial failed (its repro line is
//! printed) or an I/O failure, 2 usage, 130 interrupted (`--resume`
//! continues).

use experiments::journal::Rows;
use experiments::sweep::{write_atomic, FrontDoor};
use experiments::{JobError, Pool, RuntimeOptions, SweepCtx, SweepError};
use faults::{FaultPlan, HotspotFault, LinkFault, SidebandFaults};
use sideband::SidebandConfig;
use stcc::{Scheme, SimConfig, Simulation, StaticConfig, TuneConfig};
use std::path::PathBuf;
use traffic::{splitmix64, Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// 16 nodes: big enough for every deadlock mode and pattern, small enough
/// that a full-scan audit every few cycles costs almost nothing.
const RADIX: usize = 4;
const DIMENSIONS: usize = 2;
const NODES: usize = 16;
/// Cycles between two full-scan audits of a trial (every checkpoint is
/// audited too).
const AUDIT_EVERY: u64 = 32;

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    trials: u64,
    out: PathBuf,
    /// Run exactly this one trial (minimized repro mode).
    trial: Option<u64>,
    resume: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 1,
            trials: 16,
            out: PathBuf::from("results"),
            trial: None,
            resume: false,
        }
    }
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            v.parse().map_err(|_| format!("bad {name} value '{v}'"))
        };
        match arg.as_str() {
            "--seed" => args.seed = num("--seed")?,
            "--trials" => {
                args.trials = num("--trials")?;
                if args.trials == 0 {
                    return Err("--trials must be at least 1".to_owned());
                }
            }
            "--trial" => args.trial = Some(num("--trial")?),
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--resume" => args.resume = true,
            "--help" | "-h" => {
                return Err(
                    "usage: chaos [--seed N] [--trials N] [--out DIR] [--trial T] [--resume]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// The harness's own SplitMix64 stream ([`splitmix64`]), seeded per trial,
/// so a repro depends on nothing but the seed and the trial.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, trial: u64) -> Rng {
        let mut key = seed ^ trial.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut state = splitmix64(&mut key);
        // The stream starts one step past the mixed key; every report and
        // repro pins the draws that follow from there.
        let _ = splitmix64(&mut state);
        Rng(state)
    }

    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform draw in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform draw from a slice.
    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// One trial's fully drawn scenario.
struct Trial {
    cfg: SimConfig,
    plan: Option<FaultPlan>,
    /// Step-loop shard counts for the original and the restored twin —
    /// drawn independently, so the final-checkpoint comparison doubles as
    /// a shard-invariance check (results must not depend on either).
    shards: (usize, usize),
    /// fnv1a64 over the Debug rendering of the scenario: a stable
    /// fingerprint to pin a repro against drift in the drawing code.
    fingerprint: u64,
    describe: String,
}

fn draw_trial(seed: u64, trial: u64) -> Trial {
    let mut rng = Rng::new(seed, trial);

    let deadlock = if rng.chance(0.5) {
        DeadlockMode::Avoidance
    } else {
        DeadlockMode::Recovery {
            timeout: rng.pick(&[4, 8]),
        }
    };
    // Avoidance needs an escape VC plus at least one adaptive VC.
    let min_vcs = match deadlock {
        DeadlockMode::Avoidance => 2,
        DeadlockMode::Recovery { .. } => 1,
    };
    let vcs = min_vcs + rng.below(4 - min_vcs as u64) as usize;
    let net = NetConfig {
        radix: RADIX,
        dimensions: DIMENSIONS,
        vcs,
        buf_depth: rng.pick(&[2, 4, 8]),
        packet_len: rng.pick(&[4, 8]),
        hop_latency: rng.pick(&[1, 2]),
        source_queue_cap: 16,
        deadlock,
    };

    let pattern = match rng.below(7) {
        0 => Pattern::UniformRandom,
        1 => Pattern::BitReversal,
        2 => Pattern::PerfectShuffle,
        3 => Pattern::Butterfly,
        4 => Pattern::BitComplement,
        5 => Pattern::Transpose,
        _ => Pattern::Hotspot {
            target: rng.below(NODES as u64) as usize,
            fraction: 0.2 + 0.05 * rng.below(5) as f64,
        },
    };
    let load = 0.03 + 0.01 * rng.below(10) as f64;

    // Draw from the full controller registry: the checkpoint-split and
    // audit properties must hold for every scheme, not just the paper's.
    // The side-band describes the drawn network: its VC count bounds the
    // receivers' range check, the quantizer scale and the extrapolation.
    let sideband = SidebandConfig {
        radix: net.radix,
        dimensions: net.dimensions,
        vcs: net.vcs,
        ..SidebandConfig::paper()
    };
    let scheme = match rng.below(7) {
        0 => Scheme::Base,
        1 => Scheme::Alo,
        2 => Scheme::Static(StaticConfig {
            threshold: 2 + rng.below(40) as u32,
            sideband,
        }),
        3 => Scheme::Aimd(sideband),
        4 => Scheme::DecBit(sideband),
        5 => Scheme::Bbr(sideband),
        _ => Scheme::Tuned(TuneConfig {
            sideband,
            ..TuneConfig::paper()
        }),
    };

    let cycles = 2_000 + 500 * rng.below(5);
    let cfg = SimConfig {
        net,
        workload: Workload::steady(pattern, Process::bernoulli(load)),
        scheme,
        cycles,
        warmup: 200,
        seed: rng.next(),
    };

    // Half the trials run under a storm whose windows all close before the
    // end, so stalled links can't hold traffic hostage forever.
    let plan = rng.chance(0.5).then(|| {
        let n_links = 1 + rng.below(3);
        let links = (0..n_links)
            .map(|_| {
                let start = 300 + rng.below(500);
                LinkFault {
                    node: rng.below(NODES as u64) as usize,
                    port: rng.below(DIMENSIONS as u64 * 2) as usize,
                    start,
                    end: start + 300 + rng.below(400),
                }
            })
            .collect();
        let hotspots = rng
            .chance(0.5)
            .then(|| {
                let start = 400 + rng.below(400);
                HotspotFault {
                    node: rng.below(NODES as u64) as usize,
                    start,
                    end: start + 300 + rng.below(300),
                }
            })
            .into_iter()
            .collect();
        FaultPlan {
            seed: rng.next(),
            sideband: SidebandFaults {
                loss_rate: 0.1 * rng.below(4) as f64,
                delay_rate: 0.1 * rng.below(3) as f64,
                max_delay: 8,
                corrupt_rate: 0.05 * rng.below(3) as f64,
                corrupt_bits: 2,
            },
            links,
            hotspots,
        }
    });

    // Drawn last so the scenario draws above are unchanged by the shard
    // axis. The trial steps the original at `shards.0` and the restored
    // twin at `shards.1`; both must land on identical bytes.
    let shards = (1 + rng.below(8) as usize, 1 + rng.below(8) as usize);

    let describe = format!(
        "{} {} load={load:.2} vcs={vcs} depth={} plen={} {} cycles={cycles} shards={}/{} {}",
        cfg.scheme.label(),
        cfg.workload.phases()[0].pattern.name(),
        cfg.net.buf_depth,
        cfg.net.packet_len,
        match cfg.net.deadlock {
            DeadlockMode::Avoidance => "avoidance".to_owned(),
            DeadlockMode::Recovery { timeout } => format!("recovery/{timeout}"),
        },
        shards.0,
        shards.1,
        match &plan {
            Some(p) => format!(
                "storm(links={} hotspots={} loss={:.1})",
                p.links.len(),
                p.hotspots.len(),
                p.sideband.loss_rate
            ),
            None => "clean".to_owned(),
        },
    );
    let fingerprint = checkpoint::fnv1a64(format!("{cfg:?}|{plan:?}").as_bytes());
    Trial {
        cfg,
        plan,
        shards,
        fingerprint,
        describe,
    }
}

/// Steps `sim` to cycle `until`. Its audit cadence is on, so an audit
/// violation panics; the pool turns that into a typed error.
fn step_to(sim: &mut Simulation, until: u64) {
    while sim.now() < until {
        sim.step();
    }
}

/// Runs one trial end to end under an audit every [`AUDIT_EVERY`] cycles
/// (and at every checkpoint) and returns its report line; `Err` names the
/// cause.
fn run_trial(seed: u64, trial: u64) -> Result<Rows, JobError> {
    let t = draw_trial(seed, trial);
    let mut sim = match &t.plan {
        Some(p) => Simulation::with_faults(t.cfg.clone(), p.clone()),
        None => Simulation::new(t.cfg.clone()),
    }
    .map_err(|e| format!("scenario rejected by validation: {e}"))?;
    sim.set_shards(t.shards.0);
    sim.set_audit_every(Some(AUDIT_EVERY));
    step_to(&mut sim, t.cfg.cycles / 2);

    // Fork at the midpoint: the restored half must replay bit-identically.
    let snap = sim.checkpoint();
    let mut twin = Simulation::restore(t.cfg.clone(), t.plan.clone(), &snap)
        .map_err(|e| format!("restore of own checkpoint failed: {e}"))?;
    twin.set_shards(t.shards.1);
    twin.set_audit_every(Some(AUDIT_EVERY));
    // Bounce the original's shard count mid-trial: the persistent worker
    // pool must tear down (join its workers) and rebuild cleanly with
    // traffic in flight. Returning to `shards.0` keeps the back half a
    // genuine cross-count comparison against the twin at `shards.1`.
    sim.set_shards(t.shards.1);
    sim.set_shards(t.shards.0);

    step_to(&mut sim, t.cfg.cycles);
    step_to(&mut twin, t.cfg.cycles);
    // Both checkpoints audit their network first.
    if sim.checkpoint() != twin.checkpoint() {
        let diverged = "restored run diverged from original: final checkpoints differ";
        return Err(JobError::Failed(diverged.to_owned()));
    }
    let line = format!(
        "trial {trial:3} fp={:016x} {} ok",
        t.fingerprint, t.describe
    );
    eprintln!("{line}");
    Ok(vec![vec![line]])
}

/// Runs `trials` as jobs of `ctx` and returns their report lines. A failing
/// trial prints its [`failure_report`] before its error is returned.
fn run_trials(ctx: &SweepCtx, args: &Args, trials: Vec<u64>) -> Result<Rows, SweepError> {
    let seed = args.seed;
    ctx.try_run_rows(trials, u64::to_string, |trial| run_trial(seed, trial))
        .inspect_err(|e| {
            if e.error != JobError::Interrupted {
                eprintln!("{}", failure_report(seed, e));
            }
        })
}

/// What a failed trial prints: its scenario, the cause and a one-line
/// repro (`--seed S --trial T` re-runs exactly that trial).
fn failure_report(seed: u64, e: &SweepError) -> String {
    let trial: u64 = e.label.parse().expect("a trial's label is its number");
    let t = draw_trial(seed, trial);
    format!(
        "CHAOS FAILURE: seed={seed} trial={trial} fp={:016x} [{}]\n  cause: {}\n  \
         repro: cargo run --release -p experiments --bin chaos -- --seed {seed} --trial {trial}",
        t.fingerprint, t.describe, e.error,
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    // Repro mode: one trial, no journal, no report.
    if let Some(trial) = args.trial {
        let ctx = SweepCtx::bare(Pool::new(1));
        if run_trials(&ctx, &args, vec![trial]).is_err() {
            std::process::exit(1);
        }
        println!("trial {trial} passed");
        return;
    }

    let fingerprint = checkpoint::fnv1a64(
        format!(
            "chaos|{}|{}|{AUDIT_EVERY}|{}",
            args.seed,
            args.trials,
            env!("CARGO_PKG_VERSION"),
        )
        .as_bytes(),
    );
    let door = FrontDoor::new(
        "chaos",
        args.out.join("chaos.journal"),
        fingerprint,
        args.resume,
    );
    let generate = |ctx: &SweepCtx| run_trials(ctx, &args, (0..args.trials).collect());
    let code = door.run(Pool::new(1), RuntimeOptions::default(), generate, |lines| {
        let report: String = lines.iter().map(|l| format!("{}\n", l[0])).collect();
        let report_path = args.out.join("chaos.report");
        if let Err(e) = write_atomic(&report_path, report.as_bytes()) {
            eprintln!("chaos: cannot write {}: {e}", report_path.display());
            return 1;
        }
        println!(
            "chaos: {} trials passed (seed={}, audit every {AUDIT_EVERY} cycles) -> {}",
            args.trials,
            args.seed,
            report_path.display()
        );
        0
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failed trial's report names its scenario and the command that
    /// re-runs exactly that trial.
    #[test]
    fn a_failure_prints_its_repro() {
        let e = SweepError {
            label: "3".to_owned(),
            error: JobError::Panicked("audit: 1 violation".to_owned()),
        };
        let report = failure_report(6, &e);
        let t = draw_trial(6, 3);
        assert!(report.starts_with(&format!(
            "CHAOS FAILURE: seed=6 trial=3 fp={:016x} [{}]",
            t.fingerprint, t.describe
        )));
        assert!(report.contains("cause: job panicked: audit: 1 violation"));
        assert!(report.ends_with(
            "repro: cargo run --release -p experiments --bin chaos -- --seed 6 --trial 3"
        ));
    }
}
