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
//! The harness is crash-safe the same way the figure sweeps are: completed
//! trials are journaled, `--resume` skips them after a kill, and the final
//! report (`<out>/chaos.report`) is byte-identical for a given seed whether
//! the run was interrupted or not — which is itself part of what CI checks.
//!
//! Usage: `chaos [--seed N] [--trials N] [--audit-every N] [--out DIR]
//! [--trial T] [--resume]`.

use experiments::journal::Journal;
use experiments::sigint;
use faults::{FaultPlan, HotspotFault, LinkFault, SidebandFaults};
use sideband::SidebandConfig;
use stcc::{AimdConfig, BbrConfig, DecBitConfig, Scheme, SimConfig, Simulation, TuneConfig};
use std::path::{Path, PathBuf};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// 16 nodes: big enough for every deadlock mode and pattern, small enough
/// that a full-scan audit every few cycles costs almost nothing.
const RADIX: usize = 4;
const DIMENSIONS: usize = 2;
const NODES: usize = 16;

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    trials: u64,
    audit_every: u64,
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
            audit_every: 32,
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
            "--audit-every" => {
                args.audit_every = num("--audit-every")?;
                if args.audit_every == 0 {
                    return Err("--audit-every must be at least 1".to_owned());
                }
            }
            "--trial" => args.trial = Some(num("--trial")?),
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--resume" => args.resume = true,
            "--help" | "-h" => {
                return Err(
                    "usage: chaos [--seed N] [--trials N] [--audit-every N] [--out DIR] \
                     [--trial T] [--resume]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// SplitMix64: the same generator the traffic crate uses, re-derived here
/// so the harness owns its stream and a repro depends on nothing else.
struct Rng(u64);

impl Rng {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        Self::mix(self.0)
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
    let mut rng = Rng(Rng::mix(seed ^ trial.wrapping_mul(0xa076_1d64_78bd_642f)));

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
        2 => Scheme::Static {
            threshold: 2 + rng.below(40) as u32,
            sideband,
        },
        3 => Scheme::Aimd(AimdConfig {
            sideband,
            ..AimdConfig::paper()
        }),
        4 => Scheme::DecBit(DecBitConfig {
            sideband,
            ..DecBitConfig::paper()
        }),
        5 => Scheme::Bbr(BbrConfig {
            sideband,
            ..BbrConfig::paper()
        }),
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

/// Steps `sim` to `until`, running a full audit every `audit_every` cycles.
/// Returns the first violation report instead of panicking, so the harness
/// can print a repro line and keep its journal intact.
fn step_audited(sim: &mut Simulation, until: u64, audit_every: u64) -> Result<(), String> {
    while sim.now() < until {
        sim.step();
        if sim.now().is_multiple_of(audit_every) {
            let report = sim.audit();
            if !report.is_clean() {
                return Err(format!("{report}"));
            }
        }
    }
    Ok(())
}

/// Runs one trial end to end; `Err` carries a human-readable cause
/// (boxed: the scenario rides along for the repro line).
fn run_trial(seed: u64, trial: u64, audit_every: u64) -> Result<Trial, Box<(Trial, String)>> {
    let t = draw_trial(seed, trial);
    let fail = |t: Trial, msg: String| Err(Box::new((t, msg)));

    let mut sim = match &t.plan {
        Some(p) => Simulation::with_faults(t.cfg.clone(), p.clone()),
        None => Simulation::new(t.cfg.clone()),
    }
    .map_err(|e| {
        Box::new((
            draw_trial(seed, trial),
            format!("scenario rejected by validation: {e}"),
        ))
    })?;
    // The harness audits manually (`step_audited`), so a violation yields a
    // repro line, not a panic.
    sim.set_shards(t.shards.0);

    let mid = t.cfg.cycles / 2;
    if let Err(v) = step_audited(&mut sim, mid, audit_every) {
        return fail(t, format!("audit violation before midpoint: {v}"));
    }

    // Fork at the midpoint: the restored half must replay bit-identically.
    let snap = sim.checkpoint();
    let mut twin = match Simulation::restore(t.cfg.clone(), t.plan.clone(), &snap) {
        Ok(s) => s,
        Err(e) => return fail(t, format!("restore of own checkpoint failed: {e}")),
    };
    twin.set_shards(t.shards.1);
    // Bounce the original's shard count mid-trial: the persistent worker
    // pool must tear down (join its workers) and rebuild cleanly with
    // traffic in flight. Returning to `shards.0` keeps the back half a
    // genuine cross-count comparison against the twin at `shards.1`.
    sim.set_shards(t.shards.1);
    sim.set_shards(t.shards.0);

    let end = t.cfg.cycles;
    if let Err(v) = step_audited(&mut sim, end, audit_every) {
        return fail(t, format!("audit violation after midpoint (original): {v}"));
    }
    if let Err(v) = step_audited(&mut twin, end, audit_every) {
        return fail(t, format!("audit violation after midpoint (restored): {v}"));
    }
    if sim.checkpoint() != twin.checkpoint() {
        return fail(
            t,
            "restored run diverged from original: final checkpoints differ".to_owned(),
        );
    }
    let report = sim.audit();
    if !report.is_clean() {
        return fail(t, format!("final audit: {report}"));
    }
    Ok(t)
}

fn report_line(trial: u64, t: &Trial) -> String {
    format!(
        "trial {trial:3} fp={:016x} {} ok",
        t.fingerprint, t.describe
    )
}

/// Writes the report atomically (temp + rename) so a kill mid-write can't
/// leave a torn file for the determinism comparison to trip over.
fn write_report(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("report.tmp");
    std::fs::write(&tmp, lines.join("\n") + "\n")?;
    std::fs::rename(&tmp, path)
}

fn fail_loudly(args: &Args, trial: u64, t: &Trial, cause: &str) -> ! {
    eprintln!(
        "CHAOS FAILURE: seed={} trial={trial} fp={:016x} [{}]\n  cause: {cause}\n  \
         repro: cargo run --release -p experiments --bin chaos -- --seed {} --trial {trial}",
        args.seed, t.fingerprint, t.describe, args.seed,
    );
    std::process::exit(1);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    sigint::install();

    // Repro mode: one trial, no journal, no report.
    if let Some(trial) = args.trial {
        match run_trial(args.seed, trial, args.audit_every) {
            Ok(t) => {
                println!("{}", report_line(trial, &t));
                println!("trial {trial} passed");
            }
            Err(e) => fail_loudly(&args, trial, &e.0, &e.1),
        }
        return;
    }

    let journal_path = args.out.join("chaos.journal");
    let fingerprint = checkpoint::fnv1a64(
        format!(
            "chaos|{}|{}|{}|{}",
            args.seed,
            args.trials,
            args.audit_every,
            env!("CARGO_PKG_VERSION"),
        )
        .as_bytes(),
    );
    let (mut journal, load) = match Journal::begin(&journal_path, fingerprint, args.resume) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("chaos: cannot open journal {}: {e}", journal_path.display());
            std::process::exit(1);
        }
    };
    if args.resume && !load.done.is_empty() {
        eprintln!("[resuming: {} completed trials journaled]", load.done.len());
    }

    let mut lines: Vec<String> = Vec::with_capacity(args.trials as usize);
    for trial in 0..args.trials {
        if sigint::interrupted() {
            eprintln!(
                "chaos: interrupted after {} trials; re-run with --resume to continue",
                lines.len()
            );
            std::process::exit(experiments::sigint::EXIT_INTERRUPTED);
        }
        if let Some(rows) = load.done.get(&trial) {
            // Journaled line from a previous run: reuse verbatim so the
            // resumed report is byte-identical to an uninterrupted one.
            lines.push(rows[0][0].clone());
            continue;
        }
        match run_trial(args.seed, trial, args.audit_every) {
            Ok(t) => {
                let line = report_line(trial, &t);
                eprintln!("{line}");
                if let Err(e) = journal.append(trial, &vec![vec![line.clone()]]) {
                    eprintln!("chaos: cannot journal trial {trial}: {e}");
                    std::process::exit(1);
                }
                lines.push(line);
            }
            Err(e) => fail_loudly(&args, trial, &e.0, &e.1),
        }
    }

    let report_path = args.out.join("chaos.report");
    if let Err(e) = write_report(&report_path, &lines) {
        eprintln!("chaos: cannot write {}: {e}", report_path.display());
        std::process::exit(1);
    }
    let _ = std::fs::remove_file(&journal_path);
    println!(
        "chaos: {} trials passed (seed={}, audit every {} cycles) -> {}",
        args.trials,
        args.seed,
        args.audit_every,
        report_path.display()
    );
}
