//! The six workloads and their untraced passes. Every end-to-end number
//! comes from here: plain `Simulation::step` / `generate_filtered` calls
//! with clock reads only at segment boundaries.
//!
//! Work is fixed, not time-boxed: each workload states its cycle counts for
//! a [`RUN_SECONDS`]-second timed region on the reference host (2 cores,
//! see README) and `--seconds` scales them linearly. A fixed amount of work
//! is what lets the simulated metrics and the final checkpoint repeat
//! exactly for a seed, and lets two commits be compared on equal inputs.

use crate::spec::RUN_SECONDS;
use crate::stats::median;
use experiments::figures::controllers::{generate_filtered, roster};
use experiments::{NetPreset, Pool, Scale, SweepCtx, Table};
use sideband::SidebandConfig;
use stcc::{ControllerCounters, Scheme, SimConfig, SimError, Simulation, TuneConfig};
use std::time::Instant;
use traffic::{Pattern, Process, Workload};
use wormsim::{Counters, DeadlockMode, NetConfig};

/// Timed segments per run; throughput metrics are medians over them, so
/// one descheduled stretch on a shared host cannot move a run's number.
pub const SEGMENTS: u64 = 10;
/// Set-ups per untraced run (`setup_s` is their median).
pub const SETUP_REPS: usize = 3;
/// Timed sweeps per untraced `sweep_zoo_jobs2` run (a sweep cannot be cut
/// into segments, so the median is over whole sweeps).
pub const SWEEP_REPS: usize = 3;
/// `resume_storm` checkpoints and restores every this many cycles.
pub const ROUNDTRIP_EVERY: u64 = 250;
/// Jobs of the sweep workload's runner pool.
pub const SWEEP_JOBS: usize = 2;
pub const GOLDEN_CSV: &str = "crates/experiments/tests/golden/fig_controllers.tiny.csv";

/// One simulation stepped from cycle 0: warm-up (part of set-up), then
/// [`SEGMENTS`] timed segments.
#[derive(Debug, Clone)]
pub struct SimPlan {
    pub cfg: SimConfig,
    pub shards: usize,
    /// Checkpoint → restore into a fresh simulation at every multiple of
    /// this many cycles inside the timed region.
    pub roundtrip_every: Option<u64>,
}

impl SimPlan {
    pub fn segment_len(&self) -> u64 {
        (self.cfg.cycles - self.cfg.warmup) / SEGMENTS
    }

    /// Where the reference run of this plan stops and is compared: the
    /// uninterrupted end for `resume_storm`, the first segment boundary for
    /// a sharded plan's unsharded twin, nowhere otherwise.
    pub fn reference_upto(&self) -> Option<u64> {
        if self.roundtrip_every.is_some() {
            Some(self.cfg.cycles)
        } else if self.shards > 1 {
            Some(self.cfg.warmup + self.segment_len())
        } else {
            None
        }
    }
}

// One plan exists per process, so the size spread between the variants
// costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Plan {
    Sim(SimPlan),
    /// The controller-zoo sweep over the first `schemes` of the roster
    /// (all 7 at nominal scale; fewer only below it, e.g. `--quick`).
    Sweep {
        schemes: usize,
    },
}

/// Nominal sizes for a [`RUN_SECONDS`]-second timed region on the
/// reference host: (warm-up cycles, measured cycles).
fn nominal(name: &str) -> (u64, u64) {
    match name {
        "sat_tune" => (10_000, 80_000),
        "sat_base_avoid" => (10_000, 60_000),
        "light_tune" => (100_000, 1_300_000),
        "cube3_tune_s2" => (2_000, 15_000),
        "resume_storm" => (10_000, 35_000),
        other => unreachable!("no nominal size for {other}"),
    }
}

/// Builds the plan of workload `name` for `seed` at `seconds` of timed
/// region. `None` for an unknown name.
pub fn plan(name: &str, seed: u64, seconds: f64) -> Option<Plan> {
    let scale = seconds / RUN_SECONDS as f64;
    let recovery = DeadlockMode::PAPER_RECOVERY;
    let uniform = |rate| Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate));
    let (net, workload, scheme, shards, roundtrip_every) = match name {
        "sat_tune" => (
            NetConfig::paper(recovery),
            uniform(0.1),
            Scheme::tuned_paper(),
            1,
            None,
        ),
        "sat_base_avoid" => (
            NetConfig::paper(DeadlockMode::Avoidance),
            uniform(0.1),
            Scheme::Base,
            1,
            None,
        ),
        "light_tune" => (
            NetConfig::paper(recovery),
            uniform(0.001),
            Scheme::tuned_paper(),
            1,
            None,
        ),
        "cube3_tune_s2" => (
            NetConfig {
                radix: 12,
                dimensions: 3,
                ..NetConfig::paper(recovery)
            },
            uniform(0.012),
            Scheme::Tuned(TuneConfig {
                sideband: SidebandConfig {
                    radix: 12,
                    dimensions: 3,
                    ..SidebandConfig::paper()
                },
                ..TuneConfig::paper()
            }),
            2,
            None,
        ),
        "resume_storm" => (
            NetConfig::paper(recovery),
            uniform(0.1),
            Scheme::tuned_paper(),
            1,
            Some(ROUNDTRIP_EVERY),
        ),
        "sweep_zoo_jobs2" => {
            let all = roster(NetPreset::Small).len();
            let schemes = ((all as f64 * scale).ceil() as usize).clamp(1, all);
            return Some(Plan::Sweep { schemes });
        }
        _ => return None,
    };
    let (warmup, measured) = nominal(name);
    // Whole round trips per segment, whole segments per run.
    let unit = roundtrip_every.unwrap_or(1);
    let round_up = |cycles: u64, to: u64| cycles.max(1).div_ceil(to) * to;
    let warmup = round_up((warmup as f64 * scale) as u64, unit);
    let measured = round_up((measured as f64 * scale) as u64, unit * SEGMENTS);
    Some(Plan::Sim(SimPlan {
        cfg: SimConfig {
            net,
            workload,
            scheme,
            cycles: warmup + measured,
            warmup,
            seed,
        },
        shards,
        roundtrip_every,
    }))
}

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// One timed segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub wall_s: f64,
    pub cycles: u64,
    pub flits: u64,
}

/// The throughput metrics of a timed region: medians over its segments.
pub fn cycles_per_s(segments: &[Segment]) -> f64 {
    median(
        &segments
            .iter()
            .map(|s| s.cycles as f64 / s.wall_s)
            .collect::<Vec<_>>(),
    )
}

/// Host nanoseconds per delivered flit: the region's flits per cycle at
/// its (median-of-segments) cycle rate. Not a per-segment median, because
/// the flits a segment delivers swing with the tuner's state.
pub fn ns_per_flit(segments: &[Segment]) -> f64 {
    let cycles: u64 = segments.iter().map(|s| s.cycles).sum();
    let flits: u64 = segments.iter().map(|s| s.flits).sum();
    1e9 * cycles as f64 / (cycles_per_s(segments) * flits as f64)
}

pub fn wall_s(segments: &[Segment]) -> f64 {
    segments.iter().map(|s| s.wall_s).sum()
}

/// What one untraced pass over a [`SimPlan`] produced.
#[derive(Debug)]
pub struct SimPass {
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    /// `Simulation::new` alone, per repetition.
    pub sim_new_s: Vec<f64>,
    pub segments: Vec<Segment>,
    pub accepted: f64,
    pub latency: f64,
    pub counters: Counters,
    pub controller: ControllerCounters,
    pub final_hash: u64,
    pub peak_rss_mb: Option<f64>,
    /// First-segment cycles/s of a sharded plan over its unsharded twin's.
    pub shard_speedup: Option<f64>,
}

/// Config → `Simulation::new` → `set_shards` → stepping the warm-up.
fn set_up(plan: &SimPlan) -> Result<(Simulation, f64, f64), SimError> {
    let start = Instant::now();
    let mut sim = Simulation::new(plan.cfg.clone())?;
    let new_s = start.elapsed().as_secs_f64();
    sim.set_shards(plan.shards);
    while sim.now() < plan.cfg.warmup {
        sim.step();
    }
    Ok((sim, start.elapsed().as_secs_f64(), new_s))
}

/// Steps `sim` to cycle `to`, performing the plan's checkpoint → restore
/// round trips on the way. Each round trip is one attempted operation.
fn advance(sim: &mut Simulation, plan: &SimPlan, to: u64, ops: &mut Ops) {
    while sim.now() < to {
        sim.step();
        let Some(every) = plan.roundtrip_every else {
            continue;
        };
        if sim.now().is_multiple_of(every) {
            ops.attempted += 1;
            let bytes = sim.checkpoint();
            match Simulation::restore(plan.cfg.clone(), None, &bytes) {
                Ok(mut fresh) => {
                    fresh.set_shards(plan.shards);
                    *sim = fresh;
                }
                Err(e) => ops.fail(format!("restore at cycle {}: {e}", sim.now())),
            }
        }
    }
}

/// Runs one timed segment of `plan` on `sim`.
fn timed_segment(sim: &mut Simulation, plan: &SimPlan, ops: &mut Ops) -> Segment {
    let to = sim.now() + plan.segment_len();
    let flits_before = sim.network().counters().delivered_flits;
    let start = Instant::now();
    advance(sim, plan, to, ops);
    Segment {
        wall_s: start.elapsed().as_secs_f64(),
        cycles: plan.segment_len(),
        flits: sim.network().counters().delivered_flits - flits_before,
    }
}

/// The untraced pass: `setup_reps` set-ups (the last one is kept), the
/// timed segments, then the plan's self-relative verifications.
pub fn run_sim(plan: &SimPlan, setup_reps: usize, ops: &mut Ops) -> Result<SimPass, SimError> {
    let mut setup_s = Vec::new();
    let mut sim_new_s = Vec::new();
    let mut kept = None;
    for _ in 0..setup_reps {
        // Freed first: two simulations must never coexist (`peak_rss_mb`).
        drop(kept.take());
        let (sim, total, new_s) = set_up(plan)?;
        setup_s.push(total);
        sim_new_s.push(new_s);
        kept = Some(sim);
    }
    let mut sim = kept.expect("at least one set-up");

    if plan.roundtrip_every.is_none() {
        ops.attempted += 1;
    }
    // Where the reference run is compared, this run's state is hashed too.
    let reference_at = plan.reference_upto();
    let mut reference_hash = None;
    let mut segments = Vec::new();
    for _ in 0..SEGMENTS {
        segments.push(timed_segment(&mut sim, plan, ops));
        if reference_at == Some(sim.now()) {
            reference_hash = Some(checkpoint::fnv1a64(&sim.checkpoint()));
        }
    }
    let final_hash = checkpoint::fnv1a64(&sim.checkpoint());
    let peak_rss_mb = crate::host::peak_rss_mb();

    let audit = sim.audit();
    ops.check(audit.is_clean(), || format!("end-state audit: {audit}"));
    let summary = sim.summary().expect("the run is past warm-up");
    let pass_counters = *sim.network().counters();
    let controller = sim.controller_counters();
    drop(sim);

    // Self-relative check against an unsharded, uninterrupted run of the
    // same configuration: `resume_storm` must end byte-identical to it, a
    // sharded run must be byte-identical to it at the first boundary.
    let mut shard_speedup = None;
    if let Some(upto) = reference_at {
        let expected = reference_hash.expect("the reference point is a segment boundary");
        let reference = SimPlan {
            shards: 1,
            roundtrip_every: None,
            ..plan.clone()
        };
        let (mut twin, _, _) = set_up(&reference)?;
        let first = timed_segment(&mut twin, &reference, &mut Ops::default());
        while twin.now() < upto {
            twin.step();
        }
        let twin_hash = checkpoint::fnv1a64(&twin.checkpoint());
        ops.check(twin_hash == expected, || {
            format!("checkpoint at cycle {upto} differs from the unsharded uninterrupted reference")
        });
        if plan.shards > 1 {
            shard_speedup = Some(first.wall_s / segments[0].wall_s);
        }
    }

    Ok(SimPass {
        setup_s,
        sim_new_s,
        segments,
        accepted: summary.throughput_flits(),
        latency: summary.network_latency.mean().unwrap_or(f64::NAN),
        counters: pass_counters,
        controller,
        final_hash,
        peak_rss_mb,
        shard_speedup,
    })
}

// ----------------------------------------------------------------------
// The sweep workload
// ----------------------------------------------------------------------

pub const SWEEP_NET: NetPreset = NetPreset::Small;
pub const SWEEP_SCALE: Scale = Scale::Tiny;

/// The first `n` schemes of the figure's roster.
pub fn sweep_schemes(n: usize) -> Vec<Scheme> {
    roster(SWEEP_NET).into_iter().take(n).collect()
}

/// What one untraced sweep produced.
#[derive(Debug)]
pub struct SweepPass {
    pub setup_s: Vec<f64>,
    /// Median wall of the timed sweeps.
    pub wall_s: f64,
    pub table: Table,
    pub csv_hash: u64,
    pub peak_rss_mb: Option<f64>,
}

impl SweepPass {
    pub fn points(&self) -> u64 {
        self.table.len() as u64
    }

    /// Simulated cycles of the whole sweep.
    pub fn cycles(&self) -> u64 {
        self.points() * SWEEP_SCALE.cycles()
    }

    fn column(&self, index: usize) -> impl Iterator<Item = f64> + '_ {
        self.table
            .rows()
            .iter()
            .filter_map(move |row| row[index].parse::<f64>().ok())
    }

    /// Mean accepted flits/node/cycle over the points (every point has the
    /// same node count and measured window, so this is delivered flits over
    /// nodes × measured cycles of the whole sweep).
    pub fn accepted(&self) -> f64 {
        self.column(4).sum::<f64>() / self.points() as f64
    }

    /// Flits delivered in the measured windows of all points.
    pub fn flits(&self) -> f64 {
        let nodes = SWEEP_NET.net(DeadlockMode::Avoidance).node_count() as f64;
        let measured = (SWEEP_SCALE.cycles() - SWEEP_SCALE.warmup()) as f64;
        self.column(4).sum::<f64>() * nodes * measured
    }

    /// Mean over the points of their mean network latency.
    pub fn latency(&self) -> f64 {
        let values: Vec<f64> = self.column(5).collect();
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The golden CSV restricted to the rows of `schemes` (the golden holds
/// the full roster; a scaled-down sweep runs a prefix of it).
fn golden_rows_for(golden: &str, schemes: &[Scheme]) -> String {
    let labels: Vec<String> = schemes.iter().map(Scheme::label).collect();
    golden
        .lines()
        .enumerate()
        .filter(|(i, line)| {
            *i == 0
                || line
                    .split(',')
                    .nth(1)
                    .is_some_and(|scheme| labels.iter().any(|l| l == scheme))
        })
        .map(|(_, line)| format!("{line}\n"))
        .collect()
}

/// The untraced sweep: `setup_reps` × (pool, context and a warm-up sweep of
/// the roster's first scheme), then `timed_reps` timed `generate_filtered`
/// over `schemes`, each verified against the simulator's own golden CSV.
pub fn run_sweep(
    schemes: &[Scheme],
    setup_reps: usize,
    timed_reps: usize,
    ops: &mut Ops,
) -> Result<SweepPass, String> {
    let golden = std::fs::read_to_string(GOLDEN_CSV)
        .map_err(|e| format!("{GOLDEN_CSV}: {e} (run from the repository root)"))?;
    let mut setup_s = Vec::new();
    let mut ctx = None;
    for _ in 0..setup_reps {
        let start = Instant::now();
        let fresh = SweepCtx::bare(Pool::new(SWEEP_JOBS));
        generate_filtered(SWEEP_NET, SWEEP_SCALE, &fresh, &sweep_schemes(1))
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        ctx = Some(fresh);
    }
    let ctx = ctx.expect("at least one set-up");

    let expected = golden_rows_for(&golden, schemes);
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..timed_reps {
        let start = Instant::now();
        let table =
            generate_filtered(SWEEP_NET, SWEEP_SCALE, &ctx, schemes).map_err(|e| e.to_string())?;
        walls.push(start.elapsed().as_secs_f64());

        let csv = table.to_csv();
        ops.attempted += table.len() as u64;
        for (i, (got, want)) in csv.lines().zip(expected.lines()).enumerate() {
            ops.check(got == want, || {
                format!("csv line {i}: got `{got}`, golden `{want}`")
            });
        }
        ops.check(csv.lines().count() == expected.lines().count(), || {
            format!(
                "csv has {} lines, golden {}",
                csv.lines().count(),
                expected.lines().count()
            )
        });
        last = Some((table, checkpoint::fnv1a64(csv.as_bytes())));
    }
    let (table, csv_hash) = last.expect("at least one timed sweep");
    Ok(SweepPass {
        setup_s,
        wall_s: median(&walls),
        csv_hash,
        table,
        peak_rss_mb: crate::host::peak_rss_mb(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_scale_with_seconds_and_keep_whole_segments() {
        for w in crate::spec::WORKLOADS {
            for seconds in [0.5, 1.0, 5.0] {
                match plan(w.name, 7, seconds).expect("every spec name has a plan") {
                    Plan::Sim(p) => {
                        let measured = p.cfg.cycles - p.cfg.warmup;
                        assert_eq!(measured % SEGMENTS, 0, "{}", w.name);
                        if let Some(every) = p.roundtrip_every {
                            assert_eq!(p.segment_len() % every, 0);
                            assert_eq!(p.cfg.warmup % every, 0);
                        }
                        assert_eq!(p.cfg.seed, 7);
                    }
                    Plan::Sweep { schemes } => assert!((1..=7).contains(&schemes)),
                }
            }
        }
        assert!(plan("nope", 7, 5.0).is_none());
        let size = |s| match plan("sat_tune", 1, s) {
            Some(Plan::Sim(p)) => p.cfg.cycles,
            _ => unreachable!(),
        };
        assert_eq!(size(5.0), 90_000);
        assert_eq!(size(0.5), 9_000);
    }

    #[test]
    fn golden_filter_keeps_header_and_named_schemes() {
        let golden = "pattern,scheme,x\nu,base,1\nu,alo,2\nt,base,3\n";
        let kept = golden_rows_for(golden, &[Scheme::Base]);
        assert_eq!(kept, "pattern,scheme,x\nu,base,1\nt,base,3\n");
    }
}
