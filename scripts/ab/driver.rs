//! The in-process A/B driver that `scripts/ab.sh` builds: one binary
//! linking a base tree's `stcc` and this tree's, each stepping its own
//! simulation of one configuration, timed in alternating chunks of cycles
//! on identical states.
//!
//!   ab-driver <config>
//!
//! Configurations (the library presets the benchmark's workloads use):
//! `recovery` — the paper's 16-ary 2-cube in deadlock recovery under the
//! self-tuned throttle at Bernoulli 0.1 (`sat_tune`); `avoidance` — the
//! same net and load in Duato avoidance without control
//! (`sat_base_avoid`); `light` — the paper net in recovery under the
//! throttle at 0.001, below the knee (`light_tune`); `cube3` — the 12-ary
//! 3-cube at 0.012 under the
//! throttle (`cube3_tune_s2`'s net and load) at one shard; `cube3s2` — the
//! same at two shards, as `cube3_tune_s2` steps it; `resume` — `recovery`'s
//! net and load, with every side taking a checkpoint and restoring it into
//! a fresh simulation every 250 cycles (`resume_storm`'s cadence), so the
//! codec, the rebuild and the restore audit are inside the timed chunks;
//! `alo` — `recovery`'s net and load under the ALO baseline, whose gate
//! reads the useful channels on every injection attempt (no benchmark
//! workload isolates it).
//!
//! Three simulations of the configuration are built from one seed: the
//! base's, the change's and a second base one, the control. All three are
//! warmed up, then each round times one chunk of each, in an order that
//! runs through the six permutations of the three: every side takes every
//! place equally often, and in each pair each side goes first in half the
//! rounds (a side timed right after another can pay for it: a sharded
//! simulation's workers spin a while after its chunk). Across a round's
//! end too no side is timed twice in a row, and every side follows each
//! other side equally often: a side timed right after itself finds its
//! own workers still spinning and its lines in cache, and an order cycle
//! that gave the control that twice as often as the others read it 1–2 %
//! fast at two shards. A round's ratio is
//! the second side's chunk time over the base's. The
//! report gives each pair's median ratio, its quartiles and the share of
//! rounds the second side was faster; a change whose median ratio lies
//! inside the control's spread is not resolved from noise. Every chunk
//! must deliver the same flits on all three, and at the end all three
//! must agree on the network's counters, its full-buffer census and its
//! live packets — a comparison that holds across a checkpoint version
//! bump — and, when both trees write the same checkpoint version, on the
//! checkpoint bytes. Set-up time and peak memory are out of reach (one
//! process holds every side); the sequential benchmark keeps those.
//!
//! The driver speaks only `SimConfig`, `Scheme`, `Simulation::new`/`restore`/
//! `set_shards`/`step`/`now`/`checkpoint`/`network`, `Network::counters`/
//! `full_buffer_count`/`live_packets` and the presets: a change to that surface
//! edits the `side!` body below in the same change.

use std::time::Instant;

/// One tree's simulation, as the rounds drive it.
trait Side {
    /// Steps `cycles` cycles; returns the flits delivered meanwhile.
    fn step(&mut self, cycles: u64) -> u64;
    fn checkpoint(&self) -> Vec<u8>;
    /// The network's counters, full-buffer census and live packets, in a
    /// rendering no checkpoint version changes.
    fn end_state(&self) -> String;
}

macro_rules! side {
    ($tree:ident, $stcc:ident, $wormsim:ident, $traffic:ident, $checkpoint:ident) => {
        mod $tree {
            use $stcc::{Scheme, SimConfig, Simulation, TuneConfig};
            use $traffic::{Pattern, Process, Workload};
            use $wormsim::{DeadlockMode, NetConfig};

            pub const VERSION: u32 = $checkpoint::VERSION;

            /// A simulation, the configuration it restores under and
            /// its checkpoint cadence (`None`: it never restores).
            pub struct Sim(Simulation, SimConfig, Option<u64>);

            /// The simulation of `config` from `seed`, run for `cycles`.
            pub fn new(config: &str, seed: u64, cycles: u64) -> Sim {
                let recovery = DeadlockMode::PAPER_RECOVERY;
                let cube3 = NetConfig {
                    radix: 12,
                    dimensions: 3,
                    ..NetConfig::paper(recovery)
                };
                let (net, rate, law, shards) = match config {
                    "recovery" | "resume" => (NetConfig::paper(recovery), 0.1, "tune", 1),
                    "avoidance" => (NetConfig::paper(DeadlockMode::Avoidance), 0.1, "base", 1),
                    "light" => (NetConfig::paper(recovery), 0.001, "tune", 1),
                    "cube3" => (cube3, 0.012, "tune", 1),
                    "cube3s2" => (cube3, 0.012, "tune", 2),
                    "alo" => (NetConfig::paper(recovery), 0.1, "alo", 1),
                    other => {
                        panic!("no configuration {other:?}: recovery, avoidance, light, cube3, cube3s2, resume, alo")
                    }
                };
                let scheme = match law {
                    "tune" => Scheme::Tuned(TuneConfig::for_net(&net)),
                    "alo" => Scheme::Alo,
                    _ => Scheme::Base,
                };
                let cfg = SimConfig {
                    net,
                    workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
                    scheme,
                    cycles,
                    warmup: 0,
                    seed,
                };
                let mut sim = Simulation::new(cfg.clone()).expect("a valid configuration");
                sim.set_shards(shards);
                let every = (config == "resume").then_some(super::ROUNDTRIP_EVERY);
                Sim(sim, cfg, every)
            }

            impl super::Side for Sim {
                fn step(&mut self, cycles: u64) -> u64 {
                    let before = self.0.network().delivered_flits_cum();
                    for _ in 0..cycles {
                        self.0.step();
                        if self.2.is_some_and(|every| self.0.now() % every == 0) {
                            let bytes = self.0.checkpoint();
                            self.0 = Simulation::restore(self.1.clone(), None, &bytes)
                                .expect("a checkpoint restores into its own configuration");
                        }
                    }
                    self.0.network().delivered_flits_cum() - before
                }

                fn checkpoint(&self) -> Vec<u8> {
                    self.0.checkpoint()
                }

                fn end_state(&self) -> String {
                    let net = self.0.network();
                    format!(
                        "{:?} full_buffers={} live_packets={}",
                        net.counters(),
                        net.full_buffer_count(),
                        net.live_packets()
                    )
                }
            }
        }
    };
}

side!(base, stcc_base, wormsim_base, traffic_base, checkpoint_base);
side!(
    change,
    stcc_change,
    wormsim_change,
    traffic_change,
    checkpoint_change
);

/// Seed of every simulation.
const SEED: u64 = 7;
/// The `resume` configuration checkpoints and restores every this many
/// cycles (the benchmark's `resume_storm` cadence).
const ROUNDTRIP_EVERY: u64 = 250;
/// Cycles each side steps before the first timed chunk.
const WARMUP: u64 = 2_000;
/// Timed rounds: one chunk of each side per round.
const ROUNDS: u64 = 600;
/// The order of base (0), change (1) and control (2) in a round, by round
/// modulo 6: every permutation once, in a cycle whose round ends (each
/// order's last side, then the next order's first) are the six ordered
/// pairs of distinct sides, so no side is timed twice in a row.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [2, 1, 0],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
];

/// The chunk length of `config`: a few milliseconds on a 2-vCPU host,
/// long enough to time and short enough that the host's slow phases fall
/// on both sides of a round alike. Longer chunks read the same spread
/// there (250 cycles on the paper net, 100 on the 12-ary 3-cube). A
/// `resume` chunk is one round-trip period, so each holds one round trip.
fn chunk_of(config: &str) -> u64 {
    match config {
        "light" => 1_000,
        "resume" => ROUNDTRIP_EVERY,
        "cube3" | "cube3s2" => 50,
        _ => 100,
    }
}

/// Steps `side` one chunk and returns its wall time in nanoseconds and
/// its deliveries.
fn timed(side: &mut dyn Side, chunk: u64) -> (f64, u64) {
    let start = Instant::now();
    let flits = side.step(chunk);
    (start.elapsed().as_nanos() as f64, flits)
}

/// The `q`-quantile of sorted `xs`, interpolated.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let at = q * (xs.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (at - lo as f64)
}

/// Prints one pair's reading from its per-round ratios.
fn report(what: &str, ratios: &mut [f64]) {
    ratios.sort_by(f64::total_cmp);
    let faster = ratios.iter().filter(|&&r| r < 1.0).count();
    println!(
        "  {what:<16} median {:.4} (quartiles {:.4}–{:.4}), second side faster in {faster}/{} rounds",
        quantile(ratios, 0.5),
        quantile(ratios, 0.25),
        quantile(ratios, 0.75),
        ratios.len()
    );
}

fn main() {
    let config = std::env::args().nth(1).unwrap_or_else(|| "recovery".into());
    let config = config.as_str();
    let chunk = chunk_of(config);
    let cycles = WARMUP + ROUNDS * chunk + 1;
    let mut sides: [Box<dyn Side>; 3] = [
        Box::new(base::new(config, SEED, cycles)),
        Box::new(change::new(config, SEED, cycles)),
        Box::new(base::new(config, SEED, cycles)),
    ];
    for side in &mut sides {
        side.step(WARMUP);
    }
    let (mut change, mut control) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let (mut t, mut flits) = ([0.0; 3], [0; 3]);
        for i in ORDERS[round as usize % ORDERS.len()] {
            (t[i], flits[i]) = timed(sides[i].as_mut(), chunk);
        }
        assert!(
            flits[1] == flits[0] && flits[2] == flits[0],
            "round {round}: base, change and control delivered {flits:?} flits"
        );
        change.push(t[1] / t[0]);
        control.push(t[2] / t[0]);
    }
    println!(
        "ab {config}: {ROUNDS} rounds of {chunk} cycles after {WARMUP} warm-up cycles, seed {SEED}"
    );
    report("change / base", &mut change);
    report("control / base", &mut control);
    let state = sides[0].end_state();
    assert!(
        sides[1].end_state() == state && sides[2].end_state() == state,
        "the end states differ:\n  base    {state}\n  change  {}\n  control {}",
        sides[1].end_state(),
        sides[2].end_state()
    );
    let bytes = sides[0].checkpoint();
    if base::VERSION == change::VERSION {
        assert!(
            sides[1].checkpoint() == bytes && sides[2].checkpoint() == bytes,
            "the final checkpoints differ"
        );
        println!(
            "  every chunk delivered alike; end counters equal; final checkpoints equal ({} B)",
            bytes.len()
        );
    } else {
        println!(
            "  every chunk delivered alike; end counters equal; checkpoint version {} -> {}: \
             bytes not compared ({} -> {} B)",
            base::VERSION,
            change::VERSION,
            bytes.len(),
            sides[1].checkpoint().len()
        );
    }
}
