//! One bench per reproduced table/figure, each running a miniature version
//! of the same experiment (8-ary 2-cube, short horizon). These regress the
//! end-to-end simulator cost behind every artifact; the full-size artifacts
//! are produced by the `experiments` binaries.

use bench::harness::{BenchConfig, Group};
use bench::run_mini;
use experiments::figures::fig2;
use experiments::runner::Pool;
use experiments::{NetPreset, Scale, SweepCtx};
use sideband::SidebandConfig;
use stcc::{Controller, Scheme, SimConfig, Simulation};
use std::hint::black_box;
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

const CYCLES: u64 = 6_000;

/// The same sweep the runner parallelizes, timed at 1 worker and at the
/// host's available parallelism: on a multi-core machine the ratio is the
/// wall-clock speedup the `--jobs` knob buys; on a single-core host the
/// two land within noise of each other (the runner adds no real overhead).
fn parallel_sweep() {
    let mut g = Group::new(
        "parallel_sweep (fig2, tiny, small net)",
        BenchConfig {
            samples: 3,
            iters_per_sample: 1,
            warmup_iters: 1,
        },
    );
    let host_jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let counts = if host_jobs > 1 {
        vec![1, host_jobs]
    } else {
        vec![1]
    };
    for jobs in counts {
        let ctx = SweepCtx::bare(Pool::new(jobs));
        g.bench(&format!("fig2_tiny_jobs_{jobs}"), || {
            black_box(
                fig2::generate_on(NetPreset::Small, Scale::Tiny, &ctx)
                    .expect("tiny fig2 sweep")
                    .to_csv()
                    .len(),
            )
        });
    }
}

fn main() {
    let mut g = Group::new(
        "paper_figures",
        BenchConfig {
            samples: 10,
            iters_per_sample: 1,
            warmup_iters: 1,
        },
    );

    // Figure 1: base saturation breakdown (below and beyond the cliff).
    g.bench("fig1_base_light_load", || {
        run_mini(
            Scheme::Base,
            DeadlockMode::PAPER_RECOVERY,
            black_box(0.005),
            CYCLES,
        )
    });
    g.bench("fig1_base_saturated", || {
        run_mini(
            Scheme::Base,
            DeadlockMode::PAPER_RECOVERY,
            black_box(0.06),
            CYCLES,
        )
    });

    // Figure 2: throughput-vs-occupancy point (same machinery, mid load).
    g.bench("fig2_tput_vs_buffers", || {
        run_mini(
            Scheme::Base,
            DeadlockMode::PAPER_RECOVERY,
            black_box(0.02),
            CYCLES,
        )
    });

    // Figure 3: the three schemes at overload, both deadlock modes.
    for (mode, name) in [
        (DeadlockMode::PAPER_RECOVERY, "recovery"),
        (DeadlockMode::Avoidance, "avoidance"),
    ] {
        g.bench(&format!("fig3_base_{name}"), || {
            run_mini(Scheme::Base, mode, black_box(0.06), CYCLES)
        });
        g.bench(&format!("fig3_alo_{name}"), || {
            run_mini(Scheme::Alo, mode, black_box(0.06), CYCLES)
        });
        g.bench(&format!("fig3_tune_{name}"), || {
            run_mini(Scheme::tuned_paper(), mode, black_box(0.06), CYCLES)
        });
    }

    // Figure 4: tuning trace (periodic load, avoidance).
    g.bench("fig4_tuning_trace", || {
        let mut sim = Simulation::new(SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: Workload::steady(Pattern::UniformRandom, Process::periodic(100)),
            scheme: Scheme::tuned_paper(),
            cycles: CYCLES,
            warmup: CYCLES / 6,
            seed: 4,
        })
        .expect("valid fig4 bench config");
        sim.run_to_end();
        black_box(sim.tuned().and_then(stcc::SelfTuned::threshold))
    });

    // Figure 5: static thresholds.
    g.bench("fig5_static_vs_tuned", || {
        run_mini(
            Scheme::Static {
                threshold: 60,
                sideband: SidebandConfig {
                    radix: 8,
                    ..SidebandConfig::paper()
                },
            },
            DeadlockMode::PAPER_RECOVERY,
            black_box(0.06),
            CYCLES,
        )
    });

    // Figures 6/7: the bursty workload.
    g.bench("fig7_bursty", || {
        let mut sim = Simulation::new(SimConfig {
            net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
            workload: Workload::bursty(CYCLES / 6, 1_500, 15),
            scheme: Scheme::tuned_paper(),
            cycles: CYCLES,
            warmup: CYCLES / 12,
            seed: 7,
        })
        .expect("valid fig7 bench config");
        sim.run_to_end();
        black_box(sim.network().counters().delivered_flits)
    });

    parallel_sweep();
}
