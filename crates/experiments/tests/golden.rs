//! Golden snapshot tests: the committed `tests/golden/*.tiny.csv` files
//! are the reference outputs of `fig` fig2/fig4/fig5/controllers/resilience
//! on the small network preset (8-ary 2-cube) at tiny scale. Each test re-simulates and
//! asserts the CSV rendering is **byte-identical** to the snapshot —
//! at `--jobs 1`, `2` and `8`, and across two runs at the same seed —
//! which is the determinism guarantee the parallel runner advertises.
//!
//! Regenerate after an intentional simulator change with:
//!
//! ```text
//! for f in fig2 fig4 fig5 controllers resilience; do
//!   cargo run --release -p experiments --bin fig -- $f \
//!     --scale tiny --net small --out crates/experiments/tests/golden
//! done
//! ```

use experiments::figures::{Figure, REGISTRY};
use experiments::runner::Pool;
use experiments::{Cli, NetPreset, RuntimeOptions, Scale, SweepCtx};
use std::path::PathBuf;

/// The command line every golden was recorded with.
fn tiny() -> Cli {
    Cli {
        scale: Scale::Tiny,
        net: Some(NetPreset::Small),
        ..Cli::default()
    }
}

fn golden_path(fig: &Figure) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.tiny.csv", fig.stem))
}

fn golden(fig: &Figure) -> String {
    std::fs::read_to_string(golden_path(fig)).expect("committed golden")
}

/// The registry rows that have a committed golden.
fn with_golden() -> Vec<&'static Figure> {
    let figs: Vec<_> = REGISTRY
        .iter()
        .filter(|f| golden_path(f).exists())
        .collect();
    assert_eq!(figs.len(), 5, "a golden CSV lost its registry row");
    figs
}

fn check(name: &str, job_counts: &[usize]) {
    let fig = experiments::figures::find(name).expect("registered figure");
    let want = golden(fig);
    for &jobs in job_counts {
        let ctx = SweepCtx::bare(Pool::new(jobs));
        let t =
            (fig.generate)(&tiny(), &ctx).unwrap_or_else(|e| panic!("{name} @ jobs={jobs}: {e}"));
        assert_eq!(
            t.to_csv(),
            want,
            "{name} differs from golden snapshot at jobs={jobs}"
        );
    }
}

#[test]
fn fig2_matches_golden_at_every_job_count() {
    check("fig2", &[1, 2, 8]);
}

#[test]
fn fig4_matches_golden_at_every_job_count() {
    check("fig4", &[1, 2, 8]);
}

#[test]
fn fig5_matches_golden_at_every_job_count() {
    check("fig5", &[1, 8]);
}

#[test]
fn controllers_matches_golden_at_every_job_count() {
    check("controllers", &[1, 2, 8]);
}

#[test]
fn resilience_matches_golden_at_every_job_count() {
    check("resilience", &[1, 2, 8]);
}

#[test]
fn two_runs_same_seed_are_identical() {
    let fig2 = experiments::figures::find("fig2").expect("registered figure");
    let run = || {
        (fig2.generate)(&tiny(), &SweepCtx::bare(Pool::new(8)))
            .expect("fig2 tiny sweep")
            .to_csv()
    };
    assert_eq!(run(), run(), "same-seed reruns must be byte-identical");
}

/// Shard invariance, end to end: every figure's tiny CSV must be
/// byte-identical to the committed golden when each simulation steps
/// across 1, 2, 4 or 8 intra-network shards — the `--shards` option, handed
/// to the sweep context the way the binary hands it, the analogue of the
/// `--jobs` axis above.
#[test]
fn every_figure_matches_golden_at_every_shard_count() {
    for shards in [1usize, 2, 4, 8] {
        for fig in with_golden() {
            let want = golden(fig);
            let ctx = SweepCtx::bare(Pool::new(2)).with_options(RuntimeOptions {
                shards,
                ..RuntimeOptions::default()
            });
            let t = (fig.generate)(&tiny(), &ctx)
                .unwrap_or_else(|e| panic!("{} @ shards={shards}: {e}", fig.name));
            assert_eq!(
                t.to_csv(),
                want,
                "{} differs from golden snapshot at shards={shards}",
                fig.name
            );
        }
    }
}
