//! `experiments` — the harness that regenerates every table and figure of
//! the paper (see DESIGN.md §5 for the experiment index).
//!
//! Each figure has a module under [`figures`] producing a [`Table`] of rows
//! and a row in [`figures::REGISTRY`]; the one `fig <name>` binary prints
//! the table and writes a CSV under `results/`. It accepts `--scale`
//! (`paper`, `reduced`, `smoke`, `tiny`) because the paper-scale runs
//! (600 000 cycles × many sweep points) take a while, `--net` (`paper`,
//! `small`) to shrink the network itself where the figure allows, and
//! `--jobs N` to fan the sweep's independent points across the
//! deterministic [`runner::Pool`] — the output is bit-identical at every
//! job count (see `tests/golden.rs`). Everything else that steers a run is
//! a [`RuntimeOptions`] value ([`options`] has the table), resolved once
//! from the command line and the `STCC_*` variables and passed down; no
//! library code reads or writes the process environment.
//!
//! Sweeps are crash-safe: the binary journals completed points
//! ([`journal`]), accepts `--resume` to skip them after a kill, writes its
//! CSV atomically, and guards each job against livelock and blown budgets
//! (see `EXPERIMENTS.md`, "Interrupting and resuming sweeps").

pub mod campaign;
pub mod cli;
pub mod figures;
pub mod journal;
pub mod options;
mod run;
pub mod runner;
mod scale;
pub mod sigint;
pub mod sweep;
pub mod table;

pub use cli::Cli;
pub use options::{JobBudget, RuntimeOptions};
pub use run::{
    steady_config, sweep_rates_for, try_run_point_instrumented, NetPreset, PointResult,
    SeriesResult,
};
pub use runner::{JobError, Pool, SweepError};
pub use scale::Scale;
pub use sweep::SweepCtx;
pub use table::Table;
