//! The repo benchmark. See `benchmark/README.md` for what is measured and
//! why; `benchmark/run.sh` builds and runs this program.
//!
//! ```text
//! stcc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result object
//! stcc-benchmark [--reps <n>] [--quick] [--check-repeat] [--seed <n>]
//!     every workload, interleaved, each repetition in a fresh child process
//! stcc-benchmark --check-spread
//!     ten seeds per workload: each metric's spread against its bound
//! stcc-benchmark --manifest
//!     prints the contents of BENCHMARK.json
//! ```

mod host;
mod json;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

const DEFAULT_SEED: u64 = 7;

fn usage(problem: &str) -> ExitCode {
    eprintln!("stcc-benchmark: {problem}");
    eprintln!(
        "usage: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         run.sh [--reps <n>] [--quick] [--check-repeat | --check-spread] [--seed <n>]\n       \
         run.sh --manifest\nworkloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

/// The command line, parsed.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    manifest: bool,
    suite: suite::Options,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        manifest: false,
        suite: suite::Options::default(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 60.0 => s,
                    _ => return Err(format!("bad seconds `{v}` (want 0 < s <= 60)")),
                };
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace `{v}` (want 0 or 1)")),
                };
            }
            "--reps" => {
                let v = value()?;
                cli.suite.reps = match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(format!("bad reps `{v}`")),
                };
            }
            "--quick" => cli.suite.quick = true,
            "--check-repeat" => cli.suite.check_repeat = true,
            "--check-spread" => cli.suite.check_spread = true,
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.suite.seed = cli.seed;
    Ok(cli)
}

fn main() -> ExitCode {
    // The simulator reads these at construction; a benchmark run must not
    // inherit a shard count or an audit cadence from the caller's shell.
    for var in [
        "STCC_SHARDS",
        "STCC_AUDIT",
        "STCC_CKPT_EVERY",
        "STCC_STAGE_STATS",
    ] {
        std::env::remove_var(var);
    }
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(problem) => return usage(&problem),
    };
    if cli.manifest {
        print!("{}", spec::manifest());
        return ExitCode::SUCCESS;
    }
    let Some(workload) = cli.workload else {
        return suite::run(&cli.suite);
    };
    match run::run(&workload, cli.seed, cli.seconds, cli.traced) {
        Ok(report) => {
            run::emit(&report, cli.traced);
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("stcc-benchmark: {workload}: {problem}");
            ExitCode::FAILURE
        }
    }
}
