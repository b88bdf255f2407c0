//! `campaign` — runs a declarative scenario matrix.
//!
//! ```text
//! campaign --manifest FILE [--out DIR] [--resume] [--jobs N]
//! ```
//!
//! Parses and validates the manifest (see `EXPERIMENTS.md`, "Campaigns"),
//! expands its scenario matrix and runs every job in this process, as `fig`
//! runs its sweep points: each under the manifest's per-job wall budget,
//! with a crash-safe ledger for `--resume`. `--jobs N` (else `STCC_JOBS`,
//! else the machine's available parallelism) is how many jobs run at once;
//! it changes no output byte.
//!
//! Exit codes (the contract `tests/campaign.rs` and callers rely on):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | every job completed |
//! | 1    | internal/IO failure (ledger, report write) |
//! | 2    | usage error (bad flags, malformed `STCC_*` value) |
//! | 3    | manifest failed to load or validate |
//! | 4    | campaign completed but at least one job failed |
//! | 130  | interrupted by SIGINT/SIGTERM (resume with `--resume`) |

use experiments::campaign::{
    manifest::Manifest, orchestrate, CampaignOpts, EXIT_MANIFEST, EXIT_USAGE,
};
use experiments::options::jobs_flag;
use experiments::RuntimeOptions;
use std::path::PathBuf;

const USAGE: &str = "usage: campaign --manifest FILE [--out DIR] [--resume] [--jobs N]";

struct Args {
    manifest: PathBuf,
    out: PathBuf,
    resume: bool,
    jobs: Option<usize>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut manifest: Option<PathBuf> = None;
    let mut out = PathBuf::from("results/campaign");
    let mut resume = false;
    let mut jobs = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => {
                manifest = Some(PathBuf::from(it.next().ok_or("--manifest needs a value")?));
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--resume" => resume = true,
            "--jobs" => jobs = Some(jobs_flag(it.next())?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}' ({USAGE})")),
        }
    }
    let manifest = manifest.ok_or_else(|| format!("--manifest is required ({USAGE})"))?;
    Ok(Args {
        manifest,
        out,
        resume,
        jobs,
    })
}

fn main() {
    // The environment is resolved up front: a malformed value is a usage
    // error here, not a failed job later.
    let parsed = parse_args(std::env::args().skip(1))
        .and_then(|args| Ok((RuntimeOptions::from_env(args.jobs)?, args)));
    let (opts, args) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let text = match std::fs::read_to_string(&args.manifest) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign: cannot read {}: {e}", args.manifest.display());
            std::process::exit(EXIT_MANIFEST);
        }
    };
    let manifest = match Manifest::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("campaign: manifest error: {e}");
            std::process::exit(EXIT_MANIFEST);
        }
    };
    let campaign = CampaignOpts {
        out: args.out,
        resume: args.resume,
    };
    std::process::exit(orchestrate(&text, &manifest, &campaign, opts));
}
