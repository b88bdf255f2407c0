//! `campaign` — the supervised campaign orchestrator.
//!
//! ```text
//! campaign --manifest FILE [--out DIR] [--resume] [--workers N]
//! ```
//!
//! Parses and validates the declarative manifest (see `EXPERIMENTS.md`,
//! "Campaigns"), expands its scenario matrix, and executes every job as an
//! isolated worker process — this same binary re-invoked in the hidden
//! `--job IDX --attempt K` mode — with per-job budgets, deterministic
//! retry backoff, quarantine, and a crash-safe ledger for `--resume`.
//!
//! Exit codes (the contract `tests/campaign.rs` and callers rely on):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | every job completed |
//! | 1    | internal/IO failure (ledger, report write) |
//! | 2    | usage error (bad flags, malformed `STCC_*` value) |
//! | 3    | manifest failed to load or validate |
//! | 4    | campaign completed but quarantined at least one job |
//! | 130  | interrupted by SIGINT/SIGTERM (resume with `--resume`) |

use experiments::campaign::{
    manifest::Manifest, orchestrate, worker_main, CampaignOpts, EXIT_MANIFEST, EXIT_USAGE,
};
use experiments::RuntimeOptions;
use std::path::PathBuf;

const USAGE: &str = "usage: campaign --manifest FILE [--out DIR] [--resume] [--workers N]";

struct Args {
    manifest: PathBuf,
    out: PathBuf,
    resume: bool,
    workers: Option<usize>,
    job: Option<u64>,
    attempt: u32,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut manifest: Option<PathBuf> = None;
    let mut out = PathBuf::from("results/campaign");
    let mut resume = false;
    let mut workers = None;
    let mut job = None;
    let mut attempt = 0;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => {
                manifest = Some(PathBuf::from(it.next().ok_or("--manifest needs a value")?));
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--resume" => resume = true,
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count '{v}'"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
                workers = Some(n);
            }
            "--job" => {
                let v = it.next().ok_or("--job needs a value")?;
                job = Some(v.parse().map_err(|_| format!("bad job index '{v}'"))?);
            }
            "--attempt" => {
                let v = it.next().ok_or("--attempt needs a value")?;
                attempt = v.parse().map_err(|_| format!("bad attempt '{v}'"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}' ({USAGE})")),
        }
    }
    let manifest = manifest.ok_or_else(|| format!("--manifest is required ({USAGE})"))?;
    Ok(Args {
        manifest,
        out,
        resume,
        workers,
        job,
        attempt,
    })
}

fn main() {
    // Orchestrator and worker alike resolve the environment up front: a
    // malformed value is a usage error here, not a quarantined job later.
    let parsed = parse_args(std::env::args().skip(1))
        .and_then(|args| Ok((args, RuntimeOptions::from_env()?)));
    let (args, opts) = match parsed {
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
    if let Some(idx) = args.job {
        // Hidden worker mode: run exactly one job in this process.
        std::process::exit(worker_main(&manifest, idx, args.attempt, opts));
    }
    let opts = CampaignOpts {
        manifest: args.manifest,
        out: args.out,
        resume: args.resume,
        workers: args.workers,
    };
    std::process::exit(orchestrate(&text, &manifest, &opts));
}
