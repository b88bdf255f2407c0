//! Supervised campaign runner: a declarative scenario matrix executed by a
//! fault-tolerant multi-process orchestrator.
//!
//! A campaign ([`manifest::Manifest`]) expands to a deterministic job list
//! (the cross product of every scenario's axes, in manifest order). The
//! orchestrator runs each job in an **isolated OS process** — the
//! `campaign` binary re-invoked in its hidden `--job` mode — so a worker
//! that panics, blows its budget, or is killed takes down one job, never
//! the campaign. Each job is supervised with:
//!
//! - a per-job wall budget, enforced cooperatively inside the worker (the
//!   run guard) and by a hard kill from the orchestrator as a backstop;
//! - bounded retries with deterministic exponential [`backoff`] (seeded
//!   jitter — the full retry schedule is a pure function of the manifest);
//! - **quarantine**: a job failing every attempt is recorded with its
//!   typed failure and the campaign continues.
//!
//! The orchestrator is one more tool behind the [`FrontDoor`]: each job's
//! whole retry loop is one job of [`SweepCtx::try_run_rows`], so the rows
//! it ends with land in the crash-safe ledger (the crc-checked append-only
//! [`crate::journal`]), and `--resume` after a SIGKILL — of the
//! orchestrator *or* any worker — replays finished jobs verbatim. A
//! quarantined job is journaled the same way, as its row with status
//! `quarantined` and the tally of its failed attempts; the front door
//! drops such rows from the replay set on `--resume`, so the job is
//! retried from its first attempt. Because every job and every row
//! rendering is deterministic, a resumed campaign's final report is
//! byte-identical to an uninterrupted run (`tests/campaign.rs` proves it).

pub mod backoff;
pub mod manifest;

use crate::journal::{FailureKind, Rows};
use crate::runner::{JobError, Pool};
use crate::sweep::{write_atomic, FrontDoor};
use crate::table::fnum;
use crate::{steady_config, NetPreset, RuntimeOptions, Scale, SweepCtx, Table};
use faults::{FaultPlan, HotspotFault, LinkFault, SidebandFaults};
use manifest::{FaultSpec, Manifest};
use stcc::Scheme;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use traffic::{Pattern, SimRng};
use wormsim::DeadlockMode;

/// Exit code of a clean campaign: every job succeeded.
pub const EXIT_OK: i32 = 0;
/// Usage error (bad flags).
pub const EXIT_USAGE: i32 = 2;
/// The manifest failed to load or validate.
pub const EXIT_MANIFEST: i32 = 3;
/// The campaign completed but quarantined at least one job.
pub const EXIT_QUARANTINED: i32 = 4;
/// A worker failed in its hidden `--job` mode (typed failure on stdout).
pub const EXIT_WORKER_FAILED: i32 = 6;

const OK_TAG: &str = "STCC-JOB-OK";
const ERR_TAG: &str = "STCC-JOB-ERR";

/// One fully resolved job of the campaign matrix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Position in the expanded list (stable across runs: the ledger key).
    pub idx: u64,
    /// Owning scenario id.
    pub scenario: String,
    /// Scheme registry name.
    pub scheme: String,
    /// Pattern registry name.
    pub pattern: String,
    /// Offered load, packets/node/cycle.
    pub rate: f64,
    /// Fault axis entry.
    pub fault: FaultSpec,
    /// Network preset.
    pub net: NetPreset,
    /// Simulation length preset.
    pub scale: Scale,
    /// The job's simulation seed, derived from the campaign seed and every
    /// axis coordinate.
    pub seed: u64,
}

impl JobSpec {
    /// Progress/report label: `scenario/scheme/pattern@rate+fault`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}@{}+{}",
            self.scenario,
            self.scheme,
            self.pattern,
            fnum(self.rate),
            self.fault.label()
        )
    }
}

/// Expands a manifest into its deterministic job list: scenarios in
/// manifest order, axes nested schemes → patterns → rates → faults.
#[must_use]
pub fn expand(m: &Manifest) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for sc in &m.scenarios {
        for scheme in &sc.schemes {
            for pattern in &sc.patterns {
                for &rate in &sc.rates {
                    for fault in &sc.faults {
                        let seed = checkpoint::fnv1a64(
                            format!(
                                "job|{}|{}|{}|{}|{}|{}",
                                m.seed,
                                sc.id,
                                scheme,
                                pattern,
                                fnum(rate),
                                fault.label()
                            )
                            .as_bytes(),
                        );
                        jobs.push(JobSpec {
                            idx: jobs.len() as u64,
                            scenario: sc.id.clone(),
                            scheme: scheme.clone(),
                            pattern: pattern.clone(),
                            rate,
                            fault: fault.clone(),
                            net: sc.net,
                            scale: sc.scale,
                            seed,
                        });
                    }
                }
            }
        }
    }
    jobs
}

/// Builds the job's fault plan: `None` for the quiet axis, a side-band
/// loss plan for `loss-<p>`, and for `storm-<k>` a deterministic draw of
/// `k` link stalls plus one hotspot from the campaign seed (sized and
/// validated against the scenario's network and scale).
#[must_use]
pub fn fault_plan(spec: &JobSpec, campaign_seed: u64) -> Option<FaultPlan> {
    let plan_seed =
        checkpoint::fnv1a64(format!("fault|{campaign_seed}|{}", spec.label()).as_bytes());
    match spec.fault {
        FaultSpec::None => None,
        FaultSpec::Loss(p) => Some(FaultPlan::sideband_only(
            plan_seed,
            SidebandFaults {
                loss_rate: p,
                ..SidebandFaults::none()
            },
        )),
        FaultSpec::Storm(k) => {
            let net = spec.net.net(DeadlockMode::PAPER_RECOVERY);
            let nodes = net.node_count() as u64;
            let ports = (2 * net.dimensions) as u64;
            let cycles = spec.scale.cycles();
            let warmup = spec.scale.warmup();
            let mut rng = SimRng::seed_from_u64(plan_seed);
            let window = |rng: &mut SimRng| {
                // Stall windows inside the measured interval, each at most
                // a quarter of it, so storms degrade rather than dominate.
                let span = (cycles - warmup).max(4);
                let len = 1 + rng.random_range(0..span / 4);
                let start = warmup + rng.random_range(0..span - len);
                (start, start + len)
            };
            let links = (0..k)
                .map(|_| {
                    let (start, end) = window(&mut rng);
                    LinkFault {
                        node: rng.random_range(0..nodes) as usize,
                        port: rng.random_range(0..ports) as usize,
                        start,
                        end,
                    }
                })
                .collect();
            let (start, end) = window(&mut rng);
            let hotspots = vec![HotspotFault {
                node: rng.random_range(0..nodes) as usize,
                start,
                end,
            }];
            Some(FaultPlan {
                seed: plan_seed,
                sideband: SidebandFaults::none(),
                links,
                hotspots,
            })
        }
    }
}

/// The metric cells a worker reports for one completed job, already
/// formatted (formatting happens worker-side so a replayed ledger row is
/// byte-identical to a fresh one).
fn run_job_metrics(spec: &JobSpec, m: &Manifest, ctx: &SweepCtx) -> Result<Vec<String>, JobError> {
    let sideband = spec.net.sideband();
    let scheme = Scheme::by_name(&spec.scheme, &sideband)
        .ok_or_else(|| JobError::Failed(format!("unresolvable scheme '{}'", spec.scheme)))?;
    let pattern = Pattern::by_name(&spec.pattern)
        .ok_or_else(|| JobError::Failed(format!("unresolvable pattern '{}'", spec.pattern)))?;
    let cfg = steady_config(
        spec.net.net(DeadlockMode::PAPER_RECOVERY),
        scheme,
        pattern,
        spec.rate,
        spec.scale,
        spec.seed,
    );
    let plan = fault_plan(spec, m.seed);
    if let Some(plan) = &plan {
        let net = spec.net.net(DeadlockMode::PAPER_RECOVERY);
        plan.validate(net.node_count(), 2 * net.dimensions)
            .map_err(|e| JobError::Failed(format!("bad fault plan ({}): {e}", spec.label())))?;
    }
    let (p, f) = ctx.try_run_point_instrumented(cfg, plan)?;
    let c = f.controller;
    Ok(vec![
        fnum(p.tput_flits),
        fnum(p.latency),
        fnum(p.fairness),
        p.throttled.to_string(),
        c.watchdog_trips.to_string(),
        c.watchdog_rearms.to_string(),
        c.raises.to_string(),
        c.cuts.to_string(),
    ])
}

/// The hidden `--job` mode: runs one job in this process and speaks the
/// one-line stdout protocol (`STCC-JOB-OK <crc> <cells>` or
/// `STCC-JOB-ERR <kind> <message>`). Returns the process exit code.
///
/// `opts` is the worker's own environment, resolved; the manifest it was
/// handed overrides what it is authoritative for, the per-job budget.
#[must_use]
pub fn worker_main(m: &Manifest, job_idx: u64, attempt: u32, opts: RuntimeOptions) -> i32 {
    let jobs = expand(m);
    let Some(spec) = jobs.iter().find(|j| j.idx == job_idx) else {
        println!(
            "{ERR_TAG} failed {}",
            crate::journal::escape_cell(&format!("job index {job_idx} out of range"))
        );
        return EXIT_WORKER_FAILED;
    };
    if opts.crash_rig.crashes(&spec.scenario, attempt) {
        // Crash-test rig (`STCC_CAMPAIGN_FAIL`): die like a real defect
        // would — plain `exit(7)`, no protocol line.
        std::process::exit(7);
    }
    let ctx = SweepCtx::bare(Pool::new(1)).with_options(RuntimeOptions {
        budget: (m.timeout_s > 0).then(|| Duration::from_secs(m.timeout_s)),
        ..opts
    });
    // Through the (single-worker) pool so a panic comes back typed.
    let outcome = ctx
        .pool()
        .try_run(vec![spec.clone()], JobSpec::label, |spec| {
            run_job_metrics(&spec, m, &ctx)
        })
        .map(|mut v| v.pop().expect("one job in, one result out"));
    match outcome {
        Ok(cells) => {
            let payload = crate::journal::escape_rows(&vec![cells]);
            let crc = checkpoint::crc32(payload.as_bytes());
            println!("{OK_TAG} {crc:08x} {payload}");
            EXIT_OK
        }
        Err(e) => {
            let kind = FailureKind::of(&e.error).unwrap_or(FailureKind::Failed);
            println!(
                "{ERR_TAG} {} {}",
                kind.label(),
                crate::journal::escape_cell(&format!("{}: {}", e.label, e.error))
            );
            EXIT_WORKER_FAILED
        }
    }
}

/// What one supervised attempt of one job produced.
enum AttemptOutcome {
    Ok(Vec<String>),
    Failed(FailureKind, String),
    Interrupted,
}

/// Spawns and supervises one worker process for `(job, attempt)`.
fn supervise_attempt(
    spec: &JobSpec,
    attempt: u32,
    m: &Manifest,
    manifest_path: &Path,
) -> AttemptOutcome {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return AttemptOutcome::Failed(FailureKind::Failed, format!("current_exe: {e}")),
    };
    let child = Command::new(exe)
        .arg("--manifest")
        .arg(manifest_path)
        .arg("--job")
        .arg(spec.idx.to_string())
        .arg("--attempt")
        .arg(attempt.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => return AttemptOutcome::Failed(FailureKind::Failed, format!("spawn: {e}")),
    };
    // Hard-kill backstop: the worker enforces the wall budget cooperatively
    // and should exit on its own with a typed timeout; a worker wedged so
    // hard its guard never fires is killed at twice the budget (plus grace
    // for process startup).
    let hard_deadline =
        (m.timeout_s > 0).then(|| Instant::now() + Duration::from_secs(2 * m.timeout_s + 5));
    let mut hard_killed = false;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return AttemptOutcome::Failed(FailureKind::Failed, format!("wait: {e}"));
            }
        }
        if crate::sigint::interrupted() {
            let _ = child.kill();
            let _ = child.wait();
            return AttemptOutcome::Interrupted;
        }
        if hard_deadline.is_some_and(|d| Instant::now() >= d) {
            hard_killed = true;
            let _ = child.kill();
            match child.wait() {
                Ok(status) => break status,
                Err(e) => return AttemptOutcome::Failed(FailureKind::Failed, format!("wait: {e}")),
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        let _ = pipe.read_to_string(&mut stdout);
    }
    if hard_killed {
        // Deterministic text: the report must not depend on where the
        // worker happened to be when it was shot.
        return AttemptOutcome::Failed(
            FailureKind::TimedOut,
            format!(
                "worker ignored its {}s wall budget and was killed",
                m.timeout_s
            ),
        );
    }
    classify(&stdout, status.code())
}

/// Classifies a finished worker from its stdout protocol line and exit
/// status. A failure keeps the worker's own message: every message a
/// worker prints is free of host timing (see [`SweepCtx::drive`]'s
/// wall-budget text), so the report stays byte-stable.
fn classify(stdout: &str, code: Option<i32>) -> AttemptOutcome {
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(OK_TAG) {
            let mut parts = rest.trim_start().splitn(2, ' ');
            let (Some(crc), Some(payload)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(crc) = u32::from_str_radix(crc, 16) else {
                continue;
            };
            if checkpoint::crc32(payload.as_bytes()) != crc {
                return AttemptOutcome::Failed(
                    FailureKind::Failed,
                    "worker result failed its crc check".to_owned(),
                );
            }
            if let Some(rows) = crate::journal::unescape_rows(payload) {
                if let Some(cells) = rows.into_iter().next() {
                    return AttemptOutcome::Ok(cells);
                }
            }
            return AttemptOutcome::Failed(
                FailureKind::Failed,
                "worker result payload was malformed".to_owned(),
            );
        }
        if let Some(rest) = line.strip_prefix(ERR_TAG) {
            let mut parts = rest.trim_start().splitn(2, ' ');
            let kind = parts
                .next()
                .and_then(FailureKind::parse)
                .unwrap_or(FailureKind::Failed);
            let message = parts
                .next()
                .and_then(crate::journal::unescape_cell)
                .unwrap_or_else(|| "worker reported an unreadable error".to_owned());
            return AttemptOutcome::Failed(kind, message);
        }
    }
    // No protocol line: the worker crashed (panic, rigged exit, signal).
    let how = match code {
        Some(c) => format!("worker crashed with exit code {c}"),
        None => "worker was killed by a signal".to_owned(),
    };
    AttemptOutcome::Failed(FailureKind::Panicked, how)
}

/// Report table column layout (shared by fresh rows, ledger replay and the
/// degradation summary).
const COLUMNS: &[&str] = &[
    "scenario",
    "scheme",
    "pattern",
    "rate",
    "fault",
    "status",
    "attempts",
    "timeouts",
    "crashes",
    "errors",
    "tput_flits",
    "latency",
    "fairness",
    "throttled",
    "wd_trips",
    "wd_rearms",
    "raises",
    "cuts",
    "last_error",
];
const COL_STATUS: usize = 5;
const COL_ATTEMPTS: usize = 6;
const COL_TIMEOUTS: usize = 7;
const COL_CRASHES: usize = 8;
const COL_ERRORS: usize = 9;
const COL_TPUT: usize = 10;
const COL_LATENCY: usize = 11;
const COL_FAIRNESS: usize = 12;
const COL_WD_TRIPS: usize = 14;
const COL_LAST_ERROR: usize = 18;

/// Per-attempt failure tally of one job.
#[derive(Debug, Default, Clone)]
struct Tally {
    timeouts: u32,
    crashes: u32,
    errors: u32,
    last_error: Option<(FailureKind, String)>,
}

impl Tally {
    fn record(&mut self, kind: FailureKind, message: String) {
        match kind {
            FailureKind::TimedOut => self.timeouts += 1,
            FailureKind::Panicked => self.crashes += 1,
            FailureKind::Failed => self.errors += 1,
        }
        self.last_error = Some((kind, message));
    }
}

fn compose_row(
    spec: &JobSpec,
    status: &str,
    attempts: u32,
    tally: &Tally,
    metrics: &[String],
) -> Vec<String> {
    let last_error = tally
        .last_error
        .as_ref()
        .map_or_else(|| "-".to_owned(), |(k, msg)| format!("{k}: {msg}"));
    let mut row = vec![
        spec.scenario.clone(),
        spec.scheme.clone(),
        spec.pattern.clone(),
        fnum(spec.rate),
        spec.fault.label(),
        status.to_owned(),
        attempts.to_string(),
        tally.timeouts.to_string(),
        tally.crashes.to_string(),
        tally.errors.to_string(),
    ];
    if metrics.is_empty() {
        row.extend(std::iter::repeat_n("-".to_owned(), 8));
    } else {
        row.extend(metrics.iter().cloned());
    }
    row.push(last_error);
    row
}

/// Options of one orchestrator invocation.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Path of the manifest file (re-read by every worker).
    pub manifest: PathBuf,
    /// Output directory (ledger, CSV, report).
    pub out: PathBuf,
    /// Resume from the campaign ledger.
    pub resume: bool,
}

/// Sleeps the backoff delay in small slices so a SIGINT is honored
/// promptly; returns false if interrupted.
fn backoff_sleep(d: Duration) -> bool {
    let deadline = Instant::now() + d;
    loop {
        if crate::sigint::interrupted() {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10).min(left));
    }
}

/// Whether a job's row is a quarantined one. It is journaled like any
/// other row, and a resume re-runs the job.
fn quarantined(row: &[String]) -> bool {
    row.get(COL_STATUS).is_some_and(|s| s == "quarantined")
}

/// Runs one job under supervision: attempt after attempt, with backoff in
/// between, until one succeeds or the retries run out and the job is
/// quarantined. Either way the job's row is its result.
fn supervise_job(spec: &JobSpec, m: &Manifest, manifest_path: &Path) -> Result<Rows, JobError> {
    let mut tally = Tally::default();
    for attempt in 0..=m.retries {
        let wait = if attempt == 0 {
            Duration::ZERO
        } else {
            backoff::delay(m.seed, spec.idx, attempt, m.backoff_ms)
        };
        if !backoff_sleep(wait) {
            return Err(JobError::Interrupted);
        }
        match supervise_attempt(spec, attempt, m, manifest_path) {
            AttemptOutcome::Ok(metrics) => {
                let status = if attempt == 0 { "ok" } else { "ok-retried" };
                let row = compose_row(spec, status, attempt + 1, &tally, &metrics);
                return Ok(vec![row]);
            }
            AttemptOutcome::Interrupted => return Err(JobError::Interrupted),
            AttemptOutcome::Failed(kind, message) => {
                eprintln!(
                    "[{}: attempt {}/{} failed ({kind}): {message}]",
                    spec.label(),
                    attempt + 1,
                    m.retries + 1
                );
                tally.record(kind, message);
            }
        }
    }
    let row = compose_row(spec, "quarantined", m.retries + 1, &tally, &[]);
    Ok(vec![row])
}

/// Runs the whole campaign through the [`FrontDoor`]: expansion,
/// supervision, ledger, report, with as many jobs in flight as
/// `runtime`'s [`RuntimeOptions::pool`] has workers. Returns the process
/// exit code.
#[must_use]
pub fn orchestrate(
    manifest_text: &str,
    m: &Manifest,
    opts: &CampaignOpts,
    runtime: RuntimeOptions,
) -> i32 {
    let jobs = expand(m);
    let fingerprint = checkpoint::fnv1a64(
        format!("campaign|{manifest_text}|{}", env!("CARGO_PKG_VERSION")).as_bytes(),
    );
    let ledger = opts.out.join("campaign.ledger");
    let door = FrontDoor::new("campaign", ledger, fingerprint, opts.resume)
        .rerunning(|rows| rows.iter().any(|r| quarantined(r)));
    let generate = |ctx: &SweepCtx| {
        let replayed = ctx.resumed_jobs();
        eprintln!(
            "[campaign '{}': {} jobs ({replayed} replayed from ledger, {} to run) on {} workers]",
            m.name,
            jobs.len(),
            jobs.len() - replayed,
            ctx.pool().jobs()
        );
        ctx.try_run_rows(jobs, JobSpec::label, |spec| {
            supervise_job(&spec, m, &opts.manifest)
        })
    };
    door.run(runtime.pool(), runtime, generate, |rows| {
        let mut table = Table::new(format!("Campaign '{}'", m.name), COLUMNS);
        table.extend(rows.clone());
        let report = render_report(m, fingerprint, &table, &rows);
        let csv_path = opts.out.join("campaign.csv");
        let report_path = opts.out.join("campaign.report");
        let written = table
            .write_csv(&csv_path)
            .map_err(|e| (&csv_path, e))
            .and_then(|()| {
                write_atomic(&report_path, report.as_bytes()).map_err(|e| (&report_path, e))
            });
        if let Err((path, e)) = written {
            eprintln!("campaign: cannot write {}: {e}", path.display());
            return 1;
        }
        print!("{report}");
        eprintln!(
            "[wrote {} and {}]",
            csv_path.display(),
            report_path.display()
        );
        match rows.iter().filter(|r| quarantined(r)).count() {
            0 => EXIT_OK,
            n => {
                eprintln!(
                    "campaign: {n} job(s) quarantined — see the degradation section; \
                     --resume will retry them"
                );
                EXIT_QUARANTINED
            }
        }
    })
}

fn cell_u64(row: &[String], col: usize) -> u64 {
    row.get(col).and_then(|c| c.parse().ok()).unwrap_or(0)
}

fn cell_f64(row: &[String], col: usize) -> Option<f64> {
    row.get(col).and_then(|c| c.parse().ok())
}

/// Renders the merged campaign report: header, the metric table, per-scheme
/// summary, and the degradation section (retries, quarantines, timeouts,
/// watchdog trips). Pure function of the rows — a resumed campaign renders
/// the identical report.
fn render_report(m: &Manifest, fingerprint: u64, table: &Table, rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Campaign '{}'", m.name);
    let _ = writeln!(out, "manifest fingerprint: {fingerprint:016x}");
    let _ = writeln!(
        out,
        "seed {} | retries {} | backoff {} ms | timeout {} s",
        m.seed, m.retries, m.backoff_ms, m.timeout_s
    );
    let _ = writeln!(out, "jobs: {}", rows.len());
    out.push('\n');
    out.push_str(&table.to_text());
    out.push('\n');

    // Per-scheme summary over jobs that produced metrics.
    let _ = writeln!(out, "## Scheme summary (mean over completed jobs)");
    let mut schemes: Vec<String> = rows.iter().map(|r| r[1].clone()).collect();
    schemes.sort();
    schemes.dedup();
    for scheme in schemes {
        let done: Vec<&Vec<String>> = rows
            .iter()
            .filter(|r| r[1] == scheme && r[COL_STATUS].starts_with("ok"))
            .collect();
        if done.is_empty() {
            let _ = writeln!(out, "- {scheme}: no completed jobs");
            continue;
        }
        let mean = |col: usize| {
            let vals: Vec<f64> = done.iter().filter_map(|r| cell_f64(r, col)).collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let _ = writeln!(
            out,
            "- {scheme}: {} jobs | tput_flits {} | latency {} | fairness {}",
            done.len(),
            fnum(mean(COL_TPUT)),
            fnum(mean(COL_LATENCY)),
            fnum(mean(COL_FAIRNESS)),
        );
    }
    out.push('\n');

    // Degradation: everything that went wrong on the way to this report.
    let ok = rows
        .iter()
        .filter(|r| r[COL_STATUS].starts_with("ok"))
        .count();
    let quarantined: Vec<&Vec<String>> = rows.iter().filter(|r| quarantined(r)).collect();
    let sum = |col: usize| rows.iter().map(|r| cell_u64(r, col)).sum::<u64>();
    let retries: u64 = rows
        .iter()
        .map(|r| cell_u64(r, COL_ATTEMPTS).saturating_sub(1))
        .sum();
    let _ = writeln!(out, "## Degradation");
    let _ = writeln!(
        out,
        "jobs {} | ok {} | quarantined {}",
        rows.len(),
        ok,
        quarantined.len()
    );
    let _ = writeln!(
        out,
        "retries {} | timeouts {} | crashes {} | errors {}",
        retries,
        sum(COL_TIMEOUTS),
        sum(COL_CRASHES),
        sum(COL_ERRORS)
    );
    let _ = writeln!(
        out,
        "watchdog trips {} | rearms {}",
        sum(COL_WD_TRIPS),
        sum(COL_WD_TRIPS + 1)
    );
    if quarantined.is_empty() {
        let _ = writeln!(out, "quarantined jobs: none");
    } else {
        let _ = writeln!(out, "quarantined jobs:");
        for r in quarantined {
            let _ = writeln!(
                out,
                "- {}/{}/{}@{}+{}: {}",
                r[0], r[1], r[2], r[3], r[4], r[COL_LAST_ERROR]
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Manifest {
        Manifest::parse(
            r#"
[campaign]
name = "t"
seed = 5

[scenario.a]
net = "small"
scale = "tiny"
schemes = ["base", "tune"]
patterns = ["uniform-random"]
rates = [0.005, 0.028]
faults = ["none", "loss-0.5"]

[scenario.b]
net = "small"
scale = "tiny"
schemes = ["alo"]
patterns = ["transpose"]
rates = [0.01]
"#,
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_deterministic_and_ordered() {
        let m = manifest();
        let a = expand(&m);
        let b = expand(&m);
        assert_eq!(a.len(), 9, "2 schemes x 2 rates x 2 faults + 1");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.idx, y.idx);
            assert_eq!(x.label(), y.label());
            assert_eq!(x.seed, y.seed);
        }
        // Indices are positional and dense.
        for (i, job) in a.iter().enumerate() {
            assert_eq!(job.idx, i as u64);
        }
        // Scenario order then axis order: first job is a/base, last is b.
        assert_eq!(a[0].scenario, "a");
        assert_eq!(a[0].scheme, "base");
        assert_eq!(a[0].fault, FaultSpec::None);
        assert_eq!(a[1].fault, FaultSpec::Loss(0.5));
        assert_eq!(a.last().unwrap().scenario, "b");
        // Seeds differ across jobs (axis coordinates feed the hash).
        let mut seeds: Vec<u64> = a.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }

    #[test]
    fn storm_plans_are_deterministic_and_valid() {
        let m = manifest();
        let mut spec = expand(&m)[0].clone();
        spec.fault = FaultSpec::Storm(4);
        let p1 = fault_plan(&spec, m.seed).unwrap();
        let p2 = fault_plan(&spec, m.seed).unwrap();
        assert_eq!(p1, p2, "storm draw must be deterministic");
        assert_eq!(p1.links.len(), 4);
        assert_eq!(p1.hotspots.len(), 1);
        let net = spec.net.net(DeadlockMode::PAPER_RECOVERY);
        p1.validate(net.node_count(), 2 * net.dimensions).unwrap();
        // A different campaign seed draws a different storm.
        let p3 = fault_plan(&spec, m.seed + 1).unwrap();
        assert_ne!(p1, p3);
    }

    #[test]
    fn rows_round_trip_through_the_protocol() {
        let cells = vec!["0.1234".to_owned(), "tab\there".to_owned(), "-".to_owned()];
        let payload = crate::journal::escape_rows(&vec![cells.clone()]);
        let crc = checkpoint::crc32(payload.as_bytes());
        let line = format!("{OK_TAG} {crc:08x} {payload}");
        match classify(&line, Some(0)) {
            AttemptOutcome::Ok(got) => assert_eq!(got, cells),
            _ => panic!("valid OK line must classify as success"),
        }
        // A corrupted payload fails the crc and is not trusted.
        let bad = format!("{OK_TAG} {crc:08x} {payload}x");
        assert!(matches!(
            classify(&bad, Some(0)),
            AttemptOutcome::Failed(FailureKind::Failed, _)
        ));
        // Typed failure lines come back typed, their message unchanged: a
        // livelock keeps its diagnosis.
        let livelock = "x: job timed out: base @ 0.1: livelock: no flit moved for 200000 cycles";
        let line = format!(
            "{ERR_TAG} timeout {}",
            crate::journal::escape_cell(livelock)
        );
        match classify(&line, Some(EXIT_WORKER_FAILED)) {
            AttemptOutcome::Failed(FailureKind::TimedOut, msg) => assert_eq!(msg, livelock),
            _ => panic!("ERR line must classify as its kind"),
        }
        // No marker at all: a crash.
        assert!(matches!(
            classify("", Some(7)),
            AttemptOutcome::Failed(FailureKind::Panicked, _)
        ));
    }

    #[test]
    fn report_is_a_pure_function_of_rows() {
        let m = manifest();
        let specs = expand(&m);
        let tally = Tally::default();
        let metrics: Vec<String> = vec![
            "0.5".into(),
            "20.0".into(),
            "0.99".into(),
            "3".into(),
            "0".into(),
            "0".into(),
            "2".into(),
            "1".into(),
        ];
        let rows: Vec<Vec<String>> = specs
            .iter()
            .map(|s| compose_row(s, "ok", 1, &tally, &metrics))
            .collect();
        let mut table = Table::new("t", COLUMNS);
        table.extend(rows.clone());
        let a = render_report(&m, 0xAB, &table, &rows);
        let b = render_report(&m, 0xAB, &table, &rows);
        assert_eq!(a, b);
        assert!(a.contains("## Degradation"));
        assert!(a.contains("quarantined jobs: none"));
        assert!(a.contains("## Scheme summary"));
    }
}
