//! Campaign runner: a declarative scenario matrix run in-process on the
//! `--jobs` pool, the way `fig` runs its sweep points.
//!
//! A campaign ([`manifest::Manifest`]) expands to a deterministic job list
//! (the cross product of every scenario's axes, in manifest order). Every
//! job is one guarded simulation, run through [`SweepCtx::try_run_rows`]
//! behind the [`FrontDoor`] with the manifest's `timeout_s` as the run
//! guard's wall budget ([`RuntimeOptions::budget`]). A job is
//! deterministic, so a failed one is not retried: its timeout, panic or
//! error becomes its row — status `timeout`, `panic` or `failed`, the
//! message under `error` — and the campaign carries on.
//!
//! Each finished job's row lands in the crash-safe ledger (the crc-checked
//! append-only [`crate::journal`]), so `--resume` after a SIGKILL replays
//! finished jobs verbatim. The front door drops failed rows from the replay
//! set, so a resume re-runs those jobs. Because every job and every row
//! rendering is deterministic, a resumed campaign's report is
//! byte-identical to an uninterrupted run (`tests/campaign.rs` proves it).

pub mod manifest;

use crate::journal::{FailureKind, Rows};
use crate::runner::{contain, JobError};
use crate::sweep::{write_atomic, FrontDoor};
use crate::table::fnum;
use crate::{steady_config, NetPreset, RuntimeOptions, Scale, SweepCtx, Table};
use faults::{FaultPlan, HotspotFault, LinkFault, SidebandFaults};
use manifest::{FaultSpec, Manifest};
use stcc::Scheme;
use std::path::PathBuf;
use std::time::Duration;
use traffic::{Pattern, SimRng};
use wormsim::DeadlockMode;

/// Exit code of a clean campaign: every job succeeded.
pub const EXIT_OK: i32 = 0;
/// Usage error (bad flags).
pub const EXIT_USAGE: i32 = 2;
/// The manifest failed to load or validate.
pub const EXIT_MANIFEST: i32 = 3;
/// The campaign completed but at least one job failed.
pub const EXIT_JOBS_FAILED: i32 = 4;

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

/// The metric cells of one completed job, already formatted, so a
/// replayed ledger row is byte-identical to a fresh one.
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

/// Report table column layout (shared by fresh rows, ledger replay and the
/// degradation summary).
const COLUMNS: &[&str] = &[
    "scenario",
    "scheme",
    "pattern",
    "rate",
    "fault",
    "status",
    "tput_flits",
    "latency",
    "fairness",
    "throttled",
    "wd_trips",
    "wd_rearms",
    "raises",
    "cuts",
    "error",
];
const COL_STATUS: usize = 5;
const COL_TPUT: usize = 6;
const COL_LATENCY: usize = 7;
const COL_FAIRNESS: usize = 8;
const COL_WD_TRIPS: usize = 10;
const COL_ERROR: usize = 14;

/// The job's report row: its coordinates, `status`, the metric cells (`-`
/// for a failed job) and the failure's message (`-` for none).
fn job_row(spec: &JobSpec, status: &str, metrics: &[String], error: &str) -> Vec<String> {
    let mut row = vec![
        spec.scenario.clone(),
        spec.scheme.clone(),
        spec.pattern.clone(),
        fnum(spec.rate),
        spec.fault.label(),
        status.to_owned(),
    ];
    if metrics.is_empty() {
        row.extend(std::iter::repeat_n("-".to_owned(), 8));
    } else {
        row.extend_from_slice(metrics);
    }
    row.push(error.to_owned());
    row
}

/// Runs one job and renders its row. A timeout, panic or error is the
/// job's row too; only an interrupt is an error, and the job re-runs on
/// `--resume`.
fn run_job(
    spec: &JobSpec,
    ctx: &SweepCtx,
    job: &impl Fn(&JobSpec, &SweepCtx) -> Result<Vec<String>, JobError>,
) -> Result<Rows, JobError> {
    let error = match contain(|| job(spec, ctx)) {
        Ok(metrics) => return Ok(vec![job_row(spec, "ok", &metrics, "-")]),
        Err(error) => error,
    };
    let Some(kind) = FailureKind::of(&error) else {
        return Err(error);
    };
    eprintln!("[{}: {error}]", spec.label());
    Ok(vec![job_row(spec, kind.label(), &[], &error.to_string())])
}

/// Options of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Output directory (ledger, CSV, report).
    pub out: PathBuf,
    /// Resume from the campaign ledger.
    pub resume: bool,
}

/// Whether a job's row is a failed one. It is journaled like any other
/// row, and a resume re-runs the job.
fn failed(row: &[String]) -> bool {
    row.get(COL_STATUS).is_some_and(|s| s != "ok")
}

/// Runs the whole campaign through the [`FrontDoor`]: expansion, the jobs
/// on `runtime`'s [`RuntimeOptions::pool`], ledger and report. Returns the
/// process exit code.
#[must_use]
pub fn orchestrate(
    manifest_text: &str,
    m: &Manifest,
    opts: &CampaignOpts,
    runtime: RuntimeOptions,
) -> i32 {
    run_campaign(manifest_text, m, opts, runtime, |spec, ctx| {
        run_job_metrics(spec, m, ctx)
    })
}

/// [`orchestrate`] with each job's metric cells computed by `job`, the
/// seam a test uses to make chosen jobs fail.
fn run_campaign(
    manifest_text: &str,
    m: &Manifest,
    opts: &CampaignOpts,
    runtime: RuntimeOptions,
    job: impl Fn(&JobSpec, &SweepCtx) -> Result<Vec<String>, JobError> + Sync,
) -> i32 {
    let jobs = expand(m);
    let fingerprint = checkpoint::fnv1a64(
        format!("campaign|{manifest_text}|{}", env!("CARGO_PKG_VERSION")).as_bytes(),
    );
    let ledger = opts.out.join("campaign.ledger");
    let door = FrontDoor::new("campaign", ledger, fingerprint, opts.resume)
        .rerunning(|rows| rows.iter().any(|r| failed(r)));
    let runtime = RuntimeOptions {
        budget: (m.timeout_s > 0).then(|| Duration::from_secs(m.timeout_s)),
        ..runtime
    };
    let generate = |ctx: &SweepCtx| {
        let replayed = ctx.resumed_jobs();
        eprintln!(
            "[campaign '{}': {} jobs ({replayed} replayed from ledger, {} to run) on {} workers]",
            m.name,
            jobs.len(),
            jobs.len() - replayed,
            ctx.pool().jobs()
        );
        ctx.try_run_rows(jobs, JobSpec::label, |spec| run_job(&spec, ctx, &job))
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
        match rows.iter().filter(|r| failed(r)).count() {
            0 => EXIT_OK,
            n => {
                eprintln!(
                    "campaign: {n} job(s) failed — see the degradation section; \
                     --resume will re-run them"
                );
                EXIT_JOBS_FAILED
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
/// summary, and the degradation section (failures by kind, watchdog trips,
/// the failed jobs). Pure function of the rows — a resumed campaign renders
/// the identical report.
fn render_report(m: &Manifest, fingerprint: u64, table: &Table, rows: &[Vec<String>]) -> String {
    use std::fmt::Write as _;
    let text = table.to_text();
    // The table's title line heads the report; its grid follows the header.
    let (title, grid) = text.split_once('\n').unwrap_or((&text, ""));
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "manifest fingerprint: {fingerprint:016x}");
    let _ = writeln!(out, "seed {} | timeout {} s", m.seed, m.timeout_s);
    let _ = writeln!(out, "jobs: {}", rows.len());
    out.push('\n');
    out.push_str(grid);
    out.push('\n');

    // Per-scheme summary over jobs that produced metrics.
    let _ = writeln!(out, "## Scheme summary (mean over completed jobs)");
    let mut schemes: Vec<String> = rows.iter().map(|r| r[1].clone()).collect();
    schemes.sort();
    schemes.dedup();
    for scheme in schemes {
        let done: Vec<&Vec<String>> = rows
            .iter()
            .filter(|r| r[1] == scheme && !failed(r))
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
    let count = |status: &str| rows.iter().filter(|r| r[COL_STATUS] == status).count();
    let sum = |col: usize| rows.iter().map(|r| cell_u64(r, col)).sum::<u64>();
    let _ = writeln!(out, "## Degradation");
    let _ = write!(out, "jobs {} | ok {}", rows.len(), count("ok"));
    for kind in [
        FailureKind::TimedOut,
        FailureKind::Panicked,
        FailureKind::Failed,
    ] {
        let _ = write!(out, " | {kind} {}", count(kind.label()));
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "watchdog trips {} | rearms {}",
        sum(COL_WD_TRIPS),
        sum(COL_WD_TRIPS + 1)
    );
    let failures: Vec<&Vec<String>> = rows.iter().filter(|r| failed(r)).collect();
    if failures.is_empty() {
        let _ = writeln!(out, "failed jobs: none");
    } else {
        let _ = writeln!(out, "failed jobs:");
        for r in failures {
            let _ = writeln!(
                out,
                "- {}/{}/{}@{}+{}: {}: {}",
                r[0], r[1], r[2], r[3], r[4], r[COL_STATUS], r[COL_ERROR]
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

    /// A job that panics is a row, not a lost campaign: exit 4, the report
    /// names the job and its panic, and the ledger stays. A resume under
    /// the same fault re-runs the job and reproduces the report byte for
    /// byte; a resume that runs clean exits 0 and retires the ledger.
    #[test]
    fn doomed_job_is_a_failed_row_and_resume_reruns_it() {
        let text = r#"
[campaign]
name = "it"
seed = 11

[scenario.steady]
net = "small"
scale = "tiny"
schemes = ["base", "tune"]
patterns = ["uniform-random"]
rates = [0.005]

[scenario.doomed]
net = "small"
scale = "tiny"
schemes = ["alo"]
patterns = ["transpose"]
rates = [0.005]
"#;
        let m = Manifest::parse(text).unwrap();
        let out = std::env::temp_dir().join("stcc-campaign-unit-doomed");
        let _ = std::fs::remove_dir_all(&out);
        let run = |resume: bool, doomed: bool| {
            let opts = CampaignOpts {
                out: out.clone(),
                resume,
            };
            let runtime = RuntimeOptions {
                jobs: Some(2),
                ..RuntimeOptions::default()
            };
            run_campaign(text, &m, &opts, runtime, |spec, ctx| {
                assert!(!(doomed && spec.scenario == "doomed"), "rigged to fail");
                run_job_metrics(spec, &m, ctx)
            })
        };
        let report = || std::fs::read_to_string(out.join("campaign.report")).unwrap();
        let ledger = out.join("campaign.ledger");

        assert_eq!(run(false, true), EXIT_JOBS_FAILED);
        let first = report();
        assert!(
            first.contains(
                "- doomed/alo/transpose@0.00500+none: panic: job panicked: rigged to fail"
            ),
            "{first}"
        );
        assert!(
            first.contains("jobs 3 | ok 2 | timeout 0 | panic 1 | failed 0"),
            "{first}"
        );
        assert!(
            ledger.exists(),
            "a failed job keeps the ledger for --resume"
        );

        assert_eq!(run(true, true), EXIT_JOBS_FAILED);
        assert_eq!(report(), first, "resume must reproduce the report");

        assert_eq!(run(true, false), EXIT_OK);
        assert!(report().contains("jobs 3 | ok 3 | timeout 0 | panic 0 | failed 0"));
        assert!(report().contains("failed jobs: none"));
        assert!(!ledger.exists(), "a clean campaign retires its ledger");
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn report_is_a_pure_function_of_rows() {
        let m = manifest();
        let specs = expand(&m);
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
            .map(|s| job_row(s, "ok", &metrics, "-"))
            .collect();
        let mut table = Table::new("Campaign 't'", COLUMNS);
        table.extend(rows.clone());
        let a = render_report(&m, 0xAB, &table, &rows);
        let b = render_report(&m, 0xAB, &table, &rows);
        assert_eq!(a, b);
        assert!(a.contains("## Degradation"));
        assert!(a.contains("failed jobs: none"));
        assert!(a.contains("## Scheme summary"));
        assert_eq!(a.matches("# Campaign 't'").count(), 1, "one title: {a}");
    }
}
