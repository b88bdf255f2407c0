//! End-to-end tests of the `campaign` binary: the exit-code contract, the
//! job count changing no output byte, and the crash-safety guarantee — a
//! campaign SIGKILLed mid-flight and resumed must produce a report
//! byte-identical to an uninterrupted run (see EXPERIMENTS.md, "Campaigns").
//! A failed job's row and its re-run on `--resume` are the unit test
//! `campaign::tests::doomed_job_is_a_failed_row_and_resume_reruns_it`.
//!
//! Each test drives the real binary (`CARGO_BIN_EXE_campaign`) in its own
//! temp directory, so the pool, the ledger and the report are exercised
//! exactly as a user would.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_campaign");

/// A fresh scratch directory for one test, pre-cleaned of prior runs.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stcc-campaign-test-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small single-scenario manifest (`jobs` = schemes × rates below).
fn manifest(dir: &Path, extra_scenarios: &str) -> PathBuf {
    let path = dir.join("campaign.toml");
    let text = format!(
        r#"[campaign]
name = "it"
seed = 11
timeout_s = 60

[scenario.steady]
net = "small"
scale = "tiny"
schemes = ["base", "tune"]
patterns = ["uniform-random"]
rates = [0.005]
{extra_scenarios}"#
    );
    fs::write(&path, text).unwrap();
    path
}

/// Runs the binary with the ambient `STCC_AUDIT` replaced by `audit`.
fn run(args: &[&str], audit: Option<&str>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).env_remove("STCC_AUDIT");
    if let Some(audit) = audit {
        cmd.env("STCC_AUDIT", audit);
    }
    cmd.output().expect("spawn campaign binary")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("campaign exited without a code")
}

#[test]
fn clean_campaign_exits_zero_and_retires_its_ledger() {
    let dir = scratch("clean");
    // The small manifest, and the committed example: three schemes × two
    // rates in clear weather, plus one job under a fault storm.
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.toml");
    for (name, m, jobs) in [("small", manifest(&dir, ""), 2), ("example", example, 7)] {
        let out_dir = dir.join(name);
        let out = run(
            &[
                "--manifest",
                m.to_str().unwrap(),
                "--out",
                out_dir.to_str().unwrap(),
            ],
            None,
        );
        assert_eq!(
            code(&out),
            0,
            "{name} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        let report = fs::read_to_string(out_dir.join("campaign.report")).unwrap();
        let want = format!("jobs {jobs} | ok {jobs} | timeout 0 | panic 0 | failed 0");
        assert!(report.contains(&want), "{report}");
        assert!(out_dir.join("campaign.csv").exists());
        assert!(
            !out_dir.join("campaign.ledger").exists(),
            "a fully successful campaign must retire its ledger ({name})"
        );
    }
}

#[test]
fn manifest_and_usage_errors_use_their_contracted_exit_codes() {
    let dir = scratch("errors");

    // Unreadable manifest → 3.
    let missing = dir.join("nope.toml");
    assert_eq!(
        code(&run(&["--manifest", missing.to_str().unwrap()], None)),
        3
    );

    // Invalid manifest (unknown scheme) → 3, naming the registry.
    let bad = dir.join("bad.toml");
    fs::write(
        &bad,
        "[scenario.s]\nschemes = [\"warp-drive\"]\npatterns = [\"uniform-random\"]\nrates = [0.005]\n",
    )
    .unwrap();
    let out = run(&["--manifest", bad.to_str().unwrap()], None);
    assert_eq!(code(&out), 3);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warp-drive"), "{err}");

    // A removed policy key → 3, naming it.
    let good = manifest(&dir, "");
    for key in ["workers", "cycle_budget", "retries", "backoff_ms"] {
        let old = dir.join("old.toml");
        let text = fs::read_to_string(&good).unwrap();
        fs::write(
            &old,
            text.replace("[scenario", &format!("{key} = 2\n[scenario")),
        )
        .unwrap();
        let out = run(&["--manifest", old.to_str().unwrap()], None);
        assert_eq!(code(&out), 3);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown key '{key}'")), "{err}");
    }

    // Bad flags → 2; `--workers` is gone (`--jobs` sizes the pool), and so
    // are the hidden single-job `--job`/`--attempt` flags.
    assert_eq!(code(&run(&["--bogus"], None)), 2);
    assert_eq!(code(&run(&[], None)), 2);
    for flag in ["--workers", "--job", "--attempt"] {
        let out = run(&["--manifest", good.to_str().unwrap(), flag, "0"], None);
        assert_eq!(code(&out), 2);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown argument '{flag}'")), "{err}");
    }
    // A malformed variable → 2, naming it.
    let out = run(&["--manifest", good.to_str().unwrap()], Some("banana"));
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("STCC_AUDIT=banana"), "{err}");
    assert_eq!(
        code(&run(
            &["--manifest", good.to_str().unwrap(), "--jobs", "0"],
            None
        )),
        2
    );
}

/// The number of worker processes is a runtime option: `--jobs 1`,
/// `--jobs 2` and `STCC_JOBS=2` write the same report and CSV, and the
/// banner names the count each one ran on.
#[test]
fn job_count_changes_no_output_byte() {
    let dir = scratch("jobs");
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaign.toml");
    for (name, m) in [("small", manifest(&dir, "")), ("example", example)] {
        let mut outputs = Vec::new();
        for (leg, flag, var, workers) in [
            ("flag1", Some("1"), None, 1),
            ("flag2", Some("2"), None, 2),
            ("var2", None, Some("2"), 2),
        ] {
            let out_dir = dir.join(format!("{name}-{leg}"));
            let mut cmd = Command::new(BIN);
            cmd.args(["--manifest", m.to_str().unwrap()])
                .args(["--out", out_dir.to_str().unwrap()])
                .env_remove("STCC_CAMPAIGN_FAIL")
                .env_remove("STCC_JOBS");
            if let Some(n) = flag {
                cmd.args(["--jobs", n]);
            }
            if let Some(n) = var {
                cmd.env("STCC_JOBS", n);
            }
            let out = cmd.output().expect("spawn campaign binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(code(&out), 0, "{name}/{leg} stderr: {stderr}");
            assert!(
                stderr.contains(&format!(" on {workers} workers]")),
                "{name}/{leg}: {stderr}"
            );
            outputs.push((
                fs::read(out_dir.join("campaign.report")).unwrap(),
                fs::read(out_dir.join("campaign.csv")).unwrap(),
            ));
        }
        assert!(
            outputs.windows(2).all(|w| w[0] == w[1]),
            "{name}: the job count changed an output byte"
        );
    }
}

#[test]
fn sigkilled_campaign_resumes_to_a_byte_identical_report() {
    let dir = scratch("kill");
    let m = manifest(
        &dir,
        r#"
[scenario.wide]
net = "small"
scale = "tiny"
schemes = ["base", "aimd"]
patterns = ["transpose"]
rates = [0.005, 0.028]
"#,
    );

    // Reference: the same campaign run to completion without interference.
    let ref_dir = dir.join("ref");
    let out = run(
        &[
            "--manifest",
            m.to_str().unwrap(),
            "--out",
            ref_dir.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = fs::read_to_string(ref_dir.join("campaign.report")).unwrap();

    // Victim: SIGKILL the orchestrator once the ledger holds some rows.
    let kill_dir = dir.join("killed");
    let ledger = kill_dir.join("campaign.ledger");
    let mut child = Command::new(BIN)
        .args([
            "--manifest",
            m.to_str().unwrap(),
            "--out",
            kill_dir.to_str().unwrap(),
        ])
        .env_remove("STCC_CAMPAIGN_FAIL")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut progressed = false;
    for _ in 0..2000 {
        let lines = fs::read_to_string(&ledger)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        // Header + at least one completed row, but not yet the whole matrix.
        if lines >= 2 {
            progressed = true;
            break;
        }
        if child.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.kill().ok(); // SIGKILL on unix
    child.wait().unwrap();
    assert!(
        progressed,
        "campaign finished before it could be killed — enlarge the matrix"
    );

    // Resume after the hard kill: completed rows replay from the ledger,
    // the rest re-run, and the merged report matches the reference exactly.
    let resumed = run(
        &[
            "--manifest",
            m.to_str().unwrap(),
            "--out",
            kill_dir.to_str().unwrap(),
            "--resume",
        ],
        None,
    );
    assert_eq!(
        code(&resumed),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let report = fs::read_to_string(kill_dir.join("campaign.report")).unwrap();
    assert_eq!(report, reference, "kill + resume must reproduce the report");
    let csv = fs::read_to_string(kill_dir.join("campaign.csv")).unwrap();
    let ref_csv = fs::read_to_string(ref_dir.join("campaign.csv")).unwrap();
    assert_eq!(csv, ref_csv);
}
