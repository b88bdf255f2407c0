//! End-to-end tests of the `campaign` orchestrator binary: the exit-code
//! contract, retry/quarantine supervision, and the crash-safety guarantee —
//! a campaign SIGKILLed mid-flight and resumed must produce a report
//! byte-identical to an uninterrupted run (see EXPERIMENTS.md, "Campaigns").
//!
//! Each test drives the real binary (`CARGO_BIN_EXE_campaign`) in its own
//! temp directory, so the worker-process supervision, the ledger, and the
//! `STCC_CAMPAIGN_FAIL` crash rig are all exercised exactly as a user
//! would.

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
retries = 1
backoff_ms = 1
timeout_s = 60
workers = 2

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

fn run(args: &[&str], rig: Option<&str>) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    // Scrub any rig inherited from the ambient environment, then apply the
    // test's own (the orchestrator passes its env down to every worker).
    cmd.env_remove("STCC_CAMPAIGN_FAIL");
    if let Some(rig) = rig {
        cmd.env("STCC_CAMPAIGN_FAIL", rig);
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
    // rates in clear weather, plus one job under a fault storm, at 2 shards.
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
        let want = format!("jobs {jobs} | ok {jobs} | quarantined 0");
        assert!(report.contains(&want), "{report}");
        assert!(out_dir.join("campaign.csv").exists());
        assert!(
            !out_dir.join("campaign.ledger").exists(),
            "a fully successful campaign must retire its ledger ({name})"
        );
    }
}

#[test]
fn flaky_job_is_retried_to_success() {
    let dir = scratch("flaky");
    let m = manifest(&dir, "");
    let out_dir = dir.join("out");
    // The rig crashes every `steady` worker on attempt 0; the retry (attempt
    // 1) runs clean, so the campaign still succeeds end to end.
    let out = run(
        &[
            "--manifest",
            m.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
        ],
        Some("steady:1"),
    );
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = fs::read_to_string(out_dir.join("campaign.report")).unwrap();
    assert!(report.contains("ok-retried"), "{report}");
    assert!(report.contains("retries 2"), "{report}");
    assert!(report.contains("quarantined 0"), "{report}");
}

#[test]
fn doomed_job_is_quarantined_and_resume_reproduces_the_report() {
    let dir = scratch("doomed");
    let m = manifest(
        &dir,
        r#"
[scenario.doomed]
net = "small"
scale = "tiny"
schemes = ["alo"]
patterns = ["transpose"]
rates = [0.005]
"#,
    );
    let out_dir = dir.join("out");
    let args = [
        "--manifest",
        m.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ];
    let out = run(&args, Some("doomed:all"));
    assert_eq!(
        code(&out),
        4,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = fs::read_to_string(out_dir.join("campaign.report")).unwrap();
    assert!(report.contains("quarantined 1"), "{report}");
    assert!(report.contains("doomed/alo/transpose"), "{report}");
    assert!(
        out_dir.join("campaign.ledger").exists(),
        "a quarantining campaign must keep its ledger for --resume"
    );

    // Resuming replays the completed jobs verbatim and re-runs the
    // quarantined one; under the same rig the report is byte-identical.
    let resume = run(&[&args[..], &["--resume"]].concat(), Some("doomed:all"));
    assert_eq!(code(&resume), 4);
    let report2 = fs::read_to_string(out_dir.join("campaign.report")).unwrap();
    assert_eq!(
        report, report2,
        "resume must reproduce the report byte-for-byte"
    );
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

    // Bad flags → 2.
    assert_eq!(code(&run(&["--bogus"], None)), 2);
    assert_eq!(code(&run(&[], None)), 2);
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
