//! The `chaos` binary resumed from a journal cut to its first trial: the
//! journaled trial replays instead of re-running, the report is
//! byte-identical to a fresh run's, and the journal is retired. A removed
//! flag is a usage error.

use experiments::journal::Journal;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_chaos");
const ARGS: [&str; 4] = ["--seed", "6", "--trials", "3"];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stcc-chaos-test-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn chaos(out: &Path, extra: &[&str]) -> Output {
    let out = Command::new(BIN)
        .args(ARGS)
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("spawn chaos");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn resume_from_a_cut_journal_reproduces_the_report() {
    let fresh = scratch("fresh");
    chaos(&fresh, &[]);
    let report = fs::read_to_string(fresh.join("chaos.report")).unwrap();
    assert_eq!(report.lines().count(), 3, "{report}");
    assert!(!fresh.join("chaos.journal").exists());

    // The journal a run killed after its first trial leaves behind: the
    // run's fingerprint and trial 0's report line.
    let cut = scratch("cut");
    let fingerprint =
        checkpoint::fnv1a64(format!("chaos|6|3|32|{}", env!("CARGO_PKG_VERSION")).as_bytes());
    let journal = cut.join("chaos.journal");
    let (mut j, _) = Journal::begin(&journal, fingerprint, false).unwrap();
    let first = report.lines().next().unwrap().to_owned();
    j.append(0, &vec![vec![first]]).unwrap();
    drop(j);

    let resumed = chaos(&cut, &["--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("[resuming: 1 completed jobs journaled, 0 to re-run]"),
        "{stderr}"
    );
    let ran: Vec<&str> = stderr.lines().filter(|l| l.starts_with("trial ")).collect();
    assert_eq!(ran.len(), 2, "only trials 1 and 2 re-run: {stderr}");
    assert!(!ran.iter().any(|l| l.starts_with("trial   0 ")), "{stderr}");
    assert_eq!(
        fs::read_to_string(cut.join("chaos.report")).unwrap(),
        report
    );
    assert!(!journal.exists(), "a finished run retires its journal");
    let _ = fs::remove_dir_all(&fresh);
    let _ = fs::remove_dir_all(&cut);
}

/// The audit cadence is a constant of the harness: `--audit-every` is an
/// unknown argument (exit 2), and the run does not start.
#[test]
fn audit_every_is_no_flag() {
    let out = scratch("audit-every");
    let run = Command::new(BIN)
        .args(["--audit-every", "8", "--out"])
        .arg(&out)
        .output()
        .expect("spawn chaos");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown argument '--audit-every'"),
        "{stderr}"
    );
    assert!(!out.exists(), "a refused run writes nothing");
}
