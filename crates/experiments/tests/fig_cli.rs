//! The `fig` binary's front door, driven as a user would: the registry
//! listing, the exit-2 contract for everything it refuses (an unknown
//! figure, `--net` or `--controllers` on a figure that does not take it, a
//! malformed `STCC_*` value, a removed flag), and a real sweep steered by
//! flag and variable together.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_fig");

fn fig(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for var in ["STCC_JOBS", "STCC_AUDIT"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("spawn fig")
}

fn refused(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(needle), "want '{needle}' in: {stderr}");
    assert!(out.stdout.is_empty(), "a refused run must print no table");
}

#[test]
fn list_prints_the_registry() {
    let out = fig(&["--list"], &[]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let want: Vec<&str> = experiments::figures::REGISTRY
        .iter()
        .map(|f| f.name)
        .collect();
    assert_eq!(names, want);
    assert_eq!(names.len(), 16);
    assert!(text.contains("controllers") && text.contains("fig_controllers.<scale>.csv [--net]"));
}

#[test]
fn unknown_or_missing_figure_is_a_usage_error() {
    refused(&fig(&["fig8"], &[]), "unknown figure 'fig8'");
    refused(&fig(&["fig8"], &[]), "ablation_hop_delay");
    refused(&fig(&[], &[]), "usage: fig <name>");
    refused(&fig(&["--scale", "tiny"], &[]), "usage: fig <name>");
}

#[test]
fn flags_a_figure_does_not_take_are_refused_by_name() {
    for name in ["fig1", "fig3", "fig6", "fig7", "fig7_latency", "table1"] {
        refused(&fig(&[name, "--net", "small"], &[]), name);
    }
    refused(
        &fig(&["ablation_hop_delay", "--net", "paper"], &[]),
        "--net does not apply",
    );
    refused(&fig(&["fig5", "--controllers", "tune"], &[]), "fig5");
    refused(
        &fig(&["controllers", "--controllers", "warp"], &[]),
        "unknown controller 'warp'",
    );
    refused(
        &fig(&["fig4", "--shards", "2"], &[]),
        "unknown argument '--shards'",
    );
    refused(
        &fig(&["fig2", "--seed", "2"], &[]),
        "unknown argument '--seed'",
    );
}

#[test]
fn malformed_variable_is_a_usage_error_naming_it() {
    for (var, value) in [("STCC_AUDIT", "banana"), ("STCC_JOBS", "many")] {
        refused(
            &fig(&["table1"], &[(var, value)]),
            &format!("{var}={value}"),
        );
    }
}

/// One audited sweep through the binary — `--jobs` by flag, the audit by
/// variable — still lands on the committed golden.
#[test]
fn audited_sweep_matches_golden() {
    let out_dir = std::env::temp_dir().join("stcc-fig-cli-test");
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = fig(
        &[
            "fig4",
            "--scale",
            "tiny",
            "--net",
            "small",
            "--jobs",
            "2",
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &[("STCC_AUDIT", "512")],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig4.tiny.csv");
    assert_eq!(
        std::fs::read(out_dir.join("fig4.tiny.csv")).unwrap(),
        std::fs::read(golden).unwrap()
    );
    assert!(!out_dir.join("fig4.tiny.journal").exists());
    let _ = std::fs::remove_dir_all(&out_dir);
}
