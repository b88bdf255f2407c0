//! The `probe` binary's arguments: every one it cannot read is a usage
//! error (exit 2) naming the offender, never a silent default.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_probe");

fn probe(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .env_remove("STCC_AUDIT")
        .output()
        .expect("spawn probe")
}

#[test]
fn malformed_arguments_are_usage_errors_naming_them() {
    for (args, needle) in [
        (&["warp"][..], "unknown scheme 'warp'"),
        (&["tune", "0.o5"], "bad rate '0.o5'"),
        (&["tune", "0.05", "avoidence"], "unknown mode 'avoidence'"),
        (
            &["tune", "0.05", "avoidance", "1e5"],
            "bad cycle count '1e5'",
        ),
        (
            &["tune", "0.05", "avoidance", "600", "extra"],
            "too many arguments",
        ),
    ] {
        let out = probe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?}: want '{needle}' in {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a series");
    }
}

#[test]
fn well_formed_arguments_run() {
    let out = probe(&["tune", "0.01", "avoidance", "600"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("t,tput_flits_node_cyc,full_buffers,threshold\n"));
    assert!(stdout.contains("# latency="), "{stdout}");
}
