//! Checkpoint format compatibility: a container written by an earlier
//! build of this repository must keep restoring, byte for byte — or, across
//! a deliberate `VERSION` bump, be refused with the typed version error.
//!
//! The `.v12.ckpt` fixtures were written by `Simulation::checkpoint` at the
//! commit that introduced v12 (a recovery job writes no drain path: a
//! restore derives it from the route tables; the simulation's decisions
//! did not change). `small_recovery_c1673.v11.ckpt`, the v11 writing of
//! the recovery fixture, is kept as the container this build must refuse.
//!
//! `fixtures/small_recovery_c1673.v12.ckpt` is [`cfg`] stepped to cycle
//! 1673, the first cycle past 1500 with a Disha recovery drain holding the
//! token and another VC queued behind it. The four
//! `small_<scheme>_c2501.v12.ckpt` fixtures pin the other side-band
//! controllers' state layouts: the same configuration with only the scheme
//! swapped, stepped to cycle 2501 — off the gather grid, off every decision
//! period, and past at least one decision of every law.
//!
//! To regenerate after a deliberate format change (a `VERSION` bump):
//! point the `include_bytes!`s at the new version's names, copy the old
//! files to those names, and run this test file. The failing
//! `this_build_writes_the_parent_checkpoint` writes this build's bytes for
//! every fixture to `CARGO_TARGET_TMPDIR` and names each path; copy them
//! over the fixtures. Keep the previous recovery file as the container to
//! refuse and delete every other old file.

use sideband::SidebandConfig;
use stcc::{Controller, Scheme, SimConfig, SimError, Simulation, SummaryError};
use std::path::Path;
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// One earlier-written container: the scheme it was taken under, its file
/// name under `fixtures/` and the cycle it was taken at.
struct Fixture {
    scheme: &'static str,
    file: &'static str,
    bytes: &'static [u8],
    cycle: u64,
}

const FIXTURES: &[Fixture] = &[
    Fixture {
        scheme: "tune",
        file: "small_recovery_c1673.v12.ckpt",
        bytes: include_bytes!("fixtures/small_recovery_c1673.v12.ckpt"),
        cycle: 1673,
    },
    Fixture {
        scheme: "aimd",
        file: "small_aimd_c2501.v12.ckpt",
        bytes: include_bytes!("fixtures/small_aimd_c2501.v12.ckpt"),
        cycle: 2501,
    },
    Fixture {
        scheme: "decbit",
        file: "small_decbit_c2501.v12.ckpt",
        bytes: include_bytes!("fixtures/small_decbit_c2501.v12.ckpt"),
        cycle: 2501,
    },
    Fixture {
        scheme: "bbr",
        file: "small_bbr_c2501.v12.ckpt",
        bytes: include_bytes!("fixtures/small_bbr_c2501.v12.ckpt"),
        cycle: 2501,
    },
    Fixture {
        scheme: "static-12",
        file: "small_static12_c2501.v12.ckpt",
        bytes: include_bytes!("fixtures/small_static12_c2501.v12.ckpt"),
        cycle: 2501,
    },
];

fn cfg(scheme: &str) -> SimConfig {
    let sideband = SidebandConfig {
        radix: 8,
        ..SidebandConfig::paper()
    };
    SimConfig {
        net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.02)),
        scheme: Scheme::by_name(scheme, &sideband).expect("fixture scheme resolves"),
        cycles: 4_000,
        warmup: 500,
        seed: 13,
    }
}

#[test]
fn parent_written_checkpoint_restores_and_reserialises_byte_equal() {
    for f in FIXTURES {
        let sim = Simulation::restore(cfg(f.scheme), None, f.bytes).expect("fixture restores");
        assert_eq!(sim.now(), f.cycle, "{}", f.scheme);
        assert!(sim.audit().is_clean(), "{}", f.scheme);
        if f.scheme == "tune" {
            // Not a vacuous state: the recovery path is mid-drain.
            assert!(sim.network().recovery_active());
            assert!(sim.network().token_queue_len() > 0);
        } else {
            // Not a vacuous state: the law has decided at least once
            // (`static` never decides; its gate and side-band are pinned).
            let decided = sim.controller_counters().decisions > 0;
            assert_eq!(decided, f.scheme != "static-12", "{}", f.scheme);
        }
        assert_eq!(
            sim.checkpoint(),
            f.bytes,
            "{}: codec no longer writes v12 bytes",
            f.scheme
        );
    }
}

/// On a mismatch this build's bytes are written next to the test binary,
/// ready to become the new fixtures.
#[test]
fn this_build_writes_the_parent_checkpoint() {
    let mut written = Vec::new();
    for f in FIXTURES {
        let mut sim = Simulation::new(cfg(f.scheme)).unwrap();
        while sim.now() < f.cycle {
            sim.step();
        }
        let bytes = sim.checkpoint();
        if bytes != f.bytes {
            let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(f.file);
            std::fs::write(&path, bytes).expect("this build's bytes are writable");
            written.push(path.display().to_string());
        }
    }
    assert!(
        written.is_empty(),
        "this build writes other bytes than these fixtures; its own are in:\n{}",
        written.join("\n")
    );
}

#[test]
fn parent_written_checkpoint_runs_on_like_an_uninterrupted_run() {
    for f in FIXTURES {
        let mut resumed =
            Simulation::restore(cfg(f.scheme), None, f.bytes).expect("fixture restores");
        resumed.run_to_end();
        let mut straight = Simulation::new(cfg(f.scheme)).unwrap();
        straight.run_to_end();
        assert_eq!(resumed.checkpoint(), straight.checkpoint(), "{}", f.scheme);
        assert_eq!(
            resumed.summary().unwrap(),
            straight.summary().unwrap(),
            "{}",
            f.scheme
        );
    }
}

/// A v11 container writes a recovery job's drain path, which v12 derives
/// instead, so its recovery section would misparse: restoring one must
/// fail typed, with the version error, before anything decodes.
#[test]
fn a_v11_container_is_refused_with_the_version_error() {
    let v11 = include_bytes!("fixtures/small_recovery_c1673.v11.ckpt");
    match Simulation::restore(cfg("tune"), None, v11) {
        Err(SimError::Checkpoint(checkpoint::CheckpointError::BadVersion { found: 11 })) => {}
        Err(other) => panic!("v11 container refused with the wrong error: {other}"),
        Ok(_) => panic!("v11 container restored"),
    }
}

/// A checkpoint carries only ground truth, so restore must re-derive the
/// rest: for every registry scheme and a static threshold, a simulation
/// restored off the gather grid and past a decision holds the controller
/// the stepped one does — the law's sizes and DEC-bit's verdict included.
/// A hotspot keeps most nodes congested, so that verdict is "throttle".
#[test]
fn restore_rederives_what_the_controller_checkpoint_omits() {
    let hotspot = Pattern::Hotspot {
        target: 9,
        fraction: 0.3,
    };
    for name in Scheme::registry_names()
        .iter()
        .copied()
        .chain(["static-12"])
    {
        let cfg = SimConfig {
            workload: Workload::steady(hotspot.clone(), Process::bernoulli(0.3)),
            ..cfg(name)
        };
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        while sim.now() < 2501 {
            sim.step();
        }
        let ctl = sim.controller();
        if name != "static-12" && Controller::sideband(ctl).is_some() {
            assert!(sim.controller_counters().decisions > 0, "{name}: vacuous");
        }
        if name == "decbit" {
            assert!(Controller::throttling(ctl), "decbit: vacuous verdict");
        }
        let restored = Simulation::restore(cfg, None, &sim.checkpoint()).unwrap();
        assert_eq!(
            format!("{:?}", restored.controller()),
            format!("{ctl:?}"),
            "{name}"
        );
    }
}

/// The measured window opens with the step at `warmup`, whether the
/// simulation got there by stepping or by restoring a checkpoint taken
/// there, and it measures that step's deliveries.
#[test]
fn the_measured_window_opens_one_step_past_warmup() {
    let cfg = cfg("tune");
    let mut stepped = Simulation::new(cfg.clone()).unwrap();
    while stepped.now() < cfg.warmup {
        stepped.step();
    }
    let before = stepped.network().counters().delivered_flits;
    let restored = Simulation::restore(cfg.clone(), None, &stepped.checkpoint()).unwrap();
    for mut sim in [stepped, restored] {
        assert_eq!(
            sim.summary(),
            Err(SummaryError::BeforeWarmup {
                now: cfg.warmup,
                warmup: cfg.warmup
            })
        );
        sim.step();
        let summary = sim.summary().expect("one cycle is measured");
        let after = sim.network().counters().delivered_flits;
        assert_eq!(summary.measured_cycles, 1);
        assert_eq!(summary.delivered_flits, after - before);
    }
}
