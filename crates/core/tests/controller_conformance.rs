//! Cross-controller conformance battery (DESIGN.md §6).
//!
//! Every controller in the registry — plus a representative static
//! threshold — runs through the same five properties. A controller that
//! passes here is safe to hand to `experiments`, `chaos` and the golden
//! figures: checkpointing, fast-forward, auditing, fault storms and the
//! throttle gate all behave.

use faults::{FaultPlan, SidebandFaults};
use sideband::SidebandConfig;
use stcc::{Controller, Scheme, SimConfig, Simulation};
use traffic::{Pattern, Phase, Process, Workload};
use wormsim::{CongestionControl, DeadlockMode, NetConfig};

/// One registered controller plus the contract flags the battery checks
/// against (what the controller *promises*, not what it happens to do).
struct Entry {
    /// Name as resolved by `Scheme::by_name`.
    name: &'static str,
    /// Gates injection from the global side-band estimate: must throttle
    /// at some point while a synthetic census ramps to saturation.
    gates: bool,
    /// Consumes the side-band census: must veto quiescence fast-forward
    /// (`next_wakeup(now) == now`) because gathers tick every cycle.
    has_sideband: bool,
    /// Runs a staleness watchdog: must trip and fail open under a
    /// side-band blackout.
    has_watchdog: bool,
}

/// The full roster: every `Scheme::registry_names()` entry plus a static
/// threshold (static is parameterized, so it is not in the name registry).
const ROSTER: &[Entry] = &[
    Entry {
        name: "base",
        gates: false,
        has_sideband: false,
        has_watchdog: false,
    },
    Entry {
        name: "alo",
        gates: false,
        has_sideband: false,
        has_watchdog: false,
    },
    Entry {
        name: "static-12",
        gates: true,
        has_sideband: true,
        has_watchdog: false,
    },
    Entry {
        name: "tune",
        gates: true,
        has_sideband: true,
        has_watchdog: true,
    },
    Entry {
        name: "aimd",
        gates: true,
        has_sideband: true,
        has_watchdog: true,
    },
    Entry {
        name: "decbit",
        gates: true,
        has_sideband: true,
        has_watchdog: true,
    },
    Entry {
        name: "bbr",
        gates: true,
        has_sideband: true,
        has_watchdog: true,
    },
];

fn small_sideband() -> SidebandConfig {
    SidebandConfig {
        radix: 8,
        ..SidebandConfig::paper()
    }
}

fn scheme_for(e: &Entry) -> Scheme {
    Scheme::by_name(e.name, &small_sideband()).expect("roster name resolves")
}

fn cfg(e: &Entry, seed: u64, cycles: u64, rate: f64) -> SimConfig {
    SimConfig {
        net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme: scheme_for(e),
        cycles,
        warmup: 1_000,
        seed,
    }
}

/// The registry itself is covered: every name the battery pins must be in
/// `registry_names()` and vice versa (static is the one deliberate extra).
#[test]
fn roster_covers_the_whole_registry() {
    let covered: Vec<&str> = ROSTER
        .iter()
        .filter(|e| !e.name.starts_with("static-"))
        .map(|e| e.name)
        .collect();
    assert_eq!(covered, Scheme::registry_names());
    assert_eq!(
        ROSTER.len(),
        Scheme::registry_names().len() + 1,
        "exactly one static representative rides along"
    );
}

/// Property 1 — checkpoint/restore is bit-exact mid-tune: splitting a run
/// at a cycle that is neither a gather nor a tune boundary and resuming
/// from the checkpoint reproduces the uninterrupted run's final
/// checkpoint byte for byte.
#[test]
fn checkpoint_restore_mid_tune_is_bit_exact() {
    for e in ROSTER {
        let cfg = cfg(e, 11, 6_000, 0.05);
        let mut golden = Simulation::new(cfg.clone()).unwrap();
        golden.run_to_end();
        let want = golden.checkpoint();

        let mut head = Simulation::new(cfg.clone()).unwrap();
        // 2501 is prime to every cadence in play: off the 16-cycle gather
        // grid, off every tune period, mid-measurement-window.
        while head.now() < 2_501 {
            head.step();
        }
        let snap = head.checkpoint();
        let mut resumed = Simulation::restore(cfg, None, &snap).unwrap();
        resumed.run_to_end();
        assert_eq!(
            resumed.checkpoint(),
            want,
            "{}: resumed run diverged from uninterrupted run",
            e.name
        );
    }
}

/// Property 2 — fast-forward is either vetoed or exact: side-band
/// controllers must return `next_wakeup(now) == now` (gathers tick every
/// cycle, so no cycle is provably empty); controllers that permit
/// skipping must produce a byte-identical run when the engine uses it.
#[test]
fn fast_forward_is_vetoed_or_cycle_exact() {
    for e in ROSTER {
        let ctl = scheme_for(e).build();
        let wake = CongestionControl::next_wakeup(&ctl, 123);
        if e.has_sideband {
            assert_eq!(wake, 123, "{}: side-band controllers must veto", e.name);
        } else {
            assert_eq!(wake, u64::MAX, "{}: wakes on traffic only", e.name);
        }

        // Phased workload with a silent opening and long periodic gaps:
        // maximal fast-forward opportunity for the controllers that allow
        // it, and a veto exercise for the ones that don't.
        let wl = Workload::phased(vec![
            Phase {
                duration: 3_000,
                pattern: Pattern::UniformRandom,
                process: Process::Silent,
            },
            Phase {
                duration: u64::MAX,
                pattern: Pattern::UniformRandom,
                process: Process::periodic(700),
            },
        ]);
        let cfg = SimConfig {
            net: NetConfig::small(DeadlockMode::Avoidance),
            workload: wl,
            scheme: scheme_for(e),
            cycles: 20_000,
            warmup: 1_000,
            seed: 5,
        };
        let mut ff = Simulation::new(cfg.clone()).unwrap();
        ff.run_to_end();
        let mut stepped = Simulation::new(cfg).unwrap();
        while stepped.now() < 20_000 {
            stepped.step();
        }
        assert_eq!(
            ff.checkpoint(),
            stepped.checkpoint(),
            "{}: fast-forwarded run diverged from stepped run",
            e.name
        );
    }
}

/// Property 3 — audit-clean stepping: a saturated run with the invariant
/// audit on a 64-cycle cadence (the `STCC_AUDIT=64` contract) neither
/// panics nor ends in an unexplained state, and the final checkpoint
/// (itself audited) seals cleanly.
#[test]
fn saturated_run_is_audit_clean_at_cadence_64() {
    for e in ROSTER {
        let mut sim = Simulation::new(cfg(e, 7, 3_000, 0.08)).unwrap();
        sim.set_audit_every(Some(64));
        while sim.now() < 3_000 {
            sim.step();
        }
        let _ = sim.checkpoint();
        assert!(sim.audit().is_clean(), "{}: dirty final audit", e.name);
    }
}

/// Property 4 — staleness watchdog under a side-band blackout: with every
/// gather lost, watchdog controllers trip at least once, stay tripped,
/// and fail open (no throttling on frozen data); watchdog-free
/// controllers record zero trips and keep running.
#[test]
fn blackout_storm_trips_watchdogs_and_fails_open() {
    for e in ROSTER {
        let plan = FaultPlan::sideband_only(
            99,
            SidebandFaults {
                loss_rate: 1.0,
                ..SidebandFaults::none()
            },
        );
        let mut sim = Simulation::with_faults(cfg(e, 21, 6_000, 0.05), plan).unwrap();
        sim.run_to_end();
        let rep = sim.fault_report();
        if e.has_sideband {
            let stats = rep.sideband.expect("side-band stats present");
            assert!(stats.lost_snapshots > 0, "{}: storm was vacuous", e.name);
        } else {
            assert!(rep.sideband.is_none(), "{}: phantom side-band", e.name);
        }
        if e.has_watchdog {
            assert!(
                rep.controller.watchdog_trips >= 1,
                "{}: watchdog never tripped",
                e.name
            );
            assert!(
                rep.watchdog_active,
                "{}: blackout persists, must stay tripped",
                e.name
            );
            assert!(
                !Controller::throttling(sim.controller()),
                "{}: must fail open on stale data",
                e.name
            );
        } else {
            assert_eq!(
                rep.controller.watchdog_trips, 0,
                "{}: phantom watchdog",
                e.name
            );
            assert!(!rep.watchdog_active, "{}: phantom watchdog", e.name);
        }
    }
}

/// Property 5 — throttle gate tracks the census: fed a synthetic census
/// that sits at zero and then ramps to buffer saturation (while delivery
/// collapses), no controller throttles an idle network, every gating
/// controller throttles at some point during the ramp, and the local-only
/// baselines never engage the global gate.
///
/// "At some point" is deliberate: the self-tuner and the BBR max-filter
/// both legitimately re-open the gate as they re-anchor to the new
/// operating point, so strict monotonicity is not part of the contract.
#[test]
fn synthetic_census_ramp_engages_exactly_the_gating_controllers() {
    for e in ROSTER {
        let mut ctl = scheme_for(e).build();
        let max = 768_u32; // 64 nodes x 4 ports x 3 VCs on the small net
        let ramp_start = 1_000_u64;
        let mut throttled_at_zero = false;
        let mut throttled_in_ramp = false;
        for now in 0..6_000_u64 {
            let census = if now < ramp_start {
                0
            } else {
                (u32::try_from((now - ramp_start) / 2).unwrap()).min(max)
            };
            // Healthy delivery while idle, collapse once congestion ramps.
            let delivered = 8 * now.min(ramp_start);
            Controller::observe_census(&mut ctl, now, census, delivered);
            if Controller::throttling(&ctl) {
                if now < ramp_start {
                    throttled_at_zero = true;
                } else {
                    throttled_in_ramp = true;
                }
            }
        }
        assert!(!throttled_at_zero, "{}: throttled an idle network", e.name);
        assert_eq!(
            throttled_in_ramp, e.gates,
            "{}: gate response does not match its contract",
            e.name
        );
    }
}
