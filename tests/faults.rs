//! Fault-injection integration tests: the full stack under the `faults`
//! crate's plans, exercising the acceptance criteria of the resilience
//! subsystem end to end through the public API.

use faults::{FaultPlan, HotspotFault, LinkFault, SidebandFaults};
use stcc::prelude::*;
use stcc::{SimError, Simulation};

fn cfg(scheme: Scheme, net: NetConfig, rate: f64, cycles: u64, seed: u64) -> SimConfig {
    SimConfig {
        net,
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme,
        cycles,
        warmup: cycles / 6,
        seed,
    }
}

fn blackout(seed: u64) -> FaultPlan {
    FaultPlan::sideband_only(
        seed,
        SidebandFaults {
            loss_rate: 1.0,
            ..SidebandFaults::none()
        },
    )
}

/// The headline acceptance criterion: with 100% side-band loss the tuned
/// controller must not panic, its watchdog must trip (visibly, in the
/// counters), and delivered bandwidth must stay within 10% of a static
/// threshold scheme suffering the same outage (both degrade to uncontrolled
/// behavior — the tuner must not do *worse* than that).
#[test]
fn total_sideband_blackout_degrades_gracefully() {
    let net = NetConfig::paper(DeadlockMode::PAPER_RECOVERY);
    let run = |scheme: Scheme| {
        let mut sim =
            Simulation::with_faults(cfg(scheme, net.clone(), 0.06, 16_000, 2), blackout(77))
                .expect("valid faulted simulation");
        sim.run_to_end();
        (
            sim.summary().unwrap().throughput_flits(),
            sim.fault_report(),
        )
    };
    let (tuned_tput, tuned_report) = run(Scheme::tuned_paper());
    let (static_tput, static_report) = run(Scheme::Static {
        threshold: 250,
        sideband: sideband::SidebandConfig::paper(),
    });

    assert!(
        tuned_report.controller.watchdog_trips >= 1,
        "watchdog must trip during a blackout"
    );
    assert!(tuned_report.watchdog_active, "the outage never ends");
    assert_eq!(tuned_report.controller.watchdog_rearms, 0);
    let sb = tuned_report.sideband.expect("tuned has a side-band");
    assert!(sb.lost_snapshots > 0, "losses must be counted");
    let sb_static = static_report.sideband.expect("static has a side-band");
    assert_eq!(
        sb.lost_snapshots, sb_static.lost_snapshots,
        "same plan, same losses"
    );

    assert!(
        (tuned_tput - static_tput).abs() <= 0.10 * static_tput,
        "blackout: tuned ({tuned_tput}) must stay within 10% of static ({static_tput})"
    );
}

/// A zero-fault plan must leave the run bit-identical to a plain
/// [`Simulation::new`] with the same configuration.
#[test]
fn quiet_plan_is_bit_identical_to_no_plan() {
    let c = cfg(
        Scheme::tuned_paper(),
        NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        0.03,
        20_000,
        11,
    );
    let mut plain = Simulation::new(c.clone()).unwrap();
    plain.run_to_end();
    let mut faulted = Simulation::with_faults(c, FaultPlan::none(99)).unwrap();
    faulted.run_to_end();

    let a = plain.summary().unwrap();
    let b = faulted.summary().unwrap();
    assert_eq!(a.delivered_flits, b.delivered_flits);
    assert_eq!(a.delivered_packets, b.delivered_packets);
    assert_eq!(a.throttled_injections, b.throttled_injections);
    assert_eq!(
        a.network_latency.mean().map(f64::to_bits),
        b.network_latency.mean().map(f64::to_bits),
        "latency distribution must match to the bit"
    );
    assert_eq!(
        plain.tuned().unwrap().threshold().map(f64::to_bits),
        faulted.tuned().unwrap().threshold().map(f64::to_bits)
    );
    assert!(faulted.fault_report().is_clean());
}

/// Identical `(SimConfig, FaultPlan)` pairs must produce identical
/// summaries *and* identical fault counters, even for a plan exercising
/// every fault class at once.
#[test]
fn faulty_runs_are_deterministic() {
    let plan = FaultPlan {
        seed: 0xDEC0DE,
        sideband: SidebandFaults {
            loss_rate: 0.3,
            delay_rate: 0.3,
            max_delay: 200,
            corrupt_rate: 0.2,
            corrupt_bits: 2,
        },
        links: vec![LinkFault {
            node: 3,
            port: 0,
            start: 2_000,
            end: 6_000,
        }],
        hotspots: vec![HotspotFault {
            node: 5,
            start: 4_000,
            end: 8_000,
        }],
    };
    let run = || {
        let mut sim = Simulation::with_faults(
            cfg(
                Scheme::tuned_paper(),
                NetConfig::small(DeadlockMode::PAPER_RECOVERY),
                0.03,
                20_000,
                11,
            ),
            plan.clone(),
        )
        .unwrap();
        sim.run_to_end();
        let s = sim.summary().unwrap();
        (
            s.delivered_flits,
            s.throttled_injections,
            s.network_latency.mean().map(f64::to_bits),
            sim.fault_report(),
        )
    };
    let (flits_a, throttled_a, lat_a, report_a) = run();
    let (flits_b, throttled_b, lat_b, report_b) = run();
    assert_eq!(flits_a, flits_b);
    assert_eq!(throttled_a, throttled_b);
    assert_eq!(lat_a, lat_b);
    assert_eq!(report_a, report_b, "fault counters must replay exactly");
    // The plan is noisy enough that something must actually have happened.
    let sb = report_a.sideband.unwrap();
    assert!(sb.lost_snapshots > 0 && sb.delayed_snapshots > 0);
    assert!(report_a.link_stall_cycles > 0);
    assert!(report_a.hotspot_stall_cycles > 0);
}

/// Link and hotspot stalls block flits only inside their windows: traffic
/// backed up behind a fault drains completely once the window closes.
#[test]
fn network_faults_stall_then_recover() {
    let mut net = wormsim::Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
    net.install_faults(FaultPlan {
        seed: 1,
        sideband: SidebandFaults::none(),
        links: vec![LinkFault {
            node: 0,
            port: 1,
            start: 500,
            end: 2_500,
        }],
        hotspots: vec![HotspotFault {
            node: 9,
            start: 500,
            end: 2_500,
        }],
    })
    .unwrap();
    let nodes = net.torus().node_count();
    let mut runner = traffic::WorkloadRunner::new(
        &Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.01)),
        nodes,
        5,
    )
    .unwrap();
    let mut ctl = wormsim::NoControl;
    net.run(3_000, &mut |now, node| runner.poll(now, node), &mut ctl);
    let mut silent = |_: u64, _: usize| None;
    net.run(30_000, &mut silent, &mut ctl);
    let c = net.counters();
    assert!(
        c.link_stall_cycles > 0,
        "the faulted link must have blocked flits"
    );
    assert!(
        c.hotspot_stall_cycles > 0,
        "the hotspot must have blocked deliveries"
    );
    assert_eq!(
        c.generated_packets, c.delivered_packets,
        "everything drains once the fault windows close"
    );
    assert_eq!(net.live_packets(), 0);
}

/// A plan naming a node outside the topology is rejected at construction,
/// not discovered mid-run.
#[test]
fn invalid_plans_are_rejected_up_front() {
    let plan = FaultPlan {
        seed: 0,
        sideband: SidebandFaults::none(),
        links: vec![],
        hotspots: vec![HotspotFault {
            node: 10_000,
            start: 0,
            end: 100,
        }],
    };
    let err = Simulation::with_faults(
        cfg(
            Scheme::Base,
            NetConfig::small(DeadlockMode::Avoidance),
            0.01,
            5_000,
            1,
        ),
        plan,
    )
    .expect_err("out-of-range node must be rejected");
    assert!(matches!(err, SimError::Faults(_)), "got {err}");
}
