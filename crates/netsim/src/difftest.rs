//! Differential test: the timer-wheel starvation stage must match the
//! reference full scan decision-for-decision.
//!
//! Two networks with identical configuration are driven by identical
//! traffic; one steps through the production pipeline and its
//! [`TimerWheel`](crate::wheel::TimerWheel), the other through
//! [`cycle_with_scan`] — the same stages with the oracle kept here, the
//! full scan the wheel replaced ([`detect_starved_heads_scan`]), in the
//! starvation stage's place. After every cycle, all state that any
//! future cycle can observe must be equal — assignments, token-queue order,
//! output allocations, buffers, counters. Only two things are allowed to
//! differ: the wheel's own bookkeeping (the scan network enrolls through
//! `route_win` but never drains, so its deadlines go stale) and the
//! `stage_starvation_checks` counter (the scan path doesn't count wheel
//! evaluations).
//!
//! The default test drives one seed hot enough to trip Disha suspicions
//! (asserted non-vacuous); the `slow-proptests` feature widens the sweep
//! over seeds, loads and timeouts.

use crate::config::{DeadlockMode, NetConfig};
use crate::control::NoControl;
use crate::counters::Counters;
use crate::network::{Assign, Network};
use faults::{FaultPlan, LinkFault, SidebandFaults};

/// SplitMix64: a pure hash of (seed, now, node) so both networks see the
/// exact same traffic without sharing closure state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A Bernoulli source at `load`% per node-cycle, uniform destinations.
pub(crate) fn source(
    seed: u64,
    nodes: usize,
    load: u64,
) -> impl FnMut(u64, usize) -> Option<usize> {
    move |now, node| {
        let r = mix(seed ^ mix(now) ^ mix(node as u64).rotate_left(17));
        (r % 100 < load).then(|| {
            let dst = (r >> 32) as usize % nodes;
            if dst == node {
                (dst + 1) % nodes
            } else {
                dst
            }
        })
    }
}

/// The 16-node recovery configuration the crate's unit tests poke at.
pub(crate) fn small_cfg() -> NetConfig {
    NetConfig {
        radix: 4,
        dimensions: 2,
        ..NetConfig::small(DeadlockMode::Recovery { timeout: 8 })
    }
}

/// A saturated [`small_cfg`] network stopped mid-run, the starvation
/// machinery and token queue demonstrably hot. Deterministic: every call
/// builds the same network.
pub(crate) fn hot_net() -> Network {
    let mut net = Network::new(small_cfg()).unwrap();
    net.run(1_500, &mut source(1, 16, 60), &mut NoControl);
    let report = net.audit();
    assert!(report.is_clean(), "hot_net is not clean: {report}");
    assert!(net.packets.live() > 0, "hot_net drained: nothing to poke");
    net
}

/// The oracle: the full-scan starvation stage the timer wheel replaced,
/// kept verbatim. Walks every busy VC each scan cycle and applies the same
/// predicate and actions as `Network::starvation_stage`.
fn detect_starved_heads_scan(net: &mut Network, now: u64, timeout: u64) {
    if timeout == 0 || !now.is_multiple_of(timeout) {
        return;
    }
    for node in 0..net.vc_busy.len() {
        let mut mask = net.vc_busy[node];
        while mask != 0 {
            let f = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            check_starved_head(net, now, timeout, node, net.vc_idx(node, 0, 0) + f);
        }
    }
}

/// One VC's starved-head check of [`detect_starved_heads_scan`].
fn check_starved_head(net: &mut Network, now: u64, timeout: u64, node: usize, idx: usize) {
    let Assign::Out { port, vc: ovc } = net.vc_assign[idx] else {
        return;
    };
    if net.vc_bufs.is_empty(idx) {
        return;
    }
    if net.vc_bufs.front_idx(idx) != 0 || net.vc_bufs.front_ready_at(idx) > now {
        return;
    }
    let pid = net.vc_bufs.front_packet(idx);
    if now.saturating_sub(net.packets.get(pid).last_move) < timeout {
        return;
    }
    let oidx = net.vc_idx(node, usize::from(port), usize::from(ovc));
    debug_assert!(net.out_alloc[oidx]);
    net.out_alloc[oidx] = false;
    net.commit_suspect(idx);
}

/// One cycle of an uncontrolled recovery-mode network with the oracle in
/// the starvation stage's place: the stage sequence of
/// `Network::cycle_from`, restated. A stage added there and not here shows
/// up as a divergence below.
fn cycle_with_scan(
    net: &mut Network,
    source: &mut dyn FnMut(u64, usize) -> Option<usize>,
    timeout: u64,
) {
    let now = net.now;
    for node in 0..net.vc_busy.len() {
        if let Some(dst) = source(now, node) {
            net.offer(now, node, dst);
        }
    }
    net.decide_injection(now, &mut NoControl);
    net.route_phase(now);
    detect_starved_heads_scan(net, now, timeout);
    net.recovery_stage(now);
    net.switch_phase(now);
    net.now = now + 1;
}

/// Asserts every future-observable field of the two networks is equal.
/// Excluded by design: wheel bookkeeping and `stage_starvation_checks`.
fn assert_observably_equal(wheel: &Network, scan: &Network, cycle: u64) {
    let mut cw = *wheel.counters();
    let mut cs = *scan.counters();
    cw.stage_starvation_checks = 0;
    cs.stage_starvation_checks = 0;
    assert_eq!(cw, cs, "counters diverged at cycle {cycle}");
    assert_eq!(wheel.now, scan.now, "clock diverged at cycle {cycle}");
    assert_eq!(
        wheel.full_buffers, scan.full_buffers,
        "census diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.vc_assign, scan.vc_assign,
        "assignments diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.vc_routed_at, scan.vc_routed_at,
        "routing timestamps diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.vc_blocked, scan.vc_blocked,
        "blocked counters diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.vc_queued, scan.vc_queued,
        "token-queue membership diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.out_alloc, scan.out_alloc,
        "output allocations diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.vc_busy, scan.vc_busy,
        "busy masks diverged at cycle {cycle}"
    );
    let tokens = |n: &Network| -> Vec<u32> {
        (0..n.token_queue.len(0))
            .map(|i| n.token_queue.get(0, i))
            .collect()
    };
    assert_eq!(
        tokens(wheel),
        tokens(scan),
        "token FIFO order diverged at cycle {cycle}"
    );
    assert_eq!(
        wheel.recovery.is_some(),
        scan.recovery.is_some(),
        "recovery activity diverged at cycle {cycle}"
    );
    if let (Some(a), Some(b)) = (&wheel.recovery, &scan.recovery) {
        assert_eq!(
            (a.packet, &a.path, a.src_vc, a.tail_in),
            (b.packet, &b.path, b.src_vc, b.tail_in),
            "recovery job diverged at cycle {cycle}"
        );
    }
}

/// Drives a wheel/scan pair for `cycles` under the given traffic (and an
/// optional fault plan installed identically on both networks) and returns
/// the wheel network's counters (for non-vacuity checks).
fn drive_pair_with(
    seed: u64,
    load: u64,
    timeout: u64,
    cycles: u64,
    plan: Option<FaultPlan>,
) -> Counters {
    let cfg = NetConfig {
        radix: 4,
        dimensions: 2,
        ..NetConfig::small(DeadlockMode::Recovery { timeout })
    };
    let nodes = 16;
    let mut wheel_net = Network::new(cfg.clone()).unwrap();
    let mut scan_net = Network::new(cfg).unwrap();
    if let Some(plan) = plan {
        wheel_net.install_faults(plan.clone()).unwrap();
        scan_net.install_faults(plan).unwrap();
    }
    let mut src_w = source(seed, nodes, load);
    let mut src_s = source(seed, nodes, load);
    for c in 0..cycles {
        wheel_net.cycle(&mut src_w, &mut NoControl);
        cycle_with_scan(&mut scan_net, &mut src_s, timeout);
        assert_observably_equal(&wheel_net, &scan_net, c);
    }
    // Both must also report the same deliveries, in the same order.
    let dw: Vec<_> = wheel_net.drain_deliveries().collect();
    let ds: Vec<_> = scan_net.drain_deliveries().collect();
    assert_eq!(dw, ds, "delivery records diverged");
    *wheel_net.counters()
}

/// Drives a fault-free wheel/scan pair and returns the number of Disha
/// suspicions (for non-vacuity checks).
fn drive_pair(seed: u64, load: u64, timeout: u64, cycles: u64) -> u64 {
    drive_pair_with(seed, load, timeout, cycles, None).recovery_timeouts
}

/// A PR-1 fault storm for the 16-node pair: a handful of scheduled link
/// stalls plus side-band loss/corruption. The side-band faults are inert
/// here (`Network` has no side-band) but exercise the plan plumbing the
/// chaos harness also drives.
fn storm_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        sideband: SidebandFaults {
            loss_rate: 0.3,
            ..SidebandFaults::none()
        },
        links: (0..4)
            .map(|i| LinkFault {
                node: i * 4 + 1,
                port: i % 4,
                start: 200 + 300 * i as u64,
                end: 1_400 + 300 * i as u64,
            })
            .collect(),
        hotspots: Vec::new(),
    }
}

#[test]
fn wheel_matches_reference_scan_under_saturating_traffic() {
    // 60% per-node load on a 16-node recovery network deadlocks reliably;
    // the run must exercise the starvation machinery to prove anything.
    let suspicions = drive_pair(1, 60, 8, 4_000);
    assert!(suspicions > 0, "test is vacuous: no Disha suspicions fired");
}

#[test]
fn wheel_matches_reference_scan_at_light_load() {
    // Light load rarely (often never) trips starvation — the interesting
    // property here is that wheel entries going stale and re-parking cause
    // no observable drift.
    drive_pair(2, 8, 8, 4_000);
}

#[test]
fn wheel_matches_reference_scan_under_fault_storm() {
    // Link stalls perturb exactly the timing the starvation machinery
    // watches (ready-but-stuck headers), so equality under a storm is the
    // strongest form of the differential property. Loud enough traffic
    // that both suspicions and stalls demonstrably fire.
    let c = drive_pair_with(5, 60, 8, 4_000, Some(storm_plan(5)));
    assert!(
        c.link_stall_cycles > 0,
        "test is vacuous: no link stalls fired"
    );
    assert!(
        c.recovery_timeouts > 0,
        "test is vacuous: no Disha suspicions fired"
    );
}

/// Wider sweep: seeds × loads × timeouts (including a timeout that is not
/// a power of two and one shorter than the hop latency bound matters for).
#[test]
#[cfg_attr(not(feature = "slow-proptests"), ignore = "enable slow-proptests")]
fn wheel_matches_reference_scan_property_sweep() {
    let mut total_suspicions = 0;
    for seed in 0..6u64 {
        for &(load, timeout) in &[(60, 8), (45, 5), (80, 3), (30, 16)] {
            total_suspicions += drive_pair(seed, load, timeout, 3_000);
        }
    }
    assert!(
        total_suspicions > 0,
        "sweep is vacuous: no suspicions fired"
    );
}
