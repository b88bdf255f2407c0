//! Randomized invariants of the full simulator, driven through the public
//! API with seeded workloads and configurations.
//!
//! Formerly written with `proptest`; rewritten as seeded in-tree sweeps so
//! the workspace builds with no network access (see README "Hermetic
//! build").

use stcc::prelude::*;
use stcc::Simulation;
use traffic::{splitmix64, WorkloadRunner};
use wormsim::{Network, NoControl};

const CASES: u64 = 6;

fn pattern_for(idx: u64) -> Pattern {
    match idx % 6 {
        0 => Pattern::UniformRandom,
        1 => Pattern::BitReversal,
        2 => Pattern::PerfectShuffle,
        3 => Pattern::Butterfly,
        4 => Pattern::BitComplement,
        _ => Pattern::Transpose,
    }
}

fn mode_for(idx: u64) -> DeadlockMode {
    match idx % 3 {
        0 => DeadlockMode::Avoidance,
        1 => DeadlockMode::Recovery { timeout: 8 },
        _ => DeadlockMode::Recovery { timeout: 64 },
    }
}

/// Every delivered packet obeys basic causality and its latency is at least
/// the zero-load pipeline time for its path; flit accounting is exact after
/// a full drain.
#[test]
fn delivery_records_are_causal_and_conserved() {
    for case in 0..CASES {
        let mut s = 0xCA5E_0000 + case;
        let pattern = pattern_for(splitmix64(&mut s));
        let mode = mode_for(splitmix64(&mut s));
        let rate = 0.001 + (splitmix64(&mut s) % 1000) as f64 / 1000.0 * 0.039;
        let seed = splitmix64(&mut s);

        let mut net = Network::new(NetConfig::small(mode)).unwrap();
        let nodes = net.torus().node_count();
        let wl = Workload::steady(pattern, Process::bernoulli(rate));
        let mut runner = WorkloadRunner::new(&wl, nodes, seed).unwrap();
        let mut ctl = NoControl;
        let mut records = Vec::new();
        for _ in 0..40 {
            for _ in 0..100 {
                net.cycle_from(&mut |now, offer| runner.arrivals(now, offer), &mut ctl);
            }
            records.extend(net.drain_deliveries());
        }
        // Drain until empty, within a 300k-cycle budget.
        let end = net.now() + 300_000;
        while net.live_packets() > 0 && net.now() < end {
            net.cycle_from(&mut |_, _| {}, &mut ctl);
        }
        records.extend(net.drain_deliveries());

        let c = net.counters();
        assert_eq!(
            c.generated_packets, c.delivered_packets,
            "full drain (case {case})"
        );
        assert_eq!(net.live_packets(), 0);
        assert_eq!(records.len() as u64, c.delivered_packets);
        let torus = net.torus();
        let len = net.config().packet_len as u64;
        for r in &records {
            assert!(r.generated_at <= r.injected_at);
            assert!(r.injected_at < r.delivered_at);
            let dist = torus.distance(r.src, r.dst) as u64;
            // The exact zero-load latency (DESIGN.md §4): the header takes
            // 3 cycles a hop (routing, crossbar, link), the body 1 flit a
            // cycle behind it; contention only adds.
            let floor = 3 * dist + len - 1;
            assert!(
                r.network_latency() >= floor,
                "latency {} under physical floor {floor} (dist {dist}, case {case})",
                r.network_latency(),
            );
        }
    }
}

/// The throttle only ever delays packets — with the same workload, the set
/// of generated packets is identical under any controller, and nothing is
/// lost.
#[test]
fn controllers_never_lose_packets() {
    for case in 0..CASES {
        let mut s = 0x10CC_0000 + case;
        let mode = mode_for(splitmix64(&mut s));
        let rate = 0.005 + (splitmix64(&mut s) % 1000) as f64 / 1000.0 * 0.075;
        let seed = splitmix64(&mut s);
        let tuned = Scheme::Tuned(TuneConfig::for_net(&NetConfig::small(mode)));
        for scheme in [Scheme::Alo, tuned] {
            let mut sim = Simulation::new(SimConfig {
                net: NetConfig::small(mode),
                workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
                scheme,
                cycles: 6_000,
                warmup: 1_000,
                seed,
            })
            .unwrap();
            sim.run_to_end();
            let c = sim.network().counters();
            assert!(c.delivered_packets <= c.generated_packets);
            assert_eq!(
                c.generated_packets - c.delivered_packets,
                sim.network().live_packets() as u64,
                "undelivered packets are all accounted for in queues/flight (case {case})"
            );
        }
    }
}

/// The full-buffer census used by the side-band never exceeds the number of
/// buffers that exist.
#[test]
fn census_is_bounded() {
    for case in 0..CASES {
        let mut s = 0xCE45_0000 + case;
        let mode = mode_for(splitmix64(&mut s));
        let rate = 0.02 + (splitmix64(&mut s) % 1000) as f64 / 1000.0 * 0.08;
        let seed = splitmix64(&mut s);

        let mut net = Network::new(NetConfig::small(mode)).unwrap();
        let nodes = net.torus().node_count();
        let wl = Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate));
        let mut runner = WorkloadRunner::new(&wl, nodes, seed).unwrap();
        let mut ctl = NoControl;
        for _ in 0..30 {
            for _ in 0..200 {
                net.cycle_from(&mut |now, offer| runner.arrivals(now, offer), &mut ctl);
            }
            assert!(net.full_buffer_count() <= net.total_vc_buffers());
        }
    }
}

/// At saturation the source queues fill, and a queued packet is a queue
/// entry with no packet record: every generated, undelivered packet is a
/// record or a queued entry, and the record store never holds more slots
/// than packets can be inside the network — one injecting per node, at
/// most two per input VC (a tail and the next header: a packet is longer
/// than a buffer) and one draining through the deadlock buffers — however
/// many wait in the queues.
#[test]
fn queued_packets_hold_no_packet_record() {
    for mode in [DeadlockMode::Avoidance, DeadlockMode::PAPER_RECOVERY] {
        let cfg = NetConfig::small(mode);
        assert!(cfg.packet_len > cfg.buf_depth, "two packets per VC at most");
        let mut net = Network::new(cfg.clone()).unwrap();
        let nodes = net.torus().node_count();
        let wl = Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.1));
        let mut runner = WorkloadRunner::new(&wl, nodes, 5).unwrap();
        let in_network = nodes + 2 * net.total_vc_buffers() as usize + 1;
        let mut queued = 0;
        for _ in 0..20 {
            for _ in 0..100 {
                net.cycle_from(
                    &mut |now, offer| runner.arrivals(now, offer),
                    &mut NoControl,
                );
            }
            queued = (0..nodes).map(|n| net.source_queue_len(n)).sum::<usize>();
            let c = net.counters();
            assert_eq!(
                net.live_packets(),
                net.packet_records() + queued,
                "{mode:?}"
            );
            assert_eq!(
                c.generated_packets - c.delivered_packets,
                net.live_packets() as u64,
                "{mode:?}"
            );
            assert!(net.packet_record_slots() <= in_network, "{mode:?}");
        }
        assert!(
            queued > in_network,
            "{mode:?}: vacuous, the queues hold only {queued} packets"
        );
    }
}
