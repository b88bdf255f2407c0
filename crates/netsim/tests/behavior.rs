//! Targeted behavioral tests of the wormhole simulator's microarchitecture.

use wormsim::{CongestionControl, DeadlockMode, NetConfig, Network, NoControl, Offer};

fn small(deadlock: DeadlockMode) -> Network {
    Network::new(NetConfig::small(deadlock)).unwrap()
}

#[test]
fn body_flits_stream_one_per_cycle_behind_the_header() {
    // Zero-load latency is exact (DESIGN.md §4): the header takes 3 cycles
    // a hop (1 routing + a 2-cycle crossbar and link), the body streams
    // one flit a cycle behind it, and the packet leaves its source queue
    // one routing cycle after it was generated. Every pair, both modes; a
    // pair faster than this is a bug, one slower a stalled worm.
    for deadlock in [DeadlockMode::Avoidance, DeadlockMode::PAPER_RECOVERY] {
        let mut net = small(deadlock);
        let nodes = net.torus().node_count();
        let len = net.config().packet_len as u64;
        for src in 0..nodes {
            for dst in 0..nodes {
                net.cycle_from(&mut |_, offer| offer(src, dst), &mut NoControl);
                drain(&mut net, 1_000);
                assert_eq!(net.live_packets(), 0, "{src} → {dst} never arrived");
                let rec = net.drain_deliveries().next().expect("delivered");
                let d = net.torus().distance(src, dst) as u64;
                assert_eq!(
                    rec.network_latency(),
                    3 * d + len - 1,
                    "{deadlock:?}: {src} → {dst}, distance {d}"
                );
                assert_eq!(
                    rec.total_latency(),
                    rec.network_latency() + 1,
                    "{deadlock:?}: {src} → {dst}"
                );
            }
        }
    }
}

#[test]
fn delivery_channel_consumes_at_most_one_flit_per_cycle() {
    // Flood one destination from every other node; the sink's delivery
    // channel is the bottleneck: delivered flits <= elapsed cycles.
    let mut net = small(DeadlockMode::Avoidance);
    let nodes = net.torus().node_count();
    let mut src = |now: u64, offer: &mut Offer<'_>| {
        if now.is_multiple_of(8) {
            (1..nodes).for_each(|node| offer(node, 0));
        }
    };
    let cycles = 4_000u64;
    for _ in 0..cycles {
        net.cycle_from(&mut src, &mut NoControl);
    }
    let delivered = net.counters().delivered_flits;
    assert!(delivered > 0);
    assert!(
        delivered <= cycles,
        "node 0 consumed {delivered} flits in {cycles} cycles (one delivery channel!)"
    );
    // And the hotspot should actually saturate that channel.
    assert!(
        delivered > cycles / 2,
        "hotspot should keep the delivery channel busy: {delivered} of {cycles}"
    );
}

#[test]
fn source_queue_cap_refuses_generations() {
    let mut cfg = NetConfig::small(DeadlockMode::Avoidance);
    cfg.source_queue_cap = 2;
    let mut net = Network::new(cfg).unwrap();
    // Node 0 generates every cycle to a fixed far destination: queue fills.
    for _ in 0..2_000 {
        net.cycle_from(&mut |_, offer| offer(0, 36), &mut NoControl);
    }
    let c = net.counters();
    assert!(
        c.refused_generations > 0,
        "cap of 2 must refuse under 1 pkt/cycle"
    );
    assert_eq!(c.generated_packets + c.refused_generations, 2_000);
}

#[test]
fn escape_channels_engage_under_avoidance_load() {
    let mut net = small(DeadlockMode::Avoidance);
    let nodes = net.torus().node_count();
    let mut x = 1usize;
    let mut src = move |_: u64, offer: &mut Offer<'_>| {
        for node in 0..nodes {
            x = x.wrapping_mul(48271).wrapping_add(node);
            offer(node, x % nodes);
        }
    };
    for _ in 0..5_000 {
        net.cycle_from(&mut src, &mut NoControl);
    }
    assert!(
        net.counters().escape_allocations > 0,
        "heavy load must push some headers onto the escape VC"
    );
    assert_eq!(
        net.counters().recovery_timeouts,
        0,
        "no suspicion in avoidance mode"
    );
}

#[test]
fn recovery_suspicions_and_recoveries_fire_under_recovery_load() {
    let mut net = small(DeadlockMode::PAPER_RECOVERY);
    let nodes = net.torus().node_count();
    let mut x = 7usize;
    let mut src = move |_: u64, offer: &mut Offer<'_>| {
        for node in 0..nodes {
            x = x.wrapping_mul(48271).wrapping_add(node);
            offer(node, x % nodes);
        }
    };
    for _ in 0..20_000 {
        net.cycle_from(&mut src, &mut NoControl);
    }
    let c = net.counters();
    assert!(
        c.recovery_timeouts > 0,
        "flooded recovery network must suspect packets"
    );
    assert!(
        c.recovered_packets > 0,
        "the token must actually drain suspects"
    );
    assert!(
        c.recovered_packets <= c.delivered_packets,
        "recoveries are a subset of deliveries"
    );
    assert_eq!(
        c.escape_allocations, 0,
        "no escape VCs exist in recovery mode"
    );
}

#[test]
fn gate_denials_are_counted_and_block_injection() {
    struct DenyAll;
    impl CongestionControl for DenyAll {
        fn allow_injection(&mut self, _: u64, _: usize, _: usize, _: &Network) -> bool {
            false
        }
        fn name(&self) -> &'static str {
            "deny-all"
        }
    }
    let mut net = small(DeadlockMode::Avoidance);
    let mut src = |now: u64, offer: &mut Offer<'_>| {
        if now == 0 {
            offer(0, 5);
        }
    };
    for _ in 0..100 {
        net.cycle_from(&mut src, &mut DenyAll);
    }
    let c = net.counters();
    assert_eq!(c.injected_packets, 0, "a closed gate must admit nothing");
    assert_eq!(c.delivered_packets, 0);
    assert!(
        c.throttled_injections >= 99,
        "denial is counted every blocked cycle"
    );
    assert_eq!(c.undelivered(), 1);
    assert_eq!(net.source_queue_len(0), 1);
}

#[test]
fn single_flit_packets_work_end_to_end() {
    let mut cfg = NetConfig::small(DeadlockMode::PAPER_RECOVERY);
    cfg.packet_len = 1; // header == tail
    let mut net = Network::new(cfg).unwrap();
    let nodes = net.torus().node_count();
    let mut x = 3usize;
    let mut src = move |_: u64, offer: &mut Offer<'_>| {
        for node in 0..nodes {
            x = x.wrapping_mul(48271).wrapping_add(node);
            if x.is_multiple_of(4) {
                offer(node, x % nodes);
            }
        }
    };
    for _ in 0..2_000 {
        net.cycle_from(&mut src, &mut NoControl);
    }
    drain(&mut net, 50_000);
    let c = net.counters();
    assert!(c.generated_packets > 100);
    assert_eq!(c.generated_packets, c.delivered_packets);
    assert_eq!(c.delivered_flits, c.delivered_packets);
}

#[test]
fn deep_buffers_and_many_vcs_also_work() {
    let mut cfg = NetConfig::small(DeadlockMode::Avoidance);
    cfg.vcs = 6;
    cfg.buf_depth = 2;
    cfg.packet_len = 5;
    let mut net = Network::new(cfg).unwrap();
    let nodes = net.torus().node_count();
    let mut x = 11usize;
    let mut src = move |_: u64, offer: &mut Offer<'_>| {
        for node in 0..nodes {
            x = x.wrapping_mul(48271).wrapping_add(node);
            if x.is_multiple_of(3) {
                offer(node, x % nodes);
            }
        }
    };
    for _ in 0..3_000 {
        net.cycle_from(&mut src, &mut NoControl);
    }
    drain(&mut net, 60_000);
    let c = net.counters();
    assert_eq!(c.generated_packets, c.delivered_packets);
    assert_eq!(c.delivered_flits, 5 * c.delivered_packets);
}

/// Steps `net` with no new traffic until it is empty, for at most `budget`
/// cycles.
fn drain(net: &mut Network, budget: u64) {
    let end = net.now() + budget;
    while net.live_packets() > 0 && net.now() < end {
        net.cycle_from(&mut |_, _| {}, &mut NoControl);
    }
}

#[test]
fn counters_track_undelivered_inventory() {
    let mut net = small(DeadlockMode::Avoidance);
    let mut src = |now: u64, offer: &mut Offer<'_>| {
        if now < 64 {
            (0..4).for_each(|node| offer(node, node + 8));
        }
    };
    for _ in 0..30 {
        net.cycle_from(&mut src, &mut NoControl);
    }
    let c = *net.counters();
    assert_eq!(
        c.undelivered(),
        net.live_packets() as u64,
        "counter arithmetic must match the live slab"
    );
}

/// Steps `net` one cycle with exactly `offers`.
fn offer_all(net: &mut Network, offers: &[(usize, usize)]) {
    let mut arrivals = |_: u64, offer: &mut Offer<'_>| {
        for &(node, dst) in offers {
            offer(node, dst);
        }
    };
    net.cycle_from(&mut arrivals, &mut NoControl);
}

#[test]
fn batched_arrivals_enqueue_like_the_per_node_source() {
    // The same offers as a list and from a source that walks every node:
    // same counters, same queues — including a refusal once node 3's
    // source queue is full.
    let cfg = NetConfig {
        source_queue_cap: 2,
        ..NetConfig::small(DeadlockMode::Avoidance)
    };
    let nodes = cfg.node_count();
    let mut batched = Network::new(cfg.clone()).unwrap();
    let mut polled = Network::new(cfg).unwrap();
    let mut src = |_: u64, offer: &mut Offer<'_>| {
        for node in 0..nodes {
            let dst = match node {
                3 => Some(40),
                7 => Some(7),
                60 => Some(1),
                _ => None,
            };
            if let Some(dst) = dst {
                offer(node, dst);
            }
        }
    };
    for _ in 0..6 {
        offer_all(&mut batched, &[(3, 40), (7, 7), (60, 1)]);
        polled.cycle_from(&mut src, &mut NoControl);
    }
    assert!(batched.counters().refused_generations > 0, "vacuous");
    assert_eq!(batched.counters(), polled.counters());
    for node in [3, 7, 60] {
        assert_eq!(
            batched.source_queue_len(node),
            polled.source_queue_len(node)
        );
    }
}

#[test]
#[should_panic(expected = "packet at node 64 out of range")]
fn an_offer_from_a_node_past_the_network_panics_with_a_message() {
    offer_all(&mut small(DeadlockMode::Avoidance), &[(64, 0)]);
}

#[test]
#[should_panic(expected = "destination 64 out of range")]
fn an_offer_to_a_node_past_the_network_panics_with_a_message() {
    offer_all(&mut small(DeadlockMode::Avoidance), &[(0, 64)]);
}

/// At most one packet per node per cycle, nodes ascending: the rule a
/// source walking the nodes in order keeps by shape is a debug assertion
/// on `cycle_from`.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "arrivals must ascend within a cycle")]
fn offers_out_of_node_order_are_caught_in_debug_builds() {
    offer_all(&mut small(DeadlockMode::Avoidance), &[(5, 1), (5, 2)]);
}

/// The input-VC flit arena's memory follows its traffic: a VC holds a line
/// only while a worm occupies it, so below the knee few lines are ever
/// handed out (DESIGN.md §4b). The benchmark's 12-ary 3-cube at Bernoulli
/// 0.012, where about a fifth of the 31 104 VCs hold flits at once, must
/// write at most a quarter of its lines in 3 000 cycles, at one shard and
/// at two, whose pools hand lines out separately (19–20 % read). A fixed
/// line per VC fails this at once.
#[test]
fn below_the_knee_most_flit_lines_are_never_written() {
    use traffic::{Pattern, Process, Workload, WorkloadRunner};
    for shards in [1, 2] {
        let mut net = Network::new(NetConfig {
            radix: 12,
            dimensions: 3,
            ..NetConfig::paper(DeadlockMode::PAPER_RECOVERY)
        })
        .unwrap();
        net.set_shards(shards);
        let nodes = net.torus().node_count();
        let workload = Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.012));
        let mut runner = WorkloadRunner::new(&workload, nodes, 7).unwrap();
        for _ in 0..3_000 {
            net.cycle_from(
                &mut |now, offer| runner.arrivals(now, offer),
                &mut NoControl,
            );
        }
        let lines = net.flit_lines();
        assert_eq!(lines.total, 31_104);
        assert!(lines.held > 0, "vacuous: no VC holds a flit");
        assert!(
            lines.reached * 4 <= lines.total,
            "{shards} shard(s): {} of {} lines written",
            lines.reached,
            lines.total
        );
    }
}
