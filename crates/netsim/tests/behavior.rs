//! Targeted behavioral tests of the wormhole simulator's microarchitecture.

use wormsim::{CongestionControl, DeadlockMode, NetConfig, Network, NoControl, Offer};

fn small(deadlock: DeadlockMode) -> Network {
    Network::new(NetConfig::small(deadlock)).unwrap()
}

#[test]
fn body_flits_stream_one_per_cycle_behind_the_header() {
    // One long packet on an idle network: delivery consumes the tail
    // exactly len-1 cycles after it could first have consumed the header.
    let mut net = small(DeadlockMode::Avoidance);
    let mut one = Some(9usize);
    let mut src = move |_: u64, node: usize| if node == 0 { one.take() } else { None };
    net.run(400, &mut src, &mut NoControl);
    let rec = net.drain_deliveries().next().expect("delivered");
    let dist = net.torus().distance(0, 9) as u64;
    // Tail time = header pipeline (3 cycles/hop + injection/delivery edges)
    // + (len-1) cycles of streaming. Anything longer means the worm stalled.
    let header_pipeline = 3 * dist + 4;
    assert!(
        rec.network_latency() <= header_pipeline + 15,
        "zero-load worm stalled: latency {} for distance {dist}",
        rec.network_latency()
    );
}

#[test]
fn delivery_channel_consumes_at_most_one_flit_per_cycle() {
    // Flood one destination from every other node; the sink's delivery
    // channel is the bottleneck: delivered flits <= elapsed cycles.
    let mut net = small(DeadlockMode::Avoidance);
    let mut src = |now: u64, node: usize| (node != 0 && now.is_multiple_of(8)).then_some(0);
    let cycles = 4_000u64;
    net.run(cycles, &mut src, &mut NoControl);
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
    let mut src = |_: u64, node: usize| (node == 0).then_some(36);
    net.run(2_000, &mut src, &mut NoControl);
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
    let mut src = move |_: u64, node: usize| {
        x = x.wrapping_mul(48271).wrapping_add(node);
        Some(x % nodes)
    };
    net.run(5_000, &mut src, &mut NoControl);
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
    let mut src = move |_: u64, node: usize| {
        x = x.wrapping_mul(48271).wrapping_add(node);
        Some(x % nodes)
    };
    net.run(20_000, &mut src, &mut NoControl);
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
    let mut src = |now: u64, node: usize| (node == 0 && now == 0).then_some(5);
    net.run(100, &mut src, &mut DenyAll);
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
    let mut src = move |now: u64, node: usize| {
        x = x.wrapping_mul(48271).wrapping_add(node);
        (now < 2_000 && x.is_multiple_of(4)).then_some(x % nodes)
    };
    net.run(2_000, &mut src, &mut NoControl);
    let mut silent = |_: u64, _: usize| None;
    net.run(50_000, &mut silent, &mut NoControl);
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
    let mut src = move |now: u64, node: usize| {
        x = x.wrapping_mul(48271).wrapping_add(node);
        (now < 3_000 && x.is_multiple_of(3)).then_some(x % nodes)
    };
    net.run(3_000, &mut src, &mut NoControl);
    let mut silent = |_: u64, _: usize| None;
    net.run(60_000, &mut silent, &mut NoControl);
    let c = net.counters();
    assert_eq!(c.generated_packets, c.delivered_packets);
    assert_eq!(c.delivered_flits, 5 * c.delivered_packets);
}

#[test]
fn counters_track_undelivered_inventory() {
    let mut net = small(DeadlockMode::Avoidance);
    let mut src = |now: u64, node: usize| (node < 4 && now < 64).then_some(node + 8);
    net.run(30, &mut src, &mut NoControl);
    let c = *net.counters();
    assert_eq!(
        c.undelivered(),
        net.live_packets() as u64,
        "counter arithmetic must match the live slab"
    );
}

/// Steps `net` one cycle through the batched entry with exactly `offers`.
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
    // The same offers through both entries: same counters, same queues —
    // including a refusal once node 3's source queue is full.
    let cfg = NetConfig {
        source_queue_cap: 2,
        ..NetConfig::small(DeadlockMode::Avoidance)
    };
    let mut batched = Network::new(cfg.clone()).unwrap();
    let mut polled = Network::new(cfg).unwrap();
    for _ in 0..6 {
        offer_all(&mut batched, &[(3, 40), (7, 7), (60, 1)]);
        let mut src = |_: u64, node: usize| match node {
            3 => Some(40),
            7 => Some(7),
            60 => Some(1),
            _ => None,
        };
        polled.cycle(&mut src, &mut NoControl);
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

/// At most one packet per node per cycle, nodes ascending: the rule the
/// per-node closure enforces by shape is a debug assertion on the batched
/// entry.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "arrivals must ascend within a cycle")]
fn offers_out_of_node_order_are_caught_in_debug_builds() {
    offer_all(&mut small(DeadlockMode::Avoidance), &[(5, 1), (5, 2)]);
}
