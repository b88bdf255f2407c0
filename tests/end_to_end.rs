//! Cross-crate integration tests: the full stack (topology → simulator →
//! controllers → facade) exercised end to end through the public API.

use stcc::prelude::*;
use stcc::Simulation;

/// The self-tuned scheme with its side-band sized for [`sim`]'s network.
fn small_tuned() -> Scheme {
    Scheme::Tuned(TuneConfig::for_net(&NetConfig::small(
        DeadlockMode::Avoidance,
    )))
}

fn sim(scheme: Scheme, deadlock: DeadlockMode, rate: f64, cycles: u64, seed: u64) -> Simulation {
    Simulation::new(SimConfig {
        net: NetConfig::small(deadlock),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme,
        cycles,
        warmup: cycles / 6,
        seed,
    })
    .expect("valid simulation")
}

#[test]
fn light_load_is_fully_accepted_under_all_schemes_and_modes() {
    for deadlock in [DeadlockMode::Avoidance, DeadlockMode::PAPER_RECOVERY] {
        for scheme in [Scheme::Base, Scheme::Alo, small_tuned()] {
            let mut s = sim(scheme.clone(), deadlock, 0.002, 15_000, 1);
            s.run_to_end();
            let sum = s.summary().unwrap();
            assert!(
                sum.acceptance() > 0.9,
                "{} under {deadlock:?}: acceptance {}",
                scheme.label(),
                sum.acceptance()
            );
        }
    }
}

#[test]
fn flits_are_conserved_after_drain() {
    // Inject for a while, then stop and let the network drain completely.
    let mut net = wormsim::Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
    let nodes = net.torus().node_count();
    let mut runner = traffic::WorkloadRunner::new(
        &Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.01)),
        nodes,
        5,
    )
    .unwrap();
    let mut ctl = wormsim::NoControl;
    net.run(5_000, &mut |now, node| runner.poll(now, node), &mut ctl);
    let mut silent = |_: u64, _: usize| None;
    net.run(20_000, &mut silent, &mut ctl);
    let c = net.counters();
    assert_eq!(
        c.generated_packets, c.delivered_packets,
        "all generated packets must eventually be delivered"
    );
    assert_eq!(net.live_packets(), 0);
    assert_eq!(
        c.delivered_flits,
        c.delivered_packets * 16,
        "every flit of every packet must arrive"
    );
    assert_eq!(
        net.full_buffer_count(),
        0,
        "drained network has no full buffers"
    );
}

#[test]
fn recovery_mode_also_drains_completely() {
    let mut net = wormsim::Network::new(NetConfig::small(DeadlockMode::PAPER_RECOVERY)).unwrap();
    let nodes = net.torus().node_count();
    let mut runner = traffic::WorkloadRunner::new(
        &Workload::steady(Pattern::Butterfly, Process::bernoulli(0.05)),
        nodes,
        6,
    )
    .unwrap();
    let mut ctl = wormsim::NoControl;
    net.run(8_000, &mut |now, node| runner.poll(now, node), &mut ctl);
    let mut silent = |_: u64, _: usize| None;
    // Deep saturation drains serially through the token: allow plenty.
    net.run(400_000, &mut silent, &mut ctl);
    let c = net.counters();
    assert_eq!(c.generated_packets, c.delivered_packets);
    assert_eq!(net.live_packets(), 0);
}

#[test]
fn avoidance_mode_never_stalls() {
    // Duato's escape channels guarantee forward progress; the watchdog must
    // never observe a long zero-delivery window while packets are in flight.
    let mut net = wormsim::Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
    let nodes = net.torus().node_count();
    let mut runner = traffic::WorkloadRunner::new(
        &Workload::steady(Pattern::BitReversal, Process::bernoulli(0.08)),
        nodes,
        7,
    )
    .unwrap();
    let mut ctl = wormsim::NoControl;
    for _ in 0..400 {
        net.run(100, &mut |now, node| runner.poll(now, node), &mut ctl);
        assert!(
            !net.progress_stalled(20_000),
            "avoidance network stalled at cycle {}",
            net.now()
        );
    }
}

/// The saturation avalanche needs the paper's full-size 16-ary 2-cube:
/// smaller tori saturate gracefully (shorter worms, shallower trees), which
/// the `experiments` sweeps document. These two tests are therefore the
/// slowest in the suite.
fn paper_sim(scheme: Scheme, rate: f64, seed: u64) -> Simulation {
    Simulation::new(SimConfig {
        net: NetConfig::paper(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme,
        cycles: 16_000,
        warmup: 3_000,
        seed,
    })
    .expect("valid paper-scale simulation")
}

#[test]
fn tuned_beats_base_at_overload_under_recovery() {
    let mut base = paper_sim(Scheme::Base, 0.06, 2);
    base.run_to_end();
    let mut tuned = paper_sim(Scheme::tuned_paper(), 0.06, 2);
    tuned.run_to_end();
    let b = base.summary().unwrap().throughput_flits();
    let t = tuned.summary().unwrap().throughput_flits();
    assert!(
        t > 2.0 * b,
        "self-tuning should far outperform the collapsed base network: tune {t} vs base {b}"
    );
}

#[test]
fn base_collapses_past_saturation_under_recovery() {
    let mut below = paper_sim(Scheme::Base, 0.01, 3);
    below.run_to_end();
    let mut beyond = paper_sim(Scheme::Base, 0.08, 3);
    beyond.run_to_end();
    let pre = below.summary().unwrap().throughput_flits();
    let post = beyond.summary().unwrap().throughput_flits();
    assert!(
        post < 0.7 * pre,
        "8x the offered load should deliver *less* than moderate load: {post} vs {pre}"
    );
}

#[test]
fn self_addressed_packets_are_delivered_locally() {
    let mut net = wormsim::Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
    let mut sent = false;
    let mut src = move |_: u64, node: usize| {
        if node == 3 && !sent {
            sent = true;
            Some(3)
        } else {
            None
        }
    };
    net.run(200, &mut src, &mut wormsim::NoControl);
    assert_eq!(net.counters().delivered_packets, 1);
    let rec = net.drain_deliveries().next().unwrap();
    assert_eq!((rec.src, rec.dst), (3, 3));
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let mut s = sim(
            small_tuned(),
            DeadlockMode::PAPER_RECOVERY,
            0.03,
            20_000,
            11,
        );
        s.run_to_end();
        let sum = s.summary().unwrap();
        (
            sum.delivered_flits,
            sum.network_latency.mean(),
            s.tuned()
                .and_then(stcc::SelfTuned::threshold)
                .map(f64::to_bits),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn zero_load_latency_matches_the_pipeline_model() {
    // A single packet across a known distance: 3 cycles per hop for the
    // header (1 routing + 1 crossbar + 1 link) plus one cycle per remaining
    // flit at the delivery channel, plus injection/delivery serialization.
    let mut net = wormsim::Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
    let mut one = Some(5usize); // distance 5 along dimension 0? node 5 is 5 hops... use it
    let mut src = move |_: u64, node: usize| if node == 0 { one.take() } else { None };
    net.run(500, &mut src, &mut wormsim::NoControl);
    let rec = net.drain_deliveries().next().expect("delivered");
    let dist = net.torus().distance(0, 5) as u64;
    let lat = rec.network_latency();
    let floor = 3 * dist + 15; // header pipeline + body flits
    assert!(
        lat >= floor && lat <= floor + 3 * dist + 10,
        "zero-load latency {lat} outside [{floor}, {}]",
        floor + 3 * dist + 10
    );
}
