//! Randomized tests over network configurations: whatever the radix, VC
//! count, buffer depth or packet length, the simulator must conserve flits,
//! deliver in order, and drain completely.
//!
//! Formerly written with `proptest`; rewritten as seeded in-tree case
//! generation so the workspace builds with no network access (see README
//! "Hermetic build").

use wormsim::{DeadlockMode, NetConfig, Network, NoControl, Offer};

const CASES: u64 = 8;

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
struct RandomConfig {
    cfg: NetConfig,
    burst_cycles: u64,
    modulus: usize,
    seed: usize,
}

/// Draws one configuration from the same space the old proptest strategy
/// covered.
fn random_config(case: u64) -> RandomConfig {
    let mut rng = 0x5EED_0000 + case;
    let radix = 3 + (mix(&mut rng) as usize) % 4; // 3..=6
    let deadlock = match mix(&mut rng) % 3 {
        0 => DeadlockMode::Avoidance,
        1 => DeadlockMode::Recovery { timeout: 8 },
        _ => DeadlockMode::Recovery { timeout: 100 },
    };
    let mut vcs = 1 + (mix(&mut rng) as usize) % 3; // 1..=3
    if matches!(deadlock, DeadlockMode::Avoidance) {
        vcs = vcs.max(2);
    }
    RandomConfig {
        cfg: NetConfig {
            radix,
            dimensions: 2,
            vcs,
            buf_depth: 1 + (mix(&mut rng) as usize) % 8, // 1..=8
            packet_len: 1 + (mix(&mut rng) as usize) % 20, // 1..=20
            deadlock,
            hop_latency: 2,
            source_queue_cap: 8,
        },
        burst_cycles: 1_500,
        modulus: 2 + (mix(&mut rng) as usize) % 4, // 2..=5
        seed: mix(&mut rng) as usize,
    }
}

#[test]
fn any_configuration_conserves_and_drains() {
    for case in 0..CASES {
        let rc = random_config(case);
        let mut net = Network::new(rc.cfg.clone()).unwrap();
        let nodes = net.torus().node_count();
        let mut x = rc.seed;
        let modulus = rc.modulus;
        let mut src = move |_: u64, offer: &mut Offer<'_>| {
            for node in 0..nodes {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(node + 1);
                if (x >> 17).is_multiple_of(modulus) {
                    offer(node, (x >> 33) % nodes);
                }
            }
        };
        for _ in 0..rc.burst_cycles {
            net.cycle_from(&mut src, &mut NoControl);
        }
        // Drain until empty, within a 600k-cycle budget: most
        // configurations empty within a few thousand cycles.
        let end = net.now() + 600_000;
        while net.live_packets() > 0 && net.now() < end {
            net.cycle_from(&mut |_, _| {}, &mut NoControl);
        }

        let c = net.counters();
        assert!(
            c.generated_packets > 0,
            "workload generated nothing: {rc:?}"
        );
        assert_eq!(
            c.generated_packets, c.delivered_packets,
            "failed to drain: {rc:?}"
        );
        assert_eq!(net.live_packets(), 0, "{rc:?}");
        assert_eq!(
            c.delivered_flits,
            c.delivered_packets * rc.cfg.packet_len as u64,
            "flit conservation: {rc:?}"
        );
        assert_eq!(net.full_buffer_count(), 0, "{rc:?}");
        // Delivery records are internally consistent.
        for r in net.drain_deliveries() {
            assert!(r.src < nodes && r.dst < nodes, "{rc:?}");
            assert!(r.injected_at >= r.generated_at, "{rc:?}");
            assert!(r.delivered_at >= r.injected_at, "{rc:?}"); // == for 1-flit local delivery
        }
    }
}
