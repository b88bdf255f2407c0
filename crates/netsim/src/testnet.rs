//! Fixtures the crate's unit tests share: a 16-node recovery configuration,
//! a seeded Bernoulli arrival source and a saturated network stopped
//! mid-run.

use crate::config::{DeadlockMode, NetConfig};
use crate::control::NoControl;
use crate::network::{Network, Offer};

/// SplitMix64: a pure hash of (seed, now, node), so two networks fed the
/// same source see the exact same traffic without sharing closure state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A Bernoulli source at `load`% per node-cycle, uniform destinations: each
/// cycle it walks the nodes ascending and offers each node's packet, if it
/// drew one.
pub(crate) fn arrivals(seed: u64, nodes: usize, load: u64) -> impl FnMut(u64, &mut Offer<'_>) {
    move |now, offer| {
        for node in 0..nodes {
            let r = mix(seed ^ mix(now) ^ mix(node as u64).rotate_left(17));
            if r % 100 < load {
                let dst = (r >> 32) as usize % nodes;
                offer(node, if dst == node { (dst + 1) % nodes } else { dst });
            }
        }
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
    let mut src = arrivals(1, 16, 60);
    for _ in 0..1_500 {
        net.cycle_from(&mut src, &mut NoControl);
    }
    let report = net.audit();
    assert!(report.is_clean(), "hot_net is not clean: {report}");
    assert!(net.packets.live() > 0, "hot_net drained: nothing to poke");
    net
}
