//! Randomized property-style tests for the torus topology.
//!
//! Formerly written with `proptest`; rewritten as seeded in-tree sweeps so
//! the workspace builds with no network access (see README "Hermetic
//! build"). The sweep is small and fast.

use kncube::{Dir, Torus};

/// Cases per property: every (radix, dimensions) shape times `CASE_SEEDS`
/// node samples.
const CASE_SEEDS: u64 = 8;

/// SplitMix64: deterministic, platform-independent case generator.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every torus shape the old proptest strategy could produce.
fn all_shapes() -> Vec<Torus> {
    let mut shapes = Vec::new();
    for k in 2..=16 {
        for n in 1..=3 {
            shapes.push(Torus::new(k, n).unwrap());
        }
    }
    shapes
}

/// Runs `f(torus, rng)` for every shape and seeded case.
fn for_all_cases(mut f: impl FnMut(&Torus, &mut u64)) {
    for t in &all_shapes() {
        for seed in 0..CASE_SEEDS {
            let mut rng = 0xA5A5_0000
                ^ (seed << 8)
                ^ ((t.radix() as u64) << 32)
                ^ ((t.dimensions() as u64) << 40);
            f(t, &mut rng);
        }
    }
}

#[test]
fn coords_node_round_trip() {
    for_all_cases(|t, rng| {
        let id = (mix(rng) as usize) % t.node_count();
        assert_eq!(t.node(t.coords(id)), id);
    });
}

#[test]
fn distance_is_symmetric() {
    for_all_cases(|t, rng| {
        let a = (mix(rng) as usize) % t.node_count();
        let b = (mix(rng) as usize) % t.node_count();
        assert_eq!(t.distance(a, b), t.distance(b, a));
        assert_eq!(t.distance(a, a), 0);
    });
}

#[test]
fn distance_triangle_inequality() {
    for_all_cases(|t, rng| {
        let a = (mix(rng) as usize) % t.node_count();
        let b = (mix(rng) as usize) % t.node_count();
        let c = (mix(rng) as usize) % t.node_count();
        assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
    });
}

#[test]
fn productive_hop_decreases_distance() {
    for_all_cases(|t, rng| {
        let a = (mix(rng) as usize) % t.node_count();
        let b = (mix(rng) as usize) % t.node_count();
        for (dim, dir) in t.productive_hops(a, b).iter() {
            let next = t.neighbor(a, dim, dir);
            assert_eq!(t.distance(next, b) + 1, t.distance(a, b));
        }
    });
}

#[test]
fn productive_hops_empty_only_at_destination() {
    for_all_cases(|t, rng| {
        let a = (mix(rng) as usize) % t.node_count();
        let b = (mix(rng) as usize) % t.node_count();
        assert_eq!(t.productive_hops(a, b).is_empty(), a == b);
    });
}

#[test]
fn dimension_order_hop_is_productive() {
    for_all_cases(|t, rng| {
        let a = (mix(rng) as usize) % t.node_count();
        let b = (mix(rng) as usize) % t.node_count();
        if let Some((dim, dir)) = t.dimension_order_hop(a, b) {
            let productive: Vec<_> = t.productive_hops(a, b).iter().collect();
            assert!(productive.contains(&(dim, dir)));
        } else {
            assert_eq!(a, b);
        }
    });
}

#[test]
fn neighbors_are_distance_one() {
    for_all_cases(|t, rng| {
        let a = (mix(rng) as usize) % t.node_count();
        for dim in 0..t.dimensions() {
            for dir in Dir::BOTH {
                let nb = t.neighbor(a, dim, dir);
                if t.radix() > 1 {
                    assert_eq!(t.distance(a, nb), 1);
                }
            }
        }
    });
}
