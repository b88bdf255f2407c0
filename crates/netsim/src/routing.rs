//! Output-channel selection for headers (adaptive routing with either
//! escape channels or full adaptivity, per the deadlock mode), backed by
//! next-hop tables precomputed once at network construction.

use crate::network::{dim_dir_of, port_of, Assign};
use crate::packet::PacketId;
use crate::plane::Slot;
use crate::shard::ApplyCtx;
use kncube::{Dir, NodeId, Torus};
use std::sync::atomic::Ordering;

/// Sentinel in the mesh next-hop rows for equal coordinates (no hop in
/// that dimension).
const NO_HOP: u8 = 0xFF;

/// Routing lookup tables, built once per [`crate::Network`].
///
/// Both routing functions decide dimension by dimension from that
/// dimension's two coordinates alone, so a pair of nodes is routed from
/// per-dimension `k × k` rows — `O(n·k²)` entries for any network size —
/// indexed through a per-node coordinate-digit array (`O(nodes·n)`):
///
/// * `productive[(dim * k + a) * k + b]` — [`productive_mask_dyn`] between
///   two nodes at coordinates `a` and `b` in `dim`, equal elsewhere. The
///   productive mask of a pair is the union over dimensions. The torus
///   offers at most one productive direction per dimension (ties break
///   `Plus`), so iterating set bits in ascending port order reproduces
///   exactly the ascending-dimension hop order of
///   [`Torus::productive_hops`]. A port index is `2*dim + (dir == Minus)`,
///   so 16 ports at most (`MAX_DIMS = 8`) and a `u16` always fits.
/// * `mesh_next[(dim * k + a) * k + b]` — [`mesh_dor_hop_dyn`]'s port
///   between the same two nodes (the escape routing function),
///   [`NO_HOP`] when `a == b`. The mesh hop of a pair is the hop of its
///   lowest unaligned dimension.
/// * `digits[node * n + dim]` — the node's coordinate in `dim`.
/// * `out_slots[(node * d + port) * v + vc]` — the switch-plane [`Slot`] of
///   a worm assigned that output VC: the port, and the neighbor input VC
///   it feeds as (node, feeder), replacing a coordinate decomposition
///   (`div`/`mod` per dimension) on every flit hop.
///
/// The `*_dyn` functions are private to this module: the rows' builder
/// and the tests' oracle are their only callers, so no second hot path can
/// grow on them.
#[derive(Debug)]
pub(crate) struct RouteTables {
    k: usize,
    n: usize,
    productive: Vec<u16>,
    mesh_next: Vec<u8>,
    digits: Vec<u16>,
    out_slots: Vec<Slot>,
}

impl RouteTables {
    /// Builds the tables for `torus` with `vcs` virtual channels per
    /// physical channel, asking the `*_dyn` functions about the `k` nodes
    /// along each axis through node 0.
    pub(crate) fn build(torus: &Torus, vcs: usize) -> Self {
        let (k, n, nodes) = (torus.radix(), torus.dimensions(), torus.node_count());
        let d = torus.channels_per_node();
        let mut out_slots = Vec::with_capacity(nodes * d * vcs);
        for node in 0..nodes {
            for port in 0..d {
                let (dim, dir) = dim_dir_of(port);
                let nb = torus.neighbor(node, dim, dir);
                let in_port = port_of(dim, dir.opposite());
                for vc in 0..vcs {
                    out_slots.push(Slot::new(port, nb, in_port * vcs + vc));
                }
            }
        }
        let mut productive = Vec::with_capacity(n * k * k);
        let mut mesh_next = Vec::with_capacity(n * k * k);
        let mut stride = 1; // dimension 0 is the least-significant digit
        for _ in 0..n {
            for a in 0..k {
                for b in 0..k {
                    let (cur, dst) = (a * stride, b * stride);
                    productive.push(productive_mask_dyn(torus, cur, dst));
                    mesh_next.push(
                        mesh_dor_hop_dyn(torus, cur, dst)
                            .map_or(NO_HOP, |(dim, dir)| port_of(dim, dir) as u8),
                    );
                }
            }
            stride *= k;
        }
        let mut digits = Vec::with_capacity(nodes * n);
        for node in 0..nodes {
            digits.extend(torus.coords(node).iter());
        }
        RouteTables {
            k,
            n,
            productive,
            mesh_next,
            digits,
            out_slots,
        }
    }

    /// The switch-plane slots of every output VC (global index), for
    /// [`Slot::of`].
    #[inline]
    pub(crate) fn out_slots(&self) -> &[Slot] {
        &self.out_slots
    }

    /// The row index of each dimension's entry for the pair `(cur, dst)`,
    /// ascending dimensions.
    #[inline]
    fn row_entries(&self, cur: NodeId, dst: NodeId) -> impl Iterator<Item = usize> + '_ {
        let (k, n) = (self.k, self.n);
        let a = &self.digits[cur * n..(cur + 1) * n];
        let b = &self.digits[dst * n..(dst + 1) * n];
        a.iter()
            .zip(b)
            .enumerate()
            .map(move |(dim, (&a, &b))| (dim * k + usize::from(a)) * k + usize::from(b))
    }

    /// Bitmask of productive output ports from `node` towards `dst`: the
    /// union of the per-dimension rows' masks.
    #[inline]
    pub(crate) fn productive_mask(&self, node: NodeId, dst: NodeId) -> u16 {
        self.row_entries(node, dst)
            .fold(0, |mask, at| mask | self.productive[at])
    }

    /// Output port of the mesh dimension-order hop from `cur` towards
    /// `dst` — the hop of the lowest unaligned dimension — `None` when
    /// `cur == dst`.
    #[inline]
    pub(crate) fn mesh_next_port(&self, cur: NodeId, dst: NodeId) -> Option<usize> {
        self.row_entries(cur, dst)
            .map(|at| self.mesh_next[at])
            .find(|&p| p != NO_HOP)
            .map(usize::from)
    }

    /// Dimension-order next hop on the *mesh* sub-network (never crosses a
    /// wraparound link): the escape routing function. (The hot path uses
    /// [`RouteTables::mesh_next_port`] directly; this `(dim, dir)` view
    /// exists for the routing tests.)
    #[cfg(test)]
    pub(crate) fn mesh_dor_hop(&self, cur: NodeId, dst: NodeId) -> Option<(usize, Dir)> {
        self.mesh_next_port(cur, dst).map(dim_dir_of)
    }
}

/// Dimension-order next hop on the *mesh* sub-network (never crosses a
/// wraparound link): the escape routing function, computed from
/// coordinates. [`RouteTables::mesh_next_port`] serves the same answer from
/// the precomputed rows.
fn mesh_dor_hop_dyn(torus: &Torus, cur: NodeId, dst: NodeId) -> Option<(usize, Dir)> {
    let ca = torus.coords(cur);
    let cb = torus.coords(dst);
    for dim in 0..torus.dimensions() {
        if ca[dim] != cb[dim] {
            let dir = if cb[dim] > ca[dim] {
                Dir::Plus
            } else {
                Dir::Minus
            };
            return Some((dim, dir));
        }
    }
    None
}

/// Productive-port bitmask computed from coordinates;
/// [`RouteTables::productive_mask`] serves the same answer from the
/// precomputed rows.
fn productive_mask_dyn(torus: &Torus, cur: NodeId, dst: NodeId) -> u16 {
    let mut mask = 0u16;
    for (dim, dir) in torus.productive_hops(cur, dst).iter() {
        mask |= 1 << port_of(dim, dir);
    }
    mask
}

impl ApplyCtx<'_> {
    /// Chooses an output virtual channel for a header at `node` destined for
    /// `dst` (`dst != node`; local delivery is handled by the caller). Reads
    /// `node`'s own output allocations and the escape flag of packet `pid`,
    /// whose header this router holds.
    ///
    /// Policy, following the paper's §5.1 configurations:
    ///
    /// * **Adaptive candidates** — the first free VC in the adaptive class
    ///   over the *productive* (minimal, including wraparound) physical
    ///   channels, scanned in fixed (dimension, direction, VC) order — the
    ///   simple selection function of flexsim-era routers (DESIGN.md §5b).
    /// * **Escape fallback** (avoidance mode only) — VC 0 of the
    ///   dimension-order *mesh* hop (no wraparound links), which forms a
    ///   deadlock-free escape sub-network with a single VC. Escape is
    ///   sticky: once a packet takes an escape channel it stays on the
    ///   escape network to its destination, which keeps the extended
    ///   channel-dependency graph acyclic on the torus.
    ///
    /// Returns `None` when no candidate channel is free this cycle.
    pub(crate) fn choose_output(&self, node: NodeId, dst: NodeId, pid: PacketId) -> Option<Assign> {
        debug_assert_ne!(node, dst);
        let escape_vcs = self.escape_vcs;
        let free =
            |port: usize, vc: usize| !self.out_alloc.get((node * self.d + port) * self.v + vc);
        let sticky_escaped =
            escape_vcs > 0 && self.packets.packet(pid).escaped.load(Ordering::Relaxed);

        if !sticky_escaped {
            // First free adaptive VC in fixed (dimension, direction, VC)
            // order — ascending set bits of the productive-port mask visit
            // dimensions in exactly the order `productive_hops` yields them.
            let mut mask = self.tables.productive_mask(node, dst);
            while mask != 0 {
                let port = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(vc) = (escape_vcs..self.v).find(|&vc| free(port, vc)) {
                    return Some(Assign::Out {
                        port: port as u8,
                        vc: vc as u8,
                    });
                }
            }
        }

        if escape_vcs > 0 {
            let port = self
                .tables
                .mesh_next_port(node, dst)
                .expect("mesh DOR hop exists whenever node != dst");
            if let Some(vc) = (0..escape_vcs).find(|&vc| free(port, vc)) {
                return Some(Assign::Out {
                    port: port as u8,
                    vc: vc as u8,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::{mesh_dor_hop_dyn, productive_mask_dyn};
    use crate::config::{DeadlockMode, NetConfig};
    use crate::network::Network;
    use crate::network::{dim_dir_of, port_of};
    use kncube::Dir;

    #[test]
    fn mesh_dor_never_wraps() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        // Node 0 to node 7 (same row): torus-minimal is one hop Minus (wrap),
        // but the mesh escape must walk +x without wrapping.
        let (dim, dir) = net.tables.mesh_dor_hop(0, 7).unwrap();
        assert_eq!((dim, dir), (0, Dir::Plus));
        // And from 7 back to 0 it walks -x.
        let (dim, dir) = net.tables.mesh_dor_hop(7, 0).unwrap();
        assert_eq!((dim, dir), (0, Dir::Minus));
        assert_eq!(net.tables.mesh_dor_hop(5, 5), None);
    }

    #[test]
    fn mesh_dor_walk_terminates_everywhere() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        let t = net.torus().clone();
        for src in [0usize, 7, 32, 63] {
            for dst in 0..t.node_count() {
                let mut cur = src;
                let mut steps = 0;
                while let Some((dim, dir)) = net.tables.mesh_dor_hop(cur, dst) {
                    cur = t.neighbor(cur, dim, dir);
                    steps += 1;
                    assert!(steps < 100, "mesh DOR walk diverged");
                }
                assert_eq!(cur, dst);
            }
        }
    }

    /// Exhaustive rows-vs-dynamic equivalence over every (cur, dst) pair
    /// for the Tiny (4-ary), Small (8-ary) and paper (16-ary) presets: the
    /// mesh next hop and productive-port mask looked up in the
    /// per-dimension rows must agree with the coordinate computation
    /// everywhere, and the output-slot table must agree with the topology's
    /// neighbor function for every output VC. The shapes where a
    /// dimension-by-dimension lookup could go wrong are here too: three
    /// dimensions, an odd radix (no tie), radix 2 (every unaligned
    /// dimension ties, and both directions reach one neighbor), and the
    /// 12-ary 3-cube (1728 nodes) of the repo benchmark.
    #[test]
    fn route_tables_match_dynamic_everywhere() {
        let shaped = |radix, dimensions| NetConfig {
            radix,
            dimensions,
            ..NetConfig::small(DeadlockMode::Avoidance)
        };
        let cfgs = [
            NetConfig {
                radix: 4,
                ..NetConfig::small(DeadlockMode::PAPER_RECOVERY)
            },
            NetConfig::small(DeadlockMode::Avoidance),
            NetConfig::paper(DeadlockMode::Avoidance),
            shaped(4, 3),
            shaped(5, 3),
            shaped(7, 2),
            shaped(2, 2),
            shaped(2, 3),
            shaped(12, 3),
        ];
        for cfg in cfgs {
            let vcs = cfg.vcs;
            let net = Network::new(cfg).unwrap();
            let t = net.torus().clone();
            let nodes = t.node_count();
            let d = t.channels_per_node();
            for cur in 0..nodes {
                for dst in 0..nodes {
                    assert_eq!(
                        net.tables.mesh_dor_hop(cur, dst),
                        mesh_dor_hop_dyn(&t, cur, dst),
                        "mesh table diverges at ({cur}, {dst}), k={}",
                        t.radix()
                    );
                    assert_eq!(
                        net.tables.productive_mask(cur, dst),
                        productive_mask_dyn(&t, cur, dst),
                        "productive table diverges at ({cur}, {dst}), k={}",
                        t.radix()
                    );
                    // Mask bit order must reproduce the HopSet hop order.
                    let mut mask = net.tables.productive_mask(cur, dst);
                    let mut from_mask = Vec::new();
                    while mask != 0 {
                        let port = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        from_mask.push(dim_dir_of(port));
                    }
                    let from_hops: Vec<_> = t.productive_hops(cur, dst).iter().collect();
                    assert_eq!(from_mask, from_hops, "hop order diverges at ({cur}, {dst})");
                }
                for port in 0..d {
                    let (dim, dir) = dim_dir_of(port);
                    let nb = t.neighbor(cur, dim, dir);
                    for vc in 0..vcs {
                        assert_eq!(
                            net.downstream_idx(cur, port, vc),
                            net.vc_idx(nb, port_of(dim, dir.opposite()), vc),
                            "downstream table diverges at node {cur} port {port} vc {vc}"
                        );
                    }
                }
            }
        }
    }
}
