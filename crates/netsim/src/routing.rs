//! Output-channel selection for headers (adaptive routing with either
//! escape channels or full adaptivity, per the deadlock mode), backed by
//! next-hop tables precomputed once at network construction.

use crate::network::{dim_dir_of, port_of, Assign, Network};
use crate::packet::PacketId;
use kncube::{Dir, NodeId, Torus};

/// Largest node count for which the O(nodes²) pair tables (mesh DOR next
/// hop, productive-port masks) are precomputed; bigger networks fall back
/// to computing hops on the fly. At the limit the two tables cost 3 MiB —
/// negligible next to the VC arenas — while the paper's 256-node network
/// needs only 192 KiB.
pub(crate) const TABLE_NODE_LIMIT: usize = 1024;

/// Sentinel in the mesh next-hop table for `cur == dst` (no hop).
const NO_HOP: u8 = 0xFF;

/// Routing lookup tables, built once per [`Network`].
///
/// * `mesh_next[cur * nodes + dst]` — output port of the dimension-order
///   *mesh* hop (the escape routing function), [`NO_HOP`] when aligned.
/// * `productive[cur * nodes + dst]` — bitmask of productive (minimal,
///   wrap-aware) output ports. The torus offers at most one productive
///   direction per dimension (ties break `Plus`), so iterating set bits in
///   ascending port order reproduces exactly the ascending-dimension hop
///   order of [`Torus::productive_hops`] — decisions are bit-identical to
///   the dynamic path. A port index is `2*dim + (dir == Minus)`, so 16
///   ports at most (`MAX_DIMS = 8`) and a `u16` always fits.
/// * `downstream[(node * d + port) * v + vc]` — global index of the
///   neighbor input VC fed by that output VC, replacing a coordinate
///   decomposition (`div`/`mod` per dimension) on every flit hop.
///
/// The pair tables are only built for networks of at most
/// [`TABLE_NODE_LIMIT`] nodes; `downstream` is linear in the VC count and
/// always built.
#[derive(Debug)]
pub(crate) struct RouteTables {
    nodes: usize,
    mesh_next: Vec<u8>,
    productive: Vec<u16>,
    downstream: Vec<u32>,
}

impl RouteTables {
    /// Builds the tables for `torus` with `vcs` virtual channels per
    /// physical channel.
    pub(crate) fn build(torus: &Torus, vcs: usize) -> Self {
        Self::build_with_limit(torus, vcs, TABLE_NODE_LIMIT)
    }

    /// [`RouteTables::build`] with an explicit pair-table node limit, so
    /// tests can force the O(nodes²) tables on a network large enough to
    /// take the dynamic fallback in production and prove the two paths
    /// equivalent.
    pub(crate) fn build_with_limit(torus: &Torus, vcs: usize, limit: usize) -> Self {
        let nodes = torus.node_count();
        let d = torus.channels_per_node();
        let mut downstream = vec![0u32; nodes * d * vcs];
        for node in 0..nodes {
            for port in 0..d {
                let (dim, dir) = dim_dir_of(port);
                let nb = torus.neighbor(node, dim, dir);
                let in_port = port_of(dim, dir.opposite());
                for vc in 0..vcs {
                    downstream[(node * d + port) * vcs + vc] =
                        ((nb * d + in_port) * vcs + vc) as u32;
                }
            }
        }
        let (mesh_next, productive) = if nodes <= limit {
            DimRows::build(torus).compose(torus)
        } else {
            (Vec::new(), Vec::new())
        };
        RouteTables {
            nodes,
            mesh_next,
            productive,
            downstream,
        }
    }

    /// The downstream input VC fed by output VC (global index) `oidx`.
    #[inline]
    pub(crate) fn downstream(&self, oidx: usize) -> usize {
        self.downstream[oidx] as usize
    }

    /// The whole downstream table (entries are input-VC indices), for the
    /// parallel apply's read-only raw view.
    #[inline]
    pub(crate) fn downstream_raw(&self) -> &[u32] {
        &self.downstream
    }

    /// Whether the O(nodes²) pair tables were built.
    #[inline]
    fn has_pair_tables(&self) -> bool {
        !self.productive.is_empty()
    }
}

/// The routing functions of one dimension, for every pair of coordinates
/// in it: `k × k` entries per dimension instead of one per node pair.
/// Both routing functions decide dimension by dimension from that
/// dimension's two coordinates alone, so these rows hold everything the
/// all-pairs tables do.
struct DimRows {
    k: usize,
    /// `productive[(dim * k + a) * k + b]` — [`productive_mask_dyn`] between
    /// two nodes at coordinates `a` and `b` in `dim`, equal elsewhere.
    productive: Vec<u16>,
    /// `mesh_next[(dim * k + a) * k + b]` — [`mesh_dor_hop_dyn`]'s port
    /// between the same two nodes, [`NO_HOP`] when `a == b`.
    mesh_next: Vec<u8>,
}

impl DimRows {
    /// Asks the `*_dyn` functions about the `k` nodes along each axis
    /// through node 0.
    fn build(torus: &Torus) -> Self {
        let (k, n) = (torus.radix(), torus.dimensions());
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
        DimRows {
            k,
            productive,
            mesh_next,
        }
    }

    /// The all-pairs `(mesh_next, productive)` tables: the productive mask
    /// of a pair is the union of its per-dimension masks, its mesh hop the
    /// hop of the lowest unaligned dimension. Each node's coordinates are
    /// decoded once, not once per pair.
    fn compose(&self, torus: &Torus) -> (Vec<u8>, Vec<u16>) {
        let (k, n, nodes) = (self.k, torus.dimensions(), torus.node_count());
        // digits[node * n + dim]: the node's coordinate in `dim`.
        let mut digits = Vec::with_capacity(nodes * n);
        for node in 0..nodes {
            digits.extend(torus.coords(node).iter().map(usize::from));
        }
        let mut mesh_next = Vec::with_capacity(nodes * nodes);
        let mut productive = Vec::with_capacity(nodes * nodes);
        let mut rows = [0usize; kncube::MAX_DIMS];
        for ca in digits.chunks_exact(n) {
            for (dim, row) in rows[..n].iter_mut().enumerate() {
                *row = (dim * k + ca[dim]) * k;
            }
            for cb in digits.chunks_exact(n) {
                let mut mask = 0u16;
                let mut hop = NO_HOP;
                for dim in (0..n).rev() {
                    let at = rows[dim] + cb[dim];
                    mask |= self.productive[at];
                    if self.mesh_next[at] != NO_HOP {
                        hop = self.mesh_next[at];
                    }
                }
                mesh_next.push(hop);
                productive.push(mask);
            }
        }
        (mesh_next, productive)
    }
}

/// Dimension-order next hop on the *mesh* sub-network (never crosses a
/// wraparound link): the escape routing function, computed from
/// coordinates. [`Network::mesh_dor_hop`] serves the same answer from the
/// precomputed table when one exists.
pub(crate) fn mesh_dor_hop_dyn(torus: &Torus, cur: NodeId, dst: NodeId) -> Option<(usize, Dir)> {
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

/// Productive-port bitmask computed from coordinates (the table fallback
/// for networks above [`TABLE_NODE_LIMIT`]).
pub(crate) fn productive_mask_dyn(torus: &Torus, cur: NodeId, dst: NodeId) -> u16 {
    let mut mask = 0u16;
    for (dim, dir) in torus.productive_hops(cur, dst).iter() {
        mask |= 1 << port_of(dim, dir);
    }
    mask
}

impl Network {
    /// Chooses an output virtual channel for a header at `node` destined for
    /// `dst` (`dst != node`; local delivery is handled by the caller).
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
        let escape_vcs = self.config().escape_vcs();
        let sticky_escaped = escape_vcs > 0 && self.escaped[pid as usize];

        if !sticky_escaped {
            // First free adaptive VC in fixed (dimension, direction, VC)
            // order — ascending set bits of the productive-port mask visit
            // dimensions in exactly the order `productive_hops` yields them.
            let mut mask = self.productive_mask(node, dst);
            while mask != 0 {
                let port = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                for vc in escape_vcs..self.config().vcs {
                    let oidx = self.vc_idx(node, port, vc);
                    if !self.out_alloc[oidx] {
                        return Some(Assign::Out {
                            port: port as u8,
                            vc: vc as u8,
                        });
                    }
                }
            }
        }

        if escape_vcs > 0 {
            let port = self
                .mesh_next_port(node, dst)
                .expect("mesh DOR hop exists whenever node != dst");
            for vc in 0..escape_vcs {
                let oidx = self.vc_idx(node, port, vc);
                if !self.out_alloc[oidx] {
                    return Some(Assign::Out {
                        port: port as u8,
                        vc: vc as u8,
                    });
                }
            }
        }
        None
    }

    /// Bitmask of productive output ports from `node` towards `dst` (table
    /// lookup, with a dynamic fallback above [`TABLE_NODE_LIMIT`]).
    #[inline]
    pub(crate) fn productive_mask(&self, node: NodeId, dst: NodeId) -> u16 {
        if self.tables.has_pair_tables() {
            self.tables.productive[node * self.tables.nodes + dst]
        } else {
            productive_mask_dyn(self.torus(), node, dst)
        }
    }

    /// Output port of the mesh dimension-order hop from `cur` towards
    /// `dst`, `None` when `cur == dst`.
    #[inline]
    pub(crate) fn mesh_next_port(&self, cur: NodeId, dst: NodeId) -> Option<usize> {
        if self.tables.has_pair_tables() {
            let p = self.tables.mesh_next[cur * self.tables.nodes + dst];
            (p != NO_HOP).then_some(usize::from(p))
        } else {
            mesh_dor_hop_dyn(self.torus(), cur, dst).map(|(dim, dir)| port_of(dim, dir))
        }
    }

    /// Dimension-order next hop on the *mesh* sub-network (never crosses a
    /// wraparound link): the escape routing function. (The hot path uses
    /// [`Network::mesh_next_port`] directly; this `(dim, dir)` view exists
    /// for the routing tests.)
    #[cfg(test)]
    pub(crate) fn mesh_dor_hop(&self, cur: NodeId, dst: NodeId) -> Option<(usize, Dir)> {
        self.mesh_next_port(cur, dst).map(dim_dir_of)
    }
}

#[cfg(test)]
mod tests {
    use super::{mesh_dor_hop_dyn, productive_mask_dyn, RouteTables, TABLE_NODE_LIMIT};
    use crate::config::{DeadlockMode, NetConfig};
    use crate::control::NoControl;
    use crate::network::Network;
    use crate::network::{dim_dir_of, port_of};
    use kncube::Dir;

    #[test]
    fn mesh_dor_never_wraps() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        // Node 0 to node 7 (same row): torus-minimal is one hop Minus (wrap),
        // but the mesh escape must walk +x without wrapping.
        let (dim, dir) = net.mesh_dor_hop(0, 7).unwrap();
        assert_eq!((dim, dir), (0, Dir::Plus));
        // And from 7 back to 0 it walks -x.
        let (dim, dir) = net.mesh_dor_hop(7, 0).unwrap();
        assert_eq!((dim, dir), (0, Dir::Minus));
        assert_eq!(net.mesh_dor_hop(5, 5), None);
    }

    #[test]
    fn mesh_dor_walk_terminates_everywhere() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        let t = net.torus().clone();
        for src in [0usize, 7, 32, 63] {
            for dst in 0..t.node_count() {
                let mut cur = src;
                let mut steps = 0;
                while let Some((dim, dir)) = net.mesh_dor_hop(cur, dst) {
                    cur = t.neighbor(cur, dim, dir);
                    steps += 1;
                    assert!(steps < 100, "mesh DOR walk diverged");
                }
                assert_eq!(cur, dst);
            }
        }
    }

    /// Above [`TABLE_NODE_LIMIT`] the pair tables are skipped and every
    /// routing decision falls back to the coordinate computation — a path
    /// the Tiny/Small/paper presets never take. Build a 12-ary 3-cube
    /// (1728 nodes) twice, force the O(nodes²) tables onto one of the two
    /// otherwise-identical networks, drive both under the same traffic,
    /// and require bit-identical observables: serialized state and full
    /// counters. Avoidance mode exercises both tables (the productive
    /// mask on the adaptive path, the mesh next hop on every escape).
    #[test]
    fn dynamic_fallback_matches_forced_tables_above_limit() {
        let cfg = NetConfig {
            radix: 12,
            dimensions: 3,
            vcs: 2,
            buf_depth: 4,
            packet_len: 4,
            ..NetConfig::small(DeadlockMode::Avoidance)
        };
        let nodes = cfg.torus().unwrap().node_count();
        assert!(
            nodes > TABLE_NODE_LIMIT,
            "config no longer exercises the dynamic fallback"
        );
        let run = |force_tables: bool| {
            let mut net = Network::new(cfg.clone()).unwrap();
            if force_tables {
                let t = net.torus().clone();
                net.tables = RouteTables::build_with_limit(&t, cfg.vcs, usize::MAX);
            }
            assert_eq!(net.tables.has_pair_tables(), force_tables);
            let mut src = move |now: u64, node: usize| {
                let mut x = (now + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (node as u64) << 21;
                x ^= x >> 31;
                (x % 100 < 45).then(|| (x >> 32) as usize % nodes)
            };
            net.run(400, &mut src, &mut NoControl);
            let mut enc = checkpoint::Enc::new();
            net.save_state(&mut enc);
            (enc.into_vec(), net.counters().delivered_packets)
        };
        let (dynamic, delivered) = run(false);
        assert!(delivered > 0, "vacuous: nothing was delivered");
        assert_eq!(run(true).0, dynamic, "table and dynamic paths diverged");
    }

    /// Exhaustive table-vs-dynamic equivalence over every (cur, dst) pair
    /// for the Tiny (4-ary), Small (8-ary) and paper (16-ary) presets: the
    /// precomputed mesh next hop and productive-port mask must agree with
    /// the coordinate computation everywhere, and the downstream table must
    /// agree with the topology's neighbor function for every output VC.
    /// The pair tables are composed from per-dimension rows, so the shapes
    /// where a dimension-by-dimension composition could go wrong are here
    /// too: three dimensions, an odd radix (no tie), and radix 2 (every
    /// unaligned dimension ties, and both directions reach one neighbor).
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
                        net.mesh_dor_hop(cur, dst),
                        mesh_dor_hop_dyn(&t, cur, dst),
                        "mesh table diverges at ({cur}, {dst}), k={}",
                        t.radix()
                    );
                    assert_eq!(
                        net.productive_mask(cur, dst),
                        productive_mask_dyn(&t, cur, dst),
                        "productive table diverges at ({cur}, {dst}), k={}",
                        t.radix()
                    );
                    // Mask bit order must reproduce the HopSet hop order.
                    let mut mask = net.productive_mask(cur, dst);
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
