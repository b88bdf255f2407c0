//! The one place a route is computed: next-hop tables precomputed once at
//! network construction from the ring rule ([`RouteTables`]), and the
//! output-channel selection for headers that reads them (adaptive routing
//! with either escape channels or full adaptivity, per the deadlock mode).
//! `kncube` knows only the torus's shape; the ALO baseline's useful
//! channels, the Disha drain path and the shard plan read these tables.

use crate::network::{dim_dir_of, port_of, Assign};
use crate::shard::ApplyCtx;
use kncube::{Dir, NodeId, Torus};

/// Sentinel in the mesh next-hop rows for equal digits (no hop in that
/// dimension).
const NO_HOP: u8 = 0xFF;

/// Routing lookup tables, built once per [`crate::Network`]: the one
/// place a route is computed. The adaptive and escape routing functions,
/// the ALO baseline's useful channels ([`crate::Network::productive_ports`]),
/// the Disha drain path ([`RouteTables::dimension_order_walk`]), the shard
/// plan's crossing channels and the switch plane's downstream slots all
/// read these tables.
///
/// Both routing functions decide dimension by dimension from that
/// dimension's two digits alone, so a pair of nodes is routed from
/// per-dimension `k × k` rows — `O(n·k²)` entries for any network size —
/// indexed through a per-node digit array (`O(nodes·n)`):
///
/// * `productive[(dim * k + a) * k + b]` — the productive-port mask
///   between two nodes at digits `a` and `b` in `dim`, equal elsewhere:
///   the ring rule, the shorter way round with ties (`b - a = k/2`) to
///   `Plus`, empty when `a == b`. The productive mask of a pair is the
///   union over dimensions. A dimension offers at most one productive
///   direction, so the lowest set bit is the dimension-order hop (the
///   lowest unaligned dimension), and iterating set bits in ascending port
///   order visits dimensions in ascending order. A port index is
///   `2*dim + (dir == Minus)`, so 16 ports at most (`MAX_DIMS = 8`) and a
///   `u16` always fits.
/// * `mesh_next[(dim * k + a) * k + b]` — the mesh hop's port between the
///   same two digits (the escape routing function): towards the
///   destination's digit, never across the wraparound link; [`NO_HOP`]
///   when `a == b`. The mesh hop of a pair is the hop of its lowest
///   unaligned dimension.
/// * `digits[node * n + dim]` — the node's digit in `dim`, `node / k^dim %
///   k`; with the per-dimension `strides` it also names a node's neighbour
///   on a port ([`RouteTables::neighbor`]).
#[derive(Debug)]
pub(crate) struct RouteTables {
    k: usize,
    n: usize,
    productive: Vec<u16>,
    mesh_next: Vec<u8>,
    digits: Vec<u16>,
    /// Node-index distance between neighbours in each dimension: `k^dim`.
    strides: Vec<usize>,
}

impl RouteTables {
    /// Builds the tables for `torus`: each dimension's rows from the ring
    /// rule over every pair of digits, each node's digits by division.
    pub(crate) fn build(torus: &Torus) -> Self {
        let (k, n, nodes) = (torus.radix(), torus.dimensions(), torus.node_count());
        let mut productive = Vec::with_capacity(n * k * k);
        let mut mesh_next = Vec::with_capacity(n * k * k);
        for dim in 0..n {
            let (plus, minus) = (port_of(dim, Dir::Plus), port_of(dim, Dir::Minus));
            for a in 0..k {
                for b in 0..k {
                    if a == b {
                        productive.push(0);
                        mesh_next.push(NO_HOP);
                        continue;
                    }
                    let fwd = (b + k - a) % k; // hops going Plus
                    productive.push(1 << if fwd <= k - fwd { plus } else { minus });
                    mesh_next.push(if b > a { plus } else { minus } as u8);
                }
            }
        }
        // Dimension 0 is the least-significant digit.
        let strides: Vec<usize> = std::iter::successors(Some(1), |s| Some(s * k))
            .take(n)
            .collect();
        let mut digits = Vec::with_capacity(nodes * n);
        for node in 0..nodes {
            digits.extend(strides.iter().map(|s| (node / s % k) as u16));
        }
        RouteTables {
            k,
            n,
            productive,
            mesh_next,
            digits,
            strides,
        }
    }

    /// Nodes of the network (`k^n`).
    #[inline]
    pub(crate) fn nodes(&self) -> usize {
        self.digits.len() / self.n
    }

    /// Network ports per router (`2n`).
    #[inline]
    pub(crate) fn ports(&self) -> usize {
        2 * self.n
    }

    /// The node `port` of `node` links to: one step along the port's
    /// dimension, wrapping, from the node's digit there.
    #[inline]
    pub(crate) fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
        let (dim, dir) = dim_dir_of(port);
        let (k, stride) = (self.k, self.strides[dim]);
        let digit = usize::from(self.digits[node * self.n + dim]);
        let next = match dir {
            Dir::Plus if digit + 1 == k => 0,
            Dir::Plus => digit + 1,
            Dir::Minus if digit == 0 => k - 1,
            Dir::Minus => digit - 1,
        };
        node - digit * stride + next * stride
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

    /// Writes the torus dimension-order walk from `from` to `dst` into
    /// `path`, both ends included: each step takes the lowest productive
    /// port — the lowest unaligned dimension, the shorter way round, ties
    /// to `Plus` — so the walk is `distance + 1` routers long. The Disha
    /// drain path; `path` is cleared first and allocates nothing while its
    /// capacity holds a diameter's walk.
    pub(crate) fn dimension_order_walk(&self, from: NodeId, dst: NodeId, path: &mut Vec<NodeId>) {
        path.clear();
        path.push(from);
        let mut cur = from;
        loop {
            let mask = self.productive_mask(cur, dst);
            if mask == 0 {
                break;
            }
            cur = self.neighbor(cur, mask.trailing_zeros() as usize);
            path.push(cur);
        }
    }
}

impl ApplyCtx<'_> {
    /// Chooses an output virtual channel for a header at `node` destined for
    /// `dst` (`dst != node`; local delivery is handled by the caller) whose
    /// packet has `escaped` already or not. Reads `node`'s own output
    /// allocations.
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
    pub(crate) fn choose_output(&self, node: NodeId, dst: NodeId, escaped: bool) -> Option<Assign> {
        debug_assert_ne!(node, dst);
        let escape_vcs = self.escape_vcs;
        let free =
            |port: usize, vc: usize| !self.out_alloc.get((node * self.d + port) * self.v + vc);
        let sticky_escaped = escape_vcs > 0 && escaped;

        if !sticky_escaped {
            // First free adaptive VC in fixed (dimension, direction, VC)
            // order: ascending set bits of the productive-port mask visit
            // dimensions in ascending order.
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
    use crate::config::{DeadlockMode, NetConfig};
    use crate::network::Network;
    use crate::network::{dim_dir_of, port_of};
    use kncube::Dir;

    /// The digit of `node` in `dim` on a `k`-ary torus, by its definition.
    fn digit(node: usize, dim: usize, k: usize) -> usize {
        node / k.pow(dim as u32) % k
    }

    /// The mesh hop from `cur` towards `dst` as a `(dimension, direction)`.
    fn mesh_hop(net: &Network, cur: usize, dst: usize) -> Option<(usize, Dir)> {
        net.tables.mesh_next_port(cur, dst).map(dim_dir_of)
    }

    #[test]
    fn mesh_dor_never_wraps() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        // Node 0 to node 7 (same row): torus-minimal is one hop Minus (wrap),
        // but the mesh escape must walk +x without wrapping.
        assert_eq!(mesh_hop(&net, 0, 7), Some((0, Dir::Plus)));
        // And from 7 back to 0 it walks -x.
        assert_eq!(mesh_hop(&net, 7, 0), Some((0, Dir::Minus)));
        assert_eq!(mesh_hop(&net, 5, 5), None);
    }

    #[test]
    fn mesh_dor_walk_terminates_everywhere() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        for src in [0usize, 7, 32, 63] {
            for dst in 0..net.torus().node_count() {
                let mut cur = src;
                let mut steps = 0;
                while let Some(port) = net.tables.mesh_next_port(cur, dst) {
                    cur = net.tables.neighbor(cur, port);
                    steps += 1;
                    assert!(steps < 100, "mesh DOR walk diverged");
                }
                assert_eq!(cur, dst);
            }
        }
    }

    /// The tie ALO reads: on the 8-ary 2-cube, node 4 is `k/2` hops from
    /// node 0 both ways round dimension 0, and only `Plus` is productive.
    #[test]
    fn a_half_ring_tie_is_plus_alone() {
        let net = Network::new(NetConfig::small(DeadlockMode::Avoidance)).unwrap();
        assert_eq!(net.torus().radix(), 8);
        assert_eq!(net.productive_ports(0, 4), 1 << port_of(0, Dir::Plus));
        assert_eq!(net.productive_ports(4, 0), 1 << port_of(0, Dir::Plus));
        assert_eq!(net.productive_ports(0, 5), 1 << port_of(0, Dir::Minus));
        assert_eq!(net.productive_ports(3, 3), 0);
    }

    /// The tables against the definition of minimality, over every pair
    /// of nodes of nine shapes: the Tiny (4-ary), Small (8-ary) and paper
    /// (16-ary) presets, three dimensions, an odd radix (no tie), radix 2
    /// (every unaligned dimension ties, and both directions reach one
    /// neighbour) and the 12-ary 3-cube (1728 nodes) of the repo benchmark.
    ///
    /// * A neighbour differs from its node in exactly the port's digit, by
    ///   one step in the port's direction modulo `k`; the opposite port
    ///   leads back; and an output VC's downstream slot is that
    ///   neighbour's opposite input port.
    /// * A port is productive exactly when its neighbour is one hop closer
    ///   by [`kncube::Torus::distance`], except that where both directions
    ///   of a dimension are (a `k/2` tie) only `Plus` is.
    /// * The mesh hop is in the lowest unaligned dimension, towards the
    ///   destination's digit, so it never wraps.
    /// * The dimension-order walk reaches the destination in `distance`
    ///   hops.
    #[test]
    fn route_tables_are_minimal_everywhere() {
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
        let mut path = Vec::new();
        for cfg in cfgs {
            let vcs = cfg.vcs;
            let net = Network::new(cfg).unwrap();
            let t = net.torus().clone();
            let (k, n, nodes) = (t.radix(), t.dimensions(), t.node_count());
            let tables = &net.tables;
            let at = |cur, dst| format!("({cur}, {dst}) on the {k}-ary {n}-cube");
            for cur in 0..nodes {
                for port in 0..2 * n {
                    let (dim, dir) = dim_dir_of(port);
                    let nb = tables.neighbor(cur, port);
                    let step = if dir == Dir::Plus { 1 } else { k - 1 };
                    for d in 0..n {
                        let want = (digit(cur, d, k) + if d == dim { step } else { 0 }) % k;
                        assert_eq!(digit(nb, d, k), want, "neighbour of {}", at(cur, port));
                    }
                    let back = port_of(dim, dir.opposite());
                    assert_eq!(tables.neighbor(nb, back), cur, "{}", at(cur, port));
                    for vc in 0..vcs {
                        assert_eq!(
                            net.downstream_idx(cur, port, vc),
                            net.vc_idx(nb, back, vc),
                            "downstream slot of {} vc {vc}",
                            at(cur, port)
                        );
                    }
                }
                for dst in 0..nodes {
                    let dist = t.distance(cur, dst);
                    let closer = |port| t.distance(tables.neighbor(cur, port), dst) + 1 == dist;
                    let mut want = 0u16;
                    for dim in 0..n {
                        let (plus, minus) = (port_of(dim, Dir::Plus), port_of(dim, Dir::Minus));
                        if closer(plus) {
                            want |= 1 << plus;
                        } else if closer(minus) {
                            want |= 1 << minus;
                        }
                    }
                    assert_eq!(net.productive_ports(cur, dst), want, "{}", at(cur, dst));

                    let unaligned = (0..n).find(|&d| digit(cur, d, k) != digit(dst, d, k));
                    let mesh = unaligned.map(|d| {
                        let plus = digit(dst, d, k) > digit(cur, d, k);
                        (d, if plus { Dir::Plus } else { Dir::Minus })
                    });
                    assert_eq!(mesh_hop(&net, cur, dst), mesh, "mesh hop {}", at(cur, dst));

                    tables.dimension_order_walk(cur, dst, &mut path);
                    assert_eq!(path.len(), dist + 1, "walk {}", at(cur, dst));
                    assert_eq!(path.last(), Some(&dst), "walk {}", at(cur, dst));
                }
            }
        }
    }
}
