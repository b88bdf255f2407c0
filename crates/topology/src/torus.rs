use crate::{Coords, Dir, NodeId, TopologyError, MAX_DIMS};

/// A k-ary n-cube: `n` dimensions of radix `k` with wraparound links.
///
/// Nodes are numbered `0..k^n` with dimension 0 as the least-significant
/// digit. Every node has `2n` outgoing physical channels (one per dimension
/// per direction); links are full duplex, as in the paper's network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    k: usize,
    n: usize,
    nodes: usize,
}

/// Minimal-routing information for one dimension of a source/destination
/// pair: how many hops remain in this dimension and which direction(s) are
/// minimal.
///
/// When the remaining offset is exactly `k/2` (even radix) both directions
/// are tied; the tie is broken deterministically towards `Plus`, as in
/// routers that compute a single minimal direction per dimension. (Spreading
/// ties across both ring directions makes permutations like butterfly —
/// whose pairs often differ by exactly `k/2` — unrealistically benign.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimRoute {
    /// Remaining minimal hops in this dimension (0 when aligned).
    pub hops: u16,
    /// Whether a `Plus` hop is productive (minimal).
    pub plus: bool,
    /// Whether a `Minus` hop is productive (minimal).
    pub minus: bool,
}

impl DimRoute {
    /// A route for an already-aligned dimension.
    pub const ALIGNED: DimRoute = DimRoute {
        hops: 0,
        plus: false,
        minus: false,
    };

    /// Whether `dir` is a productive direction for this dimension.
    #[must_use]
    pub fn allows(&self, dir: Dir) -> bool {
        match dir {
            Dir::Plus => self.plus,
            Dir::Minus => self.minus,
        }
    }

    /// The preferred deterministic direction: `Plus` on ties.
    ///
    /// Returns `None` when the dimension is aligned.
    #[must_use]
    pub fn deterministic_dir(&self) -> Option<Dir> {
        if self.plus {
            Some(Dir::Plus)
        } else if self.minus {
            Some(Dir::Minus)
        } else {
            None
        }
    }
}

/// The set of productive (minimal) hops from a node towards a destination:
/// at most one entry per dimension per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSet {
    hops: [(u8, Dir); 2 * MAX_DIMS],
    len: u8,
}

impl HopSet {
    fn new() -> Self {
        HopSet {
            hops: [(0, Dir::Plus); 2 * MAX_DIMS],
            len: 0,
        }
    }

    fn push(&mut self, dim: usize, dir: Dir) {
        self.hops[usize::from(self.len)] = (dim as u8, dir);
        self.len += 1;
    }

    /// Number of productive (dimension, direction) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the packet has arrived (no productive hops remain).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the productive `(dimension, direction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Dir)> + '_ {
        self.hops[..self.len()]
            .iter()
            .map(|&(d, dir)| (usize::from(d), dir))
    }
}

impl Torus {
    /// Creates a `k`-ary `n`-cube.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if `k < 2`, `n` is not in `1..=MAX_DIMS`, or
    /// `k^n` overflows the node index space.
    ///
    /// ```
    /// use kncube::Torus;
    /// assert!(Torus::new(1, 2).is_err());
    /// assert!(Torus::new(16, 2).is_ok());
    /// ```
    pub fn new(k: usize, n: usize) -> Result<Self, TopologyError> {
        if k < 2 {
            return Err(TopologyError::RadixTooSmall { k });
        }
        if n == 0 || n > MAX_DIMS {
            return Err(TopologyError::BadDimensionCount { n });
        }
        if k > usize::from(u16::MAX) {
            return Err(TopologyError::TooManyNodes { k, n });
        }
        let mut nodes: usize = 1;
        for _ in 0..n {
            nodes = nodes
                .checked_mul(k)
                .filter(|&m| m <= (1 << 24))
                .ok_or(TopologyError::TooManyNodes { k, n })?;
        }
        Ok(Torus { k, n, nodes })
    }

    /// The radix `k`.
    #[must_use]
    pub fn radix(&self) -> usize {
        self.k
    }

    /// The number of dimensions `n`.
    #[must_use]
    pub fn dimensions(&self) -> usize {
        self.n
    }

    /// Total node count `k^n`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of unidirectional physical channels leaving each node
    /// (excluding injection/delivery): `2n`.
    #[must_use]
    pub fn channels_per_node(&self) -> usize {
        2 * self.n
    }

    /// Decomposes a node id into per-dimension coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `node >= node_count()`.
    #[must_use]
    pub fn coords(&self, node: NodeId) -> Coords {
        assert!(node < self.nodes, "node id {node} out of range");
        let mut c = Coords::new_zero(self.n);
        let mut rem = node;
        for dim in 0..self.n {
            c.set(dim, (rem % self.k) as u16);
            rem /= self.k;
        }
        c
    }

    /// Recomposes a node id from coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the dimension count mismatches or a coordinate is `>= k`.
    #[must_use]
    pub fn node(&self, coords: Coords) -> NodeId {
        assert_eq!(coords.len(), self.n, "dimension count mismatch");
        let mut id = 0usize;
        for (dim, &v) in coords.as_slice().iter().enumerate().rev() {
            assert!(
                usize::from(v) < self.k,
                "coordinate {v} out of range in dim {dim}"
            );
            id = id * self.k + usize::from(v);
        }
        id
    }

    /// The neighbor of `node` one hop along `dim` in direction `dir`
    /// (with wraparound).
    ///
    /// # Panics
    ///
    /// Panics if `node` or `dim` is out of range.
    #[must_use]
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Dir) -> NodeId {
        assert!(dim < self.n, "dimension {dim} out of range");
        let mut c = self.coords(node);
        let cur = usize::from(c[dim]);
        let next = match dir {
            Dir::Plus => (cur + 1) % self.k,
            Dir::Minus => (cur + self.k - 1) % self.k,
        };
        c.set(dim, next as u16);
        self.node(c)
    }

    /// Minimal-routing information for one dimension whose coordinates are
    /// `a` (here) and `b` (the destination).
    fn dim_route_coords(&self, a: usize, b: usize) -> DimRoute {
        if a == b {
            return DimRoute::ALIGNED;
        }
        let fwd = (b + self.k - a) % self.k; // hops going Plus
        let bwd = self.k - fwd; // hops going Minus
        let hops = fwd.min(bwd) as u16;
        DimRoute {
            hops,
            plus: fwd <= bwd,
            minus: bwd < fwd,
        }
    }

    /// Total minimal hop count between two nodes.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..self.n)
            .map(|d| {
                usize::from(
                    self.dim_route_coords(usize::from(ca[d]), usize::from(cb[d]))
                        .hops,
                )
            })
            .sum()
    }

    /// All productive (minimal) `(dimension, direction)` hops from `cur`
    /// towards `dst`. Empty iff `cur == dst`.
    ///
    /// Adaptive routing may take any of these; the ALO baseline calls the
    /// corresponding physical channels *useful*.
    #[must_use]
    pub fn productive_hops(&self, cur: NodeId, dst: NodeId) -> HopSet {
        let ca = self.coords(cur);
        let cb = self.coords(dst);
        let mut set = HopSet::new();
        for dim in 0..self.n {
            let r = self.dim_route_coords(usize::from(ca[dim]), usize::from(cb[dim]));
            if r.plus {
                set.push(dim, Dir::Plus);
            }
            if r.minus {
                set.push(dim, Dir::Minus);
            }
        }
        set
    }

    /// The dimension-order (deterministic, oblivious) next hop: the lowest
    /// unaligned dimension, taking the minimal direction (`Plus` on ties).
    ///
    /// Returns `None` when `cur == dst`. This is the routing function of the
    /// Duato escape channel and of the Disha recovery drain path; it is
    /// deadlock-free on its own sub-network.
    #[must_use]
    pub fn dimension_order_hop(&self, cur: NodeId, dst: NodeId) -> Option<(usize, Dir)> {
        let ca = self.coords(cur);
        let cb = self.coords(dst);
        for dim in 0..self.n {
            let r = self.dim_route_coords(usize::from(ca[dim]), usize::from(cb[dim]));
            if let Some(dir) = r.deterministic_dir() {
                return Some((dim, dir));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t16() -> Torus {
        Torus::new(16, 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Torus::new(1, 2),
            Err(TopologyError::RadixTooSmall { k: 1 })
        ));
        assert!(matches!(
            Torus::new(4, 0),
            Err(TopologyError::BadDimensionCount { n: 0 })
        ));
        assert!(matches!(
            Torus::new(4, 9),
            Err(TopologyError::BadDimensionCount { n: 9 })
        ));
        assert!(Torus::new(2, 8).is_ok());
        assert!(Torus::new(1 << 13, 2).is_err()); // 2^26 nodes too many
    }

    #[test]
    fn paper_network_shape() {
        let t = t16();
        assert_eq!(t.node_count(), 256);
        assert_eq!(t.channels_per_node(), 4);
    }

    #[test]
    fn coords_round_trip() {
        let t = t16();
        for id in 0..t.node_count() {
            assert_eq!(t.node(t.coords(id)), id);
        }
    }

    #[test]
    fn neighbor_wraps_around() {
        let t = t16();
        assert_eq!(t.neighbor(0, 0, Dir::Minus), 15);
        assert_eq!(t.neighbor(15, 0, Dir::Plus), 0);
        assert_eq!(t.neighbor(0, 1, Dir::Minus), 240);
        assert_eq!(t.neighbor(5, 1, Dir::Plus), 21);
    }

    #[test]
    fn neighbor_is_involutive_with_opposite() {
        let t = Torus::new(5, 3).unwrap();
        for id in 0..t.node_count() {
            for dim in 0..3 {
                for dir in Dir::BOTH {
                    let nb = t.neighbor(id, dim, dir);
                    assert_eq!(t.neighbor(nb, dim, dir.opposite()), id);
                }
            }
        }
    }

    #[test]
    fn distance_wraparound_minimal() {
        let t = t16();
        assert_eq!(t.distance(0, 15), 1);
        assert_eq!(t.distance(0, 8), 8); // exactly k/2
        assert_eq!(t.distance(0, 17), 2);
        assert_eq!(t.distance(3, 3), 0);
    }

    #[test]
    fn dim_route_tie_breaks_towards_plus() {
        let t = t16();
        let r = t.dim_route_coords(0, 8);
        assert_eq!(r.hops, 8);
        assert!(r.plus && !r.minus);
        let r = t.dim_route_coords(0, 3);
        assert!(r.plus && !r.minus);
        let r = t.dim_route_coords(0, 13);
        assert!(!r.plus && r.minus);
    }

    #[test]
    fn productive_hops_match_distance_dims() {
        let t = t16();
        let hs = t.productive_hops(0, 17);
        let hops: Vec<_> = hs.iter().collect();
        assert_eq!(hops, vec![(0, Dir::Plus), (1, Dir::Plus)]);
        assert!(t.productive_hops(42, 42).is_empty());
    }

    #[test]
    fn dimension_order_walk_reaches_destination_minimally() {
        let t = Torus::new(7, 3).unwrap();
        for (src, dst) in [(0, 342), (5, 5), (100, 17), (342, 0)] {
            let mut cur = src;
            let mut steps = 0;
            while let Some((dim, dir)) = t.dimension_order_hop(cur, dst) {
                cur = t.neighbor(cur, dim, dir);
                steps += 1;
                assert!(steps <= t.node_count(), "walk did not terminate");
            }
            assert_eq!(cur, dst);
            assert_eq!(steps, t.distance(src, dst));
        }
    }

    #[test]
    fn exactly_one_direction_is_ever_productive() {
        for k in [4usize, 5, 16] {
            let t = Torus::new(k, 2).unwrap();
            for a in 0..k {
                for b in 0..k {
                    let r = t.dim_route_coords(a, b);
                    assert!(!(r.plus && r.minus), "single minimal direction per dim");
                    assert_eq!(r.plus || r.minus, a != b);
                }
            }
        }
    }
}
