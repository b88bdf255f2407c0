use crate::{NodeId, TopologyError, MAX_DIMS};

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

    /// Total minimal hop count between two nodes: over the dimensions,
    /// the shorter way round the ring between their digits.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not a node of the torus.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        assert!(
            a < self.nodes && b < self.nodes,
            "node id out of range: {a}, {b}"
        );
        let k = self.k;
        let (mut a, mut b, mut hops) = (a, b, 0);
        for _ in 0..self.n {
            let fwd = (b % k + k - a % k) % k; // hops going Plus
            hops += fwd.min(k - fwd);
            (a, b) = (a / k, b / k);
        }
        hops
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
    fn distance_wraparound_minimal() {
        let t = t16();
        assert_eq!(t.distance(0, 15), 1);
        assert_eq!(t.distance(0, 8), 8); // exactly k/2
        assert_eq!(t.distance(0, 17), 2);
        assert_eq!(t.distance(3, 3), 0);
        // 413 and 0 on the 10-ary 3-cube: digits (3, 1, 4) against zero.
        assert_eq!(Torus::new(10, 3).unwrap().distance(413, 0), 3 + 1 + 4);
        // 7 = 1*4 + 3 on the 4-ary 2-cube: one hop Minus in dimension 0
        // (wrapping), one in dimension 1.
        assert_eq!(Torus::new(4, 2).unwrap().distance(0, 7), 2);
    }
}
