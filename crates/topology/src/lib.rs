//! The shape of a k-ary n-cube (torus): its radix, its dimension count,
//! its node count and numbering, its channels per node and the minimal hop
//! distance between two nodes. Routes are not computed here: the network
//! crate (`wormsim`) fills its route tables from the ring rule and every
//! routing decision, useful channel and drain path reads those tables.
//!
//! The paper evaluates a 16-ary 2-cube (256 nodes); everything here is
//! generic over radix `k >= 2` and dimension count `1 <= n <= MAX_DIMS`.
//!
//! # Examples
//!
//! ```
//! use kncube::Torus;
//!
//! let t = Torus::new(16, 2)?;
//! assert_eq!(t.node_count(), 256);
//! // Node 0 and node 17 differ by one hop in each dimension.
//! assert_eq!(t.distance(0, 17), 2);
//! // Wraparound: node 0 to node 15 along dimension 0 is one hop Minus.
//! assert_eq!(t.distance(0, 15), 1);
//! # Ok::<(), kncube::TopologyError>(())
//! ```

#![forbid(unsafe_code)]

mod error;
mod torus;

pub use error::TopologyError;
pub use torus::Torus;

/// Index of a node in the network, in `0..Torus::node_count()`.
///
/// Node `id` has the base-`k` digits `(..., id / k % k, id % k)`: its
/// coordinate in dimension `d` is `id / k^d % k`, so the least-significant
/// digit is dimension 0, matching the paper's "lowest dimension" used
/// first by the side-band gather.
pub type NodeId = usize;

/// A direction along one torus dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Towards increasing coordinate (with wraparound).
    Plus,
    /// Towards decreasing coordinate (with wraparound).
    Minus,
}

impl Dir {
    /// The opposite direction.
    ///
    /// ```
    /// use kncube::Dir;
    /// assert_eq!(Dir::Plus.opposite(), Dir::Minus);
    /// ```
    #[must_use]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::Plus => Dir::Minus,
            Dir::Minus => Dir::Plus,
        }
    }

    /// Both directions, in a fixed order (useful for iteration).
    pub const BOTH: [Dir; 2] = [Dir::Plus, Dir::Minus];
}

impl core::fmt::Display for Dir {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Dir::Plus => f.write_str("+"),
            Dir::Minus => f.write_str("-"),
        }
    }
}

/// Maximum supported number of torus dimensions.
///
/// Eight dimensions is far beyond anything the paper (n = 2) or plausible
/// extensions (n = 3, 4) need, while a router's `2n` ports fit a 16-bit
/// mask.
pub const MAX_DIMS: usize = 8;
