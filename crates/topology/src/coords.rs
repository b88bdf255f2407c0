use crate::MAX_DIMS;

/// Per-dimension coordinates of a node, stored inline.
///
/// Dimension 0 is the least-significant coordinate of the node number.
///
/// # Examples
///
/// ```
/// use kncube::Torus;
/// let t = Torus::new(4, 2)?;
/// let c = t.coords(7); // 7 = 1*4 + 3
/// assert_eq!(c[0], 3);
/// assert_eq!(c[1], 1);
/// assert_eq!(c.len(), 2);
/// # Ok::<(), kncube::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coords {
    c: [u16; MAX_DIMS],
    n: u8,
}

impl Coords {
    pub(crate) fn new_zero(n: usize) -> Self {
        Coords {
            c: [0; MAX_DIMS],
            n: n as u8,
        }
    }

    pub(crate) fn set(&mut self, dim: usize, v: u16) {
        debug_assert!(dim < self.len());
        self.c[dim] = v;
    }

    /// Number of dimensions.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.n)
    }

    /// Whether there are zero dimensions (never true for a valid torus).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates over the coordinates, dimension 0 first.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.c[..self.len()].iter().copied()
    }

    /// The coordinates as a slice, dimension 0 first.
    #[must_use]
    pub fn as_slice(&self) -> &[u16] {
        &self.c[..self.len()]
    }
}

impl core::ops::Index<usize> for Coords {
    type Output = u16;

    fn index(&self, dim: usize) -> &u16 {
        &self.as_slice()[dim]
    }
}

impl core::fmt::Display for Coords {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use crate::Torus;

    #[test]
    fn coords_round_trip() {
        let c = Torus::new(10, 3).unwrap().coords(413);
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_slice(), &[3, 1, 4]);
        assert_eq!(c[2], 4);
    }

    #[test]
    fn display_is_tuple_like() {
        let c = Torus::new(10, 2).unwrap().coords(95);
        assert_eq!(c.to_string(), "(5,9)");
    }
}
