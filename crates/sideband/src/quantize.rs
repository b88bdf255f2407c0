/// Models a narrow side-band: counts are truncated to [`Quantizer::BITS`]
/// bits by dropping low-order bits before transmission and scaled back up
/// at the receiver.
///
/// The companion technical report shows the paper's 25 side-band bits can be
/// squeezed into 9-bit channels "with very little performance degradation";
/// this type lets the ablation experiment (X4 in DESIGN.md) reproduce that
/// claim by quantizing both transmitted counts.
///
/// # Examples
///
/// ```
/// use sideband::Quantizer;
/// // A 12-bit count squeezed into 9 bits loses its low 3 bits.
/// assert_eq!(Quantizer.quantize(0xABC, 0xFFF), 0xAB8);
/// // Values whose range already fits are untouched.
/// assert_eq!(Quantizer.quantize(300, 511), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer;

impl Quantizer {
    /// The transmitted width in bits: the TR's 9-bit side-band channel.
    pub const BITS: u32 = 9;

    /// Quantizes `value` (whose maximum possible value is `max`) to the
    /// representable grid: the receiver sees `value` with the low
    /// `needed_bits(max) - BITS` bits cleared.
    #[must_use]
    pub fn quantize(self, value: u32, max: u32) -> u32 {
        let needed = crate::width::bits_for_max(max);
        if needed <= Self::BITS {
            return value;
        }
        let shift = needed - Self::BITS;
        (value >> shift) << shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_error_is_bounded() {
        let max = 3072u32; // 12 bits
        let step = 1u32 << (12 - 9);
        for v in [0u32, 1, 7, 8, 100, 1000, 3072] {
            let out = Quantizer.quantize(v, max);
            assert!(out <= v);
            assert!(v - out < step, "error too large for {v}: {out}");
        }
    }

    #[test]
    fn identity_when_wide_enough() {
        for v in [0u32, 1, 255, 511] {
            assert_eq!(Quantizer.quantize(v, 511), v);
        }
        // 512 needs 10 bits, so a 9-bit channel halves the resolution.
        assert_eq!(Quantizer.quantize(255, 512), 254);
    }
}
