//! Seeded property sweeps over the side-band model: quantizer error
//! bound/monotonicity and the gather-latency formula `g = ceil(k/2)·h·n`.
//!
//! Like `wormsim`'s flow properties, these are in-tree seeded case
//! generators rather than `proptest` strategies, so the workspace builds
//! with no network access (README, "Hermetic build").

use sideband::width::bits_for_max;
use sideband::{Quantizer, Sideband, SidebandConfig};

const CASES: u64 = 2_000;

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One random (bits, max, value) triple with `value <= max`.
fn quant_case(case: u64) -> (u32, u32, u32) {
    let mut rng = 0x0FA_17D0_u64 ^ case;
    let bits = 1 + (mix(&mut rng) % 32) as u32; // 1..=32
                                                // Mix tiny, paper-sized and huge ranges.
    let max = match mix(&mut rng) % 4 {
        0 => (mix(&mut rng) % 16) as u32,     // degenerate: 0..=15
        1 => 3072,                            // the paper's census range
        2 => (mix(&mut rng) % 10_000) as u32, // mid-size
        _ => (mix(&mut rng) % u64::from(u32::MAX)) as u32, // anywhere
    };
    let value = if max == 0 {
        0
    } else {
        (mix(&mut rng) % (u64::from(max) + 1)) as u32
    };
    (bits, max, value)
}

/// The receiver's error is strictly below one quantization step, and the
/// quantized count never exceeds the true one (truncation, not rounding —
/// the throttle must never see *more* congestion reported than exists).
#[test]
fn quantizer_error_is_bounded_by_one_step() {
    for case in 0..CASES {
        let (bits, max, value) = quant_case(case);
        let q = Quantizer::new(bits).quantize(value, max);
        assert!(q <= value, "case {case}: q({value})={q} grew");
        let needed = bits_for_max(max);
        if needed <= bits {
            assert_eq!(q, value, "case {case}: wide channel must be identity");
        } else {
            let step = 1u32 << (needed - bits);
            assert!(
                value - q < step,
                "case {case}: error {} >= step {step} (bits={bits}, max={max}, v={value})",
                value - q
            );
        }
    }
}

/// Quantization preserves order: a larger census never quantizes to a
/// smaller transmitted count (the controller's comparisons survive the
/// narrow side-band).
#[test]
fn quantizer_is_monotonic() {
    for case in 0..CASES {
        let (bits, max, v1) = quant_case(case);
        let mut rng = 0x0_0DE2 ^ case;
        let v2 = if max == 0 {
            0
        } else {
            (mix(&mut rng) % (u64::from(max) + 1)) as u32
        };
        let (lo, hi) = (v1.min(v2), v1.max(v2));
        let q = Quantizer::new(bits);
        assert!(
            q.quantize(lo, max) <= q.quantize(hi, max),
            "case {case}: quantize not monotonic (bits={bits}, max={max}, {lo} vs {hi})"
        );
    }
}

/// Quantization is idempotent: a value already on the grid stays put, so
/// re-quantizing at a relay hop loses nothing further.
#[test]
fn quantizer_is_idempotent() {
    for case in 0..CASES {
        let (bits, max, value) = quant_case(case);
        let q = Quantizer::new(bits);
        let once = q.quantize(value, max);
        assert_eq!(q.quantize(once, max), once, "case {case}");
    }
}

/// The gather latency is exactly `g = ceil(k/2) * h * n` for every
/// (radix, dimensions, hop-delay) combination — checked against the
/// formula and, behaviorally, against when the first snapshot becomes
/// visible (taken at `g`, in flight for `g`, visible at `2g`).
#[test]
fn gather_latency_is_half_radix_times_hops_times_dims() {
    // (k, n, h): the paper's network, the small preset, odd radix,
    // single-dimension rings and a slow side-band.
    let combos: &[(usize, usize, u64)] = &[
        (16, 2, 2), // paper: g = 32
        (8, 2, 2),  // small preset: g = 16
        (8, 3, 1),
        (5, 2, 2), // odd radix rounds half the ring up
        (16, 2, 4),
        (4, 3, 3),
        (2, 1, 1),
    ];
    for &(k, n, h) in combos {
        let cfg = SidebandConfig {
            radix: k,
            dimensions: n,
            hop_delay: h,
            ..SidebandConfig::paper()
        };
        let g = (k as u64).div_ceil(2) * h * n as u64;
        assert_eq!(cfg.gather_period(), g, "formula for k={k} n={n} h={h}");

        // Behavioral check: nothing is visible through cycle 2g-1; the
        // snapshot taken at g arrives exactly at 2g. The census must stay
        // within the network's physical ceiling or receivers reject it.
        let mut sb = Sideband::new(cfg);
        let census = sb.max_full_buffers().min(42);
        for now in 0..2 * g {
            sb.on_cycle(now, census, 0);
            assert!(
                sb.latest().is_none(),
                "k={k} n={n} h={h}: snapshot visible early at cycle {now}"
            );
        }
        sb.on_cycle(2 * g, census, 0);
        let s = sb.latest().unwrap_or_else(|| {
            panic!(
                "k={k} n={n} h={h}: first snapshot must be visible at 2g={}",
                2 * g
            )
        });
        assert_eq!(s.taken_at, g);
        assert_eq!(s.available_at, 2 * g);
        assert_eq!(s.full_buffers, census);
    }
}

/// Same latency law under random (k, n, h) draws: the snapshot stream is
/// periodic with period `g` and every aggregate is visible exactly `g`
/// cycles after it was taken.
#[test]
fn gather_stream_is_periodic_for_random_shapes() {
    let cases = CASES / 200; // each case drives a few thousand cycles
    for case in 0..cases.max(4) {
        let mut rng = 0x6A7_4E12 ^ case;
        let k = 2 + (mix(&mut rng) % 15) as usize; // 2..=16
        let n = 1 + (mix(&mut rng) % 3) as usize; // 1..=3
        let h = 1 + mix(&mut rng) % 4; // 1..=4
        let cfg = SidebandConfig {
            radix: k,
            dimensions: n,
            hop_delay: h,
            ..SidebandConfig::paper()
        };
        let g = cfg.gather_period();
        assert_eq!(g, (k as u64).div_ceil(2) * h * n as u64);

        let mut sb = Sideband::new(cfg);
        // Census encodes the cycle (mod the physical ceiling, or receivers
        // reject it) so snapshots are distinguishable.
        let m = u64::from(sb.max_full_buffers()).min(97) + 1;
        for now in 0..=6 * g {
            sb.on_cycle(now, (now % m) as u32, 2 * now);
            if let Some(s) = sb.latest() {
                // Visible aggregate is the newest one due: taken at the
                // last boundary at least g cycles ago.
                assert_eq!(s.available_at, s.taken_at + g, "case {case}");
                assert_eq!(s.taken_at % g, 0, "case {case}");
                assert_eq!(
                    s.taken_at,
                    (now / g).saturating_sub(1) * g,
                    "case {case} cycle {now}"
                );
                assert_eq!(s.full_buffers, (s.taken_at % m) as u32, "case {case}");
            } else {
                assert!(now < 2 * g, "case {case}: no snapshot by cycle {now}");
            }
        }
    }
}
