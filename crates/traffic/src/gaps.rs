//! Inter-arrival gaps: how many cycles lie between one packet of a node
//! and its next.
//!
//! Every [`Process`] reduces to a gap rule ([`Gaps`]), so the runner has one
//! arrival path: a due node draws its destination, then its next gap.
//! `Periodic` gaps are the interval, `Silent` never fires again, and
//! `Bernoulli { rate }` — one independent coin per cycle — is the same
//! process as geometric gaps, `P(gap = g) = rate·(1 − rate)^(g−1)`, drawn
//! once per *arrival* instead of once per cycle.
//!
//! # Why the sampler is exact
//!
//! The stream must be bit-identical on every platform, so no libm call may
//! sit on it (`ln`, `exp` and `pow` are not correctly rounded and differ
//! between implementations). [`Geometric`] inverts the survival function
//! `P(gap > k) = q^k`, `q = 1 − rate`, in integers only: `q` in 0.64 fixed
//! point (from the rate by one exact power-of-two scaling and a `ceil`), the
//! 64 powers `q^(2^i)` by repeated `u128` squaring, and for a uniform
//! 64-bit `U` the largest `k` whose `q^k·2⁶⁴` still exceeds `U`, found by
//! binary lifting over those powers. Every product rounds down, which makes
//! the result a pure function of `(rate, U)`; the rounding moves a gap's
//! probability by at most ~2⁻⁴⁸ of itself.

use crate::{Process, SimRng};

/// `2⁶⁴`, the fixed-point one.
const ONE: u128 = 1 << 64;

/// `a·b` for 0.64 fixed-point `b` (and `a` up to [`ONE`]), rounded down.
#[inline]
fn mul(a: u128, b: u64) -> u128 {
    (a * u128::from(b)) >> 64
}

/// Geometric gaps at a fixed positive rate, integer-only.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Geometric {
    /// `q^(2^i)` in 0.64 fixed point, `q = 1 − rate`. Nonincreasing in `i`.
    pow: [u64; 64],
    /// How many leading powers are nonzero: lifting can only ever take
    /// those, so it starts there.
    live: usize,
}

impl Geometric {
    /// The sampler for `rate`, or `None` when the rate is zero (no `q < 1`
    /// exists in 0.64 fixed point: the gap is infinite, see
    /// [`Gaps::Never`]). A positive rate below 2⁻⁶⁴ rounds *up* to it, as
    /// the per-cycle threshold of earlier versions rounded up to 2⁻⁵³. A
    /// validated rate lies in `[0, 1]`; an unvalidated one clamps to never
    /// (negative, NaN) or always (above 1).
    pub(crate) fn new(rate: f64) -> Option<Self> {
        // Exact: scaling by a power of two (even of a subnormal, scaled
        // *up*) and `ceil` do not round, and `as` saturates.
        let p = ((rate * ONE as f64).ceil() as u128).min(ONE);
        if p == 0 {
            return None;
        }
        let mut pow = [0u64; 64];
        let mut q = (ONE - p) as u64;
        for slot in &mut pow {
            *slot = q;
            q = mul(u128::from(q), q) as u64;
        }
        let live = pow.iter().take_while(|&&x| x != 0).count();
        Some(Geometric { pow, live })
    }

    /// The gap a uniform 64-bit draw `u` maps to: `k + 1` for the largest
    /// `k` with `q^k·2⁶⁴ > u`, saturating at `u64::MAX` (never).
    #[inline]
    pub(crate) fn gap_for(&self, u: u64) -> u64 {
        let (mut k, mut acc) = (0u64, ONE);
        for i in (0..self.live).rev() {
            let next = mul(acc, self.pow[i]);
            let take = next > u128::from(u);
            acc = if take { next } else { acc };
            k |= u64::from(take) << i;
        }
        k.saturating_add(1)
    }
}

/// The gap rule of one phase: what a [`Process`] means to the arrival path.
// One lives in each runner and is overwritten in place at a phase edge;
// boxing the power table would allocate there (netsim's zero-alloc gate
// steps across phase edges).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Gaps {
    /// No packet, ever: `Silent`, and `Bernoulli` at rate 0. Draws nothing.
    Never,
    /// `Periodic`: every `interval` cycles, from a random offset.
    Every(u64),
    /// `Bernoulli` at a positive rate: one `next_u64` per gap.
    Geometric(Geometric),
}

impl Gaps {
    pub(crate) fn of(process: Process) -> Self {
        match process {
            Process::Bernoulli { rate } => {
                Geometric::new(rate).map_or(Gaps::Never, Gaps::Geometric)
            }
            Process::Periodic { interval } => Gaps::Every(interval),
            Process::Silent => Gaps::Never,
        }
    }

    /// Cycles from a phase's first cycle to a node's first packet in it
    /// (`u64::MAX`: none). Periodic nodes get a random offset so the fleet
    /// does not generate in lockstep; a Bernoulli node's first coin is the
    /// phase's first cycle, so its offset is one less than a gap.
    #[inline]
    pub(crate) fn first(&self, rng: &mut SimRng) -> u64 {
        match self {
            Gaps::Never => u64::MAX,
            Gaps::Every(interval) => rng.random_range(0..*interval),
            Gaps::Geometric(g) => match g.gap_for(rng.next_u64()) {
                u64::MAX => u64::MAX,
                gap => gap - 1,
            },
        }
    }

    /// Cycles from a packet to the node's next one (`u64::MAX`: none).
    #[inline]
    pub(crate) fn next(&self, rng: &mut SimRng) -> u64 {
        match self {
            Gaps::Never => u64::MAX,
            Gaps::Every(interval) => *interval,
            Gaps::Geometric(g) => g.gap_for(rng.next_u64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `1 − 2⁻⁵³`, the largest rate below 1.
    const ALMOST_ONE: f64 = 1.0 - f64::EPSILON / 2.0;
    /// `2⁻⁵³`.
    const TINY: f64 = f64::EPSILON / 2.0;

    fn sampler(rate: f64) -> Geometric {
        Geometric::new(rate).expect("positive rate")
    }

    #[test]
    fn exact_cases() {
        // Rate 0 (and what clamps to it) never fires and draws nothing.
        for rate in [0.0, -0.5, f64::NAN] {
            assert_eq!(Gaps::of(Process::bernoulli(rate)), Gaps::Never);
        }
        let mut rng = SimRng::seed_from_u64(1);
        let before = rng.clone();
        assert_eq!(Gaps::Never.first(&mut rng), u64::MAX);
        assert_eq!(Gaps::Never.next(&mut rng), u64::MAX);
        assert_eq!(rng, before);

        // The smallest positive rate rounds up to 2⁻⁶⁴: one draw in 2⁶⁴
        // fires at once, and the far tail saturates to never.
        let g = sampler(f64::MIN_POSITIVE);
        assert_eq!(g.pow[0], u64::MAX);
        assert_eq!(g.live, 64);
        assert_eq!(g.gap_for(u64::MAX), 1);
        assert_eq!(g.gap_for(u64::MAX - 1), 2);
        assert_eq!(g.gap_for(0), u64::MAX);

        // 2⁻⁵³: q = 1 − 2⁻⁵³ exactly; gap 1 takes the top 2¹¹ draws.
        let g = sampler(TINY);
        assert_eq!(g.pow[0], u64::MAX - 2047);
        assert_eq!(g.gap_for(u64::MAX - 2047), 1);
        assert_eq!(g.gap_for(u64::MAX - 2048), 2);

        // 0.5: q^k = 2⁻ᵏ exactly, down to the last representable power.
        let g = sampler(0.5);
        assert_eq!(g.live, 7, "q^64 = 2⁻⁶⁴ is the last nonzero power");
        for k in 1..=64u32 {
            let boundary = (ONE >> k) as u64; // q^k·2⁶⁴
            assert_eq!(g.gap_for(boundary), u64::from(k), "U = q^{k}·2⁶⁴");
            assert_eq!(g.gap_for(boundary - 1), u64::from(k) + 1);
            if k < 64 {
                // (q^64·2⁶⁴ + 1 is q^63·2⁶⁴, a boundary of its own.)
                assert_eq!(g.gap_for(boundary + 1), u64::from(k));
            }
        }
        assert_eq!(g.gap_for(0), 65);
        assert_eq!(g.gap_for(u64::MAX), 1);

        // 1 − 2⁻⁵³: q = 2⁻⁵³, q² underflows — gaps are 1 or, 2¹¹ draws in
        // 2⁶⁴, 2.
        let g = sampler(ALMOST_ONE);
        assert_eq!((g.pow[0], g.live), (2048, 1));
        assert_eq!(g.gap_for(2048), 1);
        assert_eq!(g.gap_for(2047), 2);
        assert_eq!(g.gap_for(0), 2);

        // Rate 1 (and above): every cycle.
        for rate in [1.0, 7.0] {
            let g = sampler(rate);
            assert_eq!(g.live, 0);
            for u in [0, 1, u64::MAX / 2, u64::MAX] {
                assert_eq!(g.gap_for(u), 1);
            }
        }
    }

    /// `q^k·2⁶⁴` by plain repeated multiplication — no squaring, no
    /// lifting — with the number of roundings it made (each loses < 1).
    fn survival_by_repeated_multiplication(q: u64, k: u64) -> u128 {
        (0..k).fold(ONE, |s, _| mul(s, q))
    }

    #[test]
    fn survival_function_matches_u128_exponentiation() {
        for rate in [TINY, 1e-9, 0.001, 0.012, 0.1, 1.0 / 3.0, 0.5, 0.9] {
            let g = sampler(rate);
            assert_eq!(g.gap_for(u64::MAX), 1, "rate {rate}: S(0) = 1 > any U");
            for k in [1u64, 2, 3, 7, 64, 100, 257] {
                // The reference and the lifted product round differently;
                // both stay within a few units per multiplication of the
                // true q^k·2⁶⁴. Test a hair outside that band on each side
                // — skipped where neighbouring boundaries are closer than
                // the band (deep tails, and rates next to 0).
                let s = survival_by_repeated_multiplication(g.pow[0], k);
                let slack = 4 * u128::from(k) + 64;
                let next = survival_by_repeated_multiplication(g.pow[0], k + 1);
                if s - next <= 2 * slack || s <= slack {
                    continue;
                }
                // U ≥ S(k): the gap is at most k. U < S(k): at least k + 1.
                assert!(g.gap_for((s + slack) as u64) <= k, "rate {rate}, k {k}");
                assert_eq!(
                    g.gap_for((s - slack - 1) as u64),
                    k + 1,
                    "rate {rate}, k {k}"
                );
            }
            // U = 0 sits under every nonzero power: the gap is past the
            // last k whose survival is still representable.
            let deepest = g.gap_for(0);
            assert!(deepest > 1);
            if deepest < 100_000 {
                let s = survival_by_repeated_multiplication(g.pow[0], deepest + 64);
                assert_eq!(s, 0, "rate {rate}: survival left past gap_for(0)");
            }
        }
    }

    /// A fixed-seed goodness-of-fit of 10⁶ gaps against `p(1−p)^(k−1)`:
    /// Pearson's χ² over the gaps binned so every bin expects ≥ 50.
    #[test]
    fn gaps_fit_the_geometric_distribution() {
        const N: u64 = 1_000_000;
        for (rate, seed) in [(0.001, 5u64), (0.1, 6), (0.9, 7)] {
            let g = sampler(rate);
            let mut rng = SimRng::seed_from_u64(seed);
            // Bin edges: geometrically growing widths (1, 1, 2, 4, …) keep
            // the bin count small at low rates; the tail is one bin.
            let mut edges = vec![1u64];
            while (1.0 - rate).powf(*edges.last().unwrap() as f64 - 1.0) * N as f64 > 50.0 {
                let last = *edges.last().unwrap();
                edges.push(last + (last / 8).max(1));
            }
            let mut observed = vec![0u64; edges.len()];
            let mut sum = 0u64;
            for _ in 0..N {
                let gap = g.gap_for(rng.next_u64());
                sum += gap;
                let bin = edges.partition_point(|&e| e <= gap) - 1;
                observed[bin] += 1;
            }
            // P(lo ≤ gap < hi) = q^(lo−1) − q^(hi−1); the last bin is open.
            let q = 1.0 - rate;
            let mut chi2 = 0.0;
            for (i, &obs) in observed.iter().enumerate() {
                let lo = q.powf(edges[i] as f64 - 1.0);
                let hi = edges.get(i + 1).map_or(0.0, |&e| q.powf(e as f64 - 1.0));
                let expect = (lo - hi) * N as f64;
                chi2 += (obs as f64 - expect).powi(2) / expect;
            }
            // χ² with d = bins − 1 degrees of freedom has mean d and
            // variance 2d; 4σ above the mean is a ~10⁻⁴ false alarm.
            let d = (edges.len() - 1) as f64;
            assert!(
                chi2 < d + 4.0 * (2.0 * d).sqrt(),
                "rate {rate}: χ² = {chi2:.1} over {d} degrees of freedom"
            );
            // And the mean gap is 1/rate, within 4σ of its sampling error
            // (σ² = q/rate² per gap).
            let mean = sum as f64 / N as f64;
            let sigma = (q / (rate * rate) / N as f64).sqrt();
            assert!(
                (mean - 1.0 / rate).abs() < 4.0 * sigma,
                "rate {rate}: mean gap {mean}"
            );
        }
    }

    #[test]
    fn first_offset_is_one_less_than_a_gap() {
        let gaps = Gaps::of(Process::bernoulli(0.25));
        let (mut a, mut b) = (SimRng::seed_from_u64(3), SimRng::seed_from_u64(3));
        for _ in 0..1_000 {
            assert_eq!(gaps.first(&mut a) + 1, gaps.next(&mut b));
        }
        // Rate 1 fires on the phase's first cycle.
        let always = Gaps::of(Process::bernoulli(1.0));
        assert_eq!(always.first(&mut a), 0);
        assert_eq!(always.next(&mut a), 1);
        // Periodic: a uniform offset below the interval, then the interval.
        let every = Gaps::of(Process::periodic(10));
        assert!((0..1_000).all(|_| every.first(&mut a) < 10));
        assert_eq!(every.next(&mut a), 10);
    }
}
