//! Deterministic fault injection for the stcc reproduction.
//!
//! The paper assumes a perfect side-band: every node receives an exact,
//! `g`-cycle-delayed congestion snapshot every `g` cycles, and the tuner
//! trusts it unconditionally. Real interconnects lose, delay and corrupt
//! notifications, and links and nodes fail outright. A [`FaultPlan`]
//! describes such an imperfect world:
//!
//! * **Side-band snapshot loss** — a gather never arrives at the receivers.
//! * **Side-band snapshot delay** — a gather arrives up to `max_delay`
//!   cycles late (possibly out of order with later gathers).
//! * **Side-band corruption** — bit flips in the *transmitted* full-buffer
//!   and delivered-flit counts, composing with the `sideband` crate's
//!   narrow-side-band `Quantizer` model: flips land in the bits that are
//!   actually on the wire. (Plain code formatting, not an intra-doc link:
//!   `sideband` depends on this crate, so the link target cannot be named
//!   from here without a dependency cycle.)
//! * **Link stalls** — a router output port is dead for `[start, end)`
//!   cycles; nothing traverses it.
//! * **Node hotspots** — a node's delivery (ejection) channel is stalled
//!   for a window, modeling a hot or failed consumer (the classic
//!   tree-saturation trigger of Pfister & Norton).
//!
//! # Determinism
//!
//! Every per-event decision is a pure function of `(seed, event
//! coordinates)` via counter-based SplitMix64 hashing — no generator state,
//! no call-order dependence. Identical `(SimConfig, FaultPlan)` therefore
//! produce identical simulations, fault counters included, which the
//! integration tests assert.
//!
//! # Examples
//!
//! ```
//! use faults::{FaultPlan, SidebandFaults, SnapshotFate};
//!
//! let mut plan = FaultPlan::none(7);
//! assert!(plan.is_quiet());
//! plan.sideband = SidebandFaults { loss_rate: 1.0, ..SidebandFaults::none() };
//! // A total blackout loses every snapshot, deterministically.
//! assert_eq!(plan.snapshot_fate(32), SnapshotFate::Lost);
//! assert_eq!(plan.snapshot_fate(64), SnapshotFate::Lost);
//! ```

#![forbid(unsafe_code)]

use core::fmt;

/// Stateless SplitMix64 finalizer over a counter: the source of every fault
/// decision. Distinct inputs give decorrelated 64-bit outputs.
#[inline]
#[must_use]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes `(seed, salt, ctr)` to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit(seed: u64, salt: u64, ctr: u64) -> f64 {
    let h = mix64(seed ^ mix64(salt ^ mix64(ctr)));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Hashes `(seed, salt, ctr)` to a uniform integer in `[0, span)`.
#[inline]
fn uniform(seed: u64, salt: u64, ctr: u64, span: u64) -> u64 {
    debug_assert!(span > 0);
    let h = mix64(seed ^ mix64(salt ^ mix64(ctr)));
    ((u128::from(h) * u128::from(span)) >> 64) as u64
}

const SALT_LOSS: u64 = 0xF1;
const SALT_DELAY: u64 = 0xF2;
const SALT_DELAY_AMT: u64 = 0xF3;
const SALT_CORRUPT: u64 = 0xF4;
const SALT_BITPOS: u64 = 0xF5;

/// Which transmitted side-band count a corruption decision applies to.
/// Separate channels corrupt independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SidebandField {
    /// The network-wide full-buffer count.
    FullBuffers,
    /// The per-window delivered-flit count.
    DeliveredFlits,
}

impl SidebandField {
    fn salt(self) -> u64 {
        match self {
            SidebandField::FullBuffers => 0x10,
            SidebandField::DeliveredFlits => 0x20,
        }
    }
}

/// What happens to one side-band gather in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFate {
    /// The aggregate never reaches the receivers.
    Lost,
    /// The aggregate arrives the given number of cycles late.
    Delayed(u64),
    /// Normal, on-time arrival.
    OnTime,
}

/// Stochastic fault rates applied to every side-band gather.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SidebandFaults {
    /// Probability a gather is lost entirely, in `[0, 1]`.
    pub loss_rate: f64,
    /// Probability a (non-lost) gather is delayed, in `[0, 1]`.
    pub delay_rate: f64,
    /// Maximum extra delay in cycles; the actual delay is uniform in
    /// `[1, max_delay]`.
    pub max_delay: u64,
    /// Probability each transmitted count suffers bit flips, in `[0, 1]`.
    pub corrupt_rate: f64,
    /// Number of bit positions flipped per corruption event (each drawn
    /// uniformly over the transmitted width; draws may coincide).
    pub corrupt_bits: u32,
}

impl SidebandFaults {
    /// No side-band faults.
    #[must_use]
    pub fn none() -> Self {
        SidebandFaults {
            loss_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            corrupt_rate: 0.0,
            corrupt_bits: 1,
        }
    }

    /// Whether this configuration can never produce a fault.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.loss_rate <= 0.0 && self.delay_rate <= 0.0 && self.corrupt_rate <= 0.0
    }
}

impl Default for SidebandFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// A dead router output port: nothing traverses `(node, port)` during
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// Router whose output port stalls.
    pub node: usize,
    /// Output port index (`2*dim` for +, `2*dim + 1` for −).
    pub port: usize,
    /// First stalled cycle.
    pub start: u64,
    /// First cycle after the stall.
    pub end: u64,
}

/// A stalled delivery (ejection) channel: `node` consumes nothing during
/// `[start, end)`, backing traffic up into the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotFault {
    /// The hot (non-consuming) node.
    pub node: usize,
    /// First stalled cycle.
    pub start: u64,
    /// First cycle after the stall.
    pub end: u64,
}

/// A complete, seeded description of every fault a run will experience.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all stochastic fault decisions (independent of the traffic
    /// seed so fault scenarios compose with any workload).
    pub seed: u64,
    /// Side-band gather faults.
    pub sideband: SidebandFaults,
    /// Scheduled data-network link stalls.
    pub links: Vec<LinkFault>,
    /// Scheduled node hotspots (stalled ejection channels).
    pub hotspots: Vec<HotspotFault>,
}

/// Error returned by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A rate field is outside `[0, 1]` (or NaN).
    BadRate {
        /// The offending field name.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `delay_rate > 0` requires `max_delay > 0`.
    ZeroMaxDelay,
    /// `corrupt_rate > 0` requires `corrupt_bits > 0`.
    ZeroCorruptBits,
    /// A scheduled fault has an empty `[start, end)` window.
    EmptyWindow {
        /// The rejected window start.
        start: u64,
        /// The rejected window end.
        end: u64,
    },
    /// A scheduled fault names a node outside the network.
    NodeOutOfRange {
        /// The rejected node.
        node: usize,
        /// The network's node count.
        nodes: usize,
    },
    /// A link fault names a port outside the router.
    PortOutOfRange {
        /// The rejected port.
        port: usize,
        /// Network ports per router (`2n`).
        ports: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadRate { field, value } => {
                write!(f, "{field} must be in [0, 1], got {value}")
            }
            FaultPlanError::ZeroMaxDelay => f.write_str("delay_rate > 0 requires max_delay > 0"),
            FaultPlanError::ZeroCorruptBits => {
                f.write_str("corrupt_rate > 0 requires corrupt_bits > 0")
            }
            FaultPlanError::EmptyWindow { start, end } => {
                write!(f, "fault window [{start}, {end}) is empty")
            }
            FaultPlanError::NodeOutOfRange { node, nodes } => {
                write!(f, "fault node {node} out of range (network has {nodes})")
            }
            FaultPlanError::PortOutOfRange { port, ports } => {
                write!(f, "fault port {port} out of range (routers have {ports})")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// The quiet plan: no faults of any kind.
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            sideband: SidebandFaults::none(),
            links: Vec::new(),
            hotspots: Vec::new(),
        }
    }

    /// A side-band-only plan (the resilience experiment's sweep axis).
    #[must_use]
    pub fn sideband_only(seed: u64, sideband: SidebandFaults) -> Self {
        FaultPlan {
            seed,
            sideband,
            links: Vec::new(),
            hotspots: Vec::new(),
        }
    }

    /// Whether this plan can never produce any fault (the simulator skips
    /// all fault hooks for quiet plans so the no-faults code path stays
    /// bit-identical).
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.sideband.is_quiet() && self.net_is_quiet()
    }

    /// Whether the data-network portion (links, hotspots) is fault-free.
    #[must_use]
    pub fn net_is_quiet(&self) -> bool {
        self.links.is_empty() && self.hotspots.is_empty()
    }

    /// Validates the plan against a network shape.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, nodes: usize, ports: usize) -> Result<(), FaultPlanError> {
        for (field, value) in [
            ("loss_rate", self.sideband.loss_rate),
            ("delay_rate", self.sideband.delay_rate),
            ("corrupt_rate", self.sideband.corrupt_rate),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultPlanError::BadRate { field, value });
            }
        }
        if self.sideband.delay_rate > 0.0 && self.sideband.max_delay == 0 {
            return Err(FaultPlanError::ZeroMaxDelay);
        }
        if self.sideband.corrupt_rate > 0.0 && self.sideband.corrupt_bits == 0 {
            return Err(FaultPlanError::ZeroCorruptBits);
        }
        for l in &self.links {
            if l.start >= l.end {
                return Err(FaultPlanError::EmptyWindow {
                    start: l.start,
                    end: l.end,
                });
            }
            if l.node >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    node: l.node,
                    nodes,
                });
            }
            if l.port >= ports {
                return Err(FaultPlanError::PortOutOfRange {
                    port: l.port,
                    ports,
                });
            }
        }
        for h in &self.hotspots {
            if h.start >= h.end {
                return Err(FaultPlanError::EmptyWindow {
                    start: h.start,
                    end: h.end,
                });
            }
            if h.node >= nodes {
                return Err(FaultPlanError::NodeOutOfRange {
                    node: h.node,
                    nodes,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Side-band decisions (pure functions of the gather's taken_at cycle)
    // ------------------------------------------------------------------

    /// The transit fate of the gather taken at cycle `taken_at`.
    #[must_use]
    pub fn snapshot_fate(&self, taken_at: u64) -> SnapshotFate {
        let sb = &self.sideband;
        if sb.loss_rate > 0.0 && unit(self.seed, SALT_LOSS, taken_at) < sb.loss_rate {
            return SnapshotFate::Lost;
        }
        if sb.delay_rate > 0.0
            && sb.max_delay > 0
            && unit(self.seed, SALT_DELAY, taken_at) < sb.delay_rate
        {
            let extra = 1 + uniform(self.seed, SALT_DELAY_AMT, taken_at, sb.max_delay);
            return SnapshotFate::Delayed(extra);
        }
        SnapshotFate::OnTime
    }

    /// Applies transit corruption to one transmitted count.
    ///
    /// `code` is the value actually on the wire (already quantized when a
    /// narrow side-band is modeled) and `width_bits` its transmitted width;
    /// flips land only in transmitted bit positions, composing with the
    /// quantizer exactly as physical upsets would.
    #[must_use]
    pub fn corrupt_count(
        &self,
        taken_at: u64,
        field: SidebandField,
        code: u32,
        width_bits: u32,
    ) -> u32 {
        let sb = &self.sideband;
        if sb.corrupt_rate <= 0.0 || width_bits == 0 {
            return code;
        }
        let salt = SALT_CORRUPT ^ field.salt();
        if unit(self.seed, salt, taken_at) >= sb.corrupt_rate {
            return code;
        }
        let mut corrupted = code;
        for i in 0..sb.corrupt_bits {
            let pos = uniform(
                self.seed,
                SALT_BITPOS ^ field.salt() ^ u64::from(i),
                taken_at,
                u64::from(width_bits),
            );
            corrupted ^= 1 << pos;
        }
        corrupted
    }

    // ------------------------------------------------------------------
    // Data-network decisions (scheduled windows; checked on the hot path
    // only when the plan is non-quiet)
    // ------------------------------------------------------------------

    /// Whether output port `port` of router `node` is stalled at `now`.
    #[must_use]
    pub fn link_down(&self, node: usize, port: usize, now: u64) -> bool {
        self.links
            .iter()
            .any(|l| l.node == node && l.port == port && (l.start..l.end).contains(&now))
    }

    /// Whether `node`'s delivery channel is stalled at `now`.
    #[must_use]
    pub fn delivery_down(&self, node: usize, now: u64) -> bool {
        self.hotspots
            .iter()
            .any(|h| h.node == node && (h.start..h.end).contains(&now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(rate: f64) -> FaultPlan {
        FaultPlan::sideband_only(
            42,
            SidebandFaults {
                loss_rate: rate,
                ..SidebandFaults::none()
            },
        )
    }

    #[test]
    fn quiet_plan_never_faults() {
        let plan = FaultPlan::none(123);
        assert!(plan.is_quiet());
        for t in (32..3200).step_by(32) {
            assert_eq!(plan.snapshot_fate(t), SnapshotFate::OnTime);
            assert_eq!(
                plan.corrupt_count(t, SidebandField::FullBuffers, 77, 12),
                77
            );
        }
        assert!(!plan.link_down(0, 0, 10));
        assert!(!plan.delivery_down(0, 10));
    }

    #[test]
    fn total_blackout_loses_everything() {
        let plan = lossy(1.0);
        for t in (32..32_000).step_by(32) {
            assert_eq!(plan.snapshot_fate(t), SnapshotFate::Lost);
        }
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let plan = lossy(0.3);
        let n = 10_000u64;
        let lost = (1..=n)
            .filter(|t| plan.snapshot_fate(t * 32) == SnapshotFate::Lost)
            .count() as f64;
        let frac = lost / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "observed loss rate {frac}");
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_cycle() {
        let a = FaultPlan::sideband_only(
            9,
            SidebandFaults {
                loss_rate: 0.2,
                delay_rate: 0.5,
                max_delay: 64,
                corrupt_rate: 0.4,
                corrupt_bits: 2,
            },
        );
        let b = a.clone();
        // Query in different orders: identical outcomes.
        let fwd: Vec<_> = (1..100).map(|t| a.snapshot_fate(t * 32)).collect();
        let rev: Vec<_> = (1..100).rev().map(|t| b.snapshot_fate(t * 32)).collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
        assert_eq!(
            a.corrupt_count(64, SidebandField::DeliveredFlits, 500, 13),
            b.corrupt_count(64, SidebandField::DeliveredFlits, 500, 13)
        );
    }

    #[test]
    fn different_seeds_make_different_weather() {
        let a = FaultPlan::sideband_only(
            1,
            SidebandFaults {
                loss_rate: 0.5,
                ..SidebandFaults::none()
            },
        );
        let b = FaultPlan::sideband_only(
            2,
            SidebandFaults {
                loss_rate: 0.5,
                ..SidebandFaults::none()
            },
        );
        let fates_a: Vec<_> = (1..200).map(|t| a.snapshot_fate(t * 32)).collect();
        let fates_b: Vec<_> = (1..200).map(|t| b.snapshot_fate(t * 32)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn delays_are_bounded_and_nonzero() {
        let plan = FaultPlan::sideband_only(
            5,
            SidebandFaults {
                delay_rate: 1.0,
                max_delay: 16,
                ..SidebandFaults::none()
            },
        );
        for t in (32..6400).step_by(32) {
            match plan.snapshot_fate(t) {
                SnapshotFate::Delayed(d) => assert!((1..=16).contains(&d), "delay {d}"),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_flips_only_transmitted_bits() {
        let plan = FaultPlan::sideband_only(
            7,
            SidebandFaults {
                corrupt_rate: 1.0,
                corrupt_bits: 1,
                ..SidebandFaults::none()
            },
        );
        for t in (32..3200).step_by(32) {
            let out = plan.corrupt_count(t, SidebandField::FullBuffers, 0, 9);
            assert!(out < (1 << 9), "flip escaped the 9-bit field: {out:#x}");
            assert_eq!(out.count_ones(), 1, "exactly one flip from zero");
        }
    }

    #[test]
    fn fields_corrupt_independently() {
        let plan = FaultPlan::sideband_only(
            11,
            SidebandFaults {
                corrupt_rate: 0.5,
                corrupt_bits: 1,
                ..SidebandFaults::none()
            },
        );
        let diverged = (1..400u64).any(|t| {
            let full = plan.corrupt_count(t * 32, SidebandField::FullBuffers, 0, 12);
            let tput = plan.corrupt_count(t * 32, SidebandField::DeliveredFlits, 0, 12);
            (full == 0) != (tput == 0)
        });
        assert!(diverged, "the two channels must not corrupt in lockstep");
    }

    #[test]
    fn scheduled_windows_are_half_open() {
        let plan = FaultPlan {
            seed: 0,
            sideband: SidebandFaults::none(),
            links: vec![LinkFault {
                node: 3,
                port: 1,
                start: 100,
                end: 200,
            }],
            hotspots: vec![HotspotFault {
                node: 7,
                start: 50,
                end: 60,
            }],
        };
        assert!(!plan.link_down(3, 1, 99));
        assert!(plan.link_down(3, 1, 100));
        assert!(plan.link_down(3, 1, 199));
        assert!(!plan.link_down(3, 1, 200));
        assert!(!plan.link_down(3, 0, 150));
        assert!(!plan.link_down(2, 1, 150));
        assert!(plan.delivery_down(7, 50));
        assert!(!plan.delivery_down(7, 60));
        assert!(!plan.delivery_down(6, 55));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let nodes = 64;
        let ports = 4;
        assert!(FaultPlan::none(0).validate(nodes, ports).is_ok());
        let bad_rate = FaultPlan::sideband_only(
            0,
            SidebandFaults {
                loss_rate: 1.5,
                ..SidebandFaults::none()
            },
        );
        assert!(matches!(
            bad_rate.validate(nodes, ports),
            Err(FaultPlanError::BadRate {
                field: "loss_rate",
                ..
            })
        ));
        let nan_rate = FaultPlan::sideband_only(
            0,
            SidebandFaults {
                corrupt_rate: f64::NAN,
                ..SidebandFaults::none()
            },
        );
        assert!(nan_rate.validate(nodes, ports).is_err());
        let no_delay = FaultPlan::sideband_only(
            0,
            SidebandFaults {
                delay_rate: 0.5,
                max_delay: 0,
                ..SidebandFaults::none()
            },
        );
        assert!(matches!(
            no_delay.validate(nodes, ports),
            Err(FaultPlanError::ZeroMaxDelay)
        ));
        let no_bits = FaultPlan::sideband_only(
            0,
            SidebandFaults {
                corrupt_rate: 0.5,
                corrupt_bits: 0,
                ..SidebandFaults::none()
            },
        );
        assert!(matches!(
            no_bits.validate(nodes, ports),
            Err(FaultPlanError::ZeroCorruptBits)
        ));
        let mut plan = FaultPlan::none(0);
        plan.links.push(LinkFault {
            node: 99,
            port: 0,
            start: 0,
            end: 1,
        });
        assert!(matches!(
            plan.validate(nodes, ports),
            Err(FaultPlanError::NodeOutOfRange { node: 99, .. })
        ));
        plan.links[0] = LinkFault {
            node: 0,
            port: 9,
            start: 0,
            end: 1,
        };
        assert!(matches!(
            plan.validate(nodes, ports),
            Err(FaultPlanError::PortOutOfRange { port: 9, .. })
        ));
        plan.links[0] = LinkFault {
            node: 0,
            port: 0,
            start: 5,
            end: 5,
        };
        assert!(matches!(
            plan.validate(nodes, ports),
            Err(FaultPlanError::EmptyWindow { .. })
        ));
        plan.links.clear();
        plan.hotspots.push(HotspotFault {
            node: 64,
            start: 0,
            end: 1,
        });
        assert!(matches!(
            plan.validate(nodes, ports),
            Err(FaultPlanError::NodeOutOfRange { node: 64, .. })
        ));
    }
}
