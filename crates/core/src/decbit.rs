use crate::{Action, Law, Period, SidebandDriven};
use checkpoint::{CheckpointError, Dec, Enc};
use sideband::{Sideband, SidebandConfig};
use wormsim::Network;

/// Configuration of the DEC-bit-style controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DecBitConfig {
    /// Side-band gather network parameters. The census this controller
    /// ships over it is the *congested-node count* (nodes with at least one
    /// full VC buffer — each node's congestion bit), not the full-buffer
    /// total.
    pub sideband: SidebandConfig,
    /// Averaging window, in gathers (the DEC scheme filters over the last
    /// busy+idle window; a fixed snapshot window is its side-band analogue).
    pub window_gathers: u32,
    /// Throttle while the windowed average congested-node fraction is at or
    /// above this value (0.5 — the scheme's "≥ 50% of bits set" rule).
    pub congested_fraction: f64,
    /// Staleness watchdog horizon, in gathers (0 disables it).
    pub watchdog_gathers: u32,
}

impl DecBitConfig {
    /// Defaults on the paper's network: a four-gather window and the
    /// original 50% congested-bit rule.
    #[must_use]
    pub fn paper() -> Self {
        DecBitConfig {
            sideband: SidebandConfig::paper(),
            window_gathers: 4,
            congested_fraction: 0.5,
            watchdog_gathers: 8,
        }
    }

    /// Number of nodes whose congestion bits the census aggregates.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        (self.sideband.radix.pow(self.sideband.dimensions as u32)) as u32
    }
}

/// **DEC-bit-style** binary-feedback control (Jain, Ramakrishnan & Chiu,
/// DEC-TR-506) adapted to the interconnect: every router sets a congestion
/// bit when any of its VC buffers is full, the side-band aggregates the
/// count of set bits, and sources throttle while the *average* over a
/// window of recent snapshots says at least half the nodes are congested.
///
/// Unlike the threshold schemes there is no estimate-vs-threshold gate and
/// no extrapolation: the decision is a low-pass filter over binary per-node
/// feedback, which is exactly what makes it a useful rival — it reacts to
/// congestion *extent* (how many nodes are hot), not *depth* (how full the
/// hot ones are).
pub type DecBitControl = SidebandDriven<DecBitLaw>;

/// The DEC-bit control law behind [`DecBitControl`].
#[derive(Debug, Clone, Default)]
pub struct DecBitLaw {
    /// Congested-node counts of the last `window_gathers` snapshots,
    /// oldest first.
    window: Vec<u32>,
    /// The filter's verdict on the current window: the gate. Moves only
    /// when the window does (a new snapshot, or a trip emptying it).
    congested: bool,
}

impl DecBitLaw {
    /// The window-filter decision: congested iff the average congested-node
    /// count over the window is at or above `congested_fraction` of all
    /// nodes. An empty window (start-up, post-outage) is never congested.
    #[must_use]
    pub fn window_congested(window: &[u32], congested_fraction: f64, node_count: f64) -> bool {
        if window.is_empty() {
            return false;
        }
        let avg = window.iter().map(|&c| f64::from(c)).sum::<f64>() / window.len() as f64;
        avg >= congested_fraction * node_count
    }
}

impl Law for DecBitLaw {
    type Config = DecBitConfig;
    const NAME: &'static str = "decbit";

    fn sideband_config(cfg: &DecBitConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn watchdog_gathers(cfg: &DecBitConfig) -> u32 {
        cfg.watchdog_gathers
    }

    /// Each node's congestion bit: any completely full VC buffer at that
    /// node. The census shipped over the side-band is the count of set bits.
    fn census(net: &Network) -> u32 {
        let planes = net.full_buffer_planes();
        planes.iter().filter(|&&plane| plane != 0).count() as u32
    }

    /// In this law's census units (congested nodes).
    fn threshold(&self, cfg: &DecBitConfig) -> f64 {
        cfg.congested_fraction * f64::from(cfg.node_count())
    }

    /// Slides the window over the period's one snapshot and takes a
    /// verdict: a cut when congested, a raise when clear. The threshold is
    /// fixed, so the last-known-good one never moves.
    fn on_period(&mut self, cfg: &DecBitConfig, p: &Period) -> Option<Action> {
        // One gather per period: the sum is one snapshot's `u32` census. A
        // larger sum (only a tampered checkpoint holds one) saturates.
        let census = u32::try_from(p.census_sum).unwrap_or(u32::MAX);
        self.window.push(census);
        let max = cfg.window_gathers.max(1) as usize;
        if self.window.len() > max {
            self.window.drain(..self.window.len() - max);
        }
        let nodes = f64::from(cfg.node_count());
        self.congested = Self::window_congested(&self.window, cfg.congested_fraction, nodes);
        Some(if self.congested {
            Action::Cut
        } else {
            Action::Raise
        })
    }

    /// Feedback bits stopped arriving: the window is fiction. Discard it;
    /// it refills from scratch after the re-arm (pre-outage bits are not
    /// comparable).
    fn on_trip(&mut self, _last_good: f64) {
        self.window.clear();
        self.congested = false;
    }

    fn gate(&self, _cfg: &DecBitConfig, _sideband: &Sideband, _now: u64) -> bool {
        self.congested
    }

    fn save(&self, enc: &mut Enc) {
        enc.u32(self.window.len() as u32);
        for &c in &self.window {
            enc.u32(c);
        }
    }

    /// The verdict is a function of the window, so it is re-taken.
    fn restore(&mut self, cfg: &DecBitConfig, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let len = dec.u32()?;
        if len > cfg.window_gathers.max(1) {
            return Err(CheckpointError::Corrupt("decbit window past its bound"));
        }
        self.window = (0..len).map(|_| dec.u32()).collect::<Result<_, _>>()?;
        let nodes = f64::from(cfg.node_count());
        self.congested = Self::window_congested(&self.window, cfg.congested_fraction, nodes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaffold::tests::{flood, small_sideband};
    use crate::Controller;

    /// The 50% congested-bit boundary is inclusive: an average of exactly
    /// half the nodes congested throttles; one bit-count less over the
    /// window does not.
    #[test]
    fn fifty_percent_boundary_is_inclusive() {
        let nodes = 64.0;
        // Window of 4 averaging exactly 32 (= 50% of 64): congested.
        assert!(DecBitLaw::window_congested(&[32, 32, 32, 32], 0.5, nodes));
        assert!(DecBitLaw::window_congested(&[0, 64, 0, 64], 0.5, nodes));
        // One congested-node observation fewer: average 31.75 < 32, clear.
        assert!(!DecBitLaw::window_congested(&[32, 32, 32, 31], 0.5, nodes));
        assert!(!DecBitLaw::window_congested(&[31, 33, 32, 31], 0.5, nodes));
    }

    #[test]
    fn empty_window_is_never_congested() {
        assert!(!DecBitLaw::window_congested(&[], 0.5, 64.0));
    }

    #[test]
    fn average_not_latest_decides() {
        // Latest snapshot fully congested, but the window average is still
        // below half: the filter must smooth the spike away.
        assert!(!DecBitLaw::window_congested(&[0, 0, 0, 64], 0.5, 64.0));
        // Three of four at the boundary with one clear snapshot: 48 ≥ 32.
        assert!(DecBitLaw::window_congested(&[64, 64, 64, 0], 0.5, 64.0));
    }

    #[test]
    fn throttles_a_flooded_network() {
        let mut ctl = DecBitControl::new(DecBitConfig {
            sideband: small_sideband(),
            ..DecBitConfig::paper()
        });
        flood(&mut ctl, 10_000);
        let c = Controller::counters(&ctl);
        assert!(c.decisions > 0);
        assert!(
            c.cuts > 0,
            "a sustained flood must congest a majority of nodes"
        );
    }
}
