use crate::{Action, Law, Period, SidebandDriven};
use checkpoint::{CheckpointError, Dec, Enc};
use sideband::{Sideband, SidebandConfig};
use wormsim::Network;

/// **DEC-bit-style** binary-feedback control (Jain, Ramakrishnan & Chiu,
/// DEC-TR-506) adapted to the interconnect: every router sets a congestion
/// bit when any of its VC buffers is full, the side-band aggregates the
/// count of set bits — the census this controller ships over the
/// side-band is the *congested-node count*, not the full-buffer total —
/// and sources throttle while the *average* over a window of recent
/// snapshots says at least half the nodes are congested.
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
    /// Congested-node counts of the last [`DecBitLaw::WINDOW_GATHERS`]
    /// snapshots, oldest first.
    window: Vec<u32>,
    /// The filter's verdict on the current window: the gate. Moves only
    /// when the window does (a new snapshot, or a trip emptying it).
    congested: bool,
}

impl DecBitLaw {
    /// Averaging window, in gathers (the DEC scheme filters over the last
    /// busy+idle window; a fixed snapshot window is its side-band
    /// analogue).
    pub const WINDOW_GATHERS: u32 = 4;
    /// Throttle while the windowed average congested-node fraction is at
    /// or above this value (the scheme's "≥ 50% of bits set" rule).
    const CONGESTED_FRACTION: f64 = 0.5;

    /// The window-filter decision: congested iff the average congested-node
    /// count over the window is at or above half of all `node_count`
    /// nodes. An empty window (start-up, post-outage) is never congested.
    #[must_use]
    pub fn window_congested(window: &[u32], node_count: f64) -> bool {
        if window.is_empty() {
            return false;
        }
        let avg = window.iter().map(|&c| f64::from(c)).sum::<f64>() / window.len() as f64;
        avg >= Self::CONGESTED_FRACTION * node_count
    }
}

impl Law for DecBitLaw {
    type Config = SidebandConfig;
    const NAME: &'static str = "decbit";
    const WATCHDOG_GATHERS: u32 = 8;

    fn sideband_config(cfg: &SidebandConfig) -> &SidebandConfig {
        cfg
    }

    /// Each node's congestion bit: any completely full VC buffer at that
    /// node. The census shipped over the side-band is the count of set bits.
    fn census(net: &Network) -> u32 {
        let planes = net.full_buffer_planes();
        planes.iter().filter(|&&plane| plane != 0).count() as u32
    }

    /// In this law's census units (congested nodes).
    fn threshold(&self, cfg: &SidebandConfig) -> f64 {
        Self::CONGESTED_FRACTION * cfg.node_count() as f64
    }

    /// Slides the window over the period's one snapshot and takes a
    /// verdict: a cut when congested, a raise when clear. The threshold is
    /// fixed, so the last-known-good one never moves.
    fn on_period(&mut self, cfg: &SidebandConfig, p: &Period) -> Option<Action> {
        // One gather per period: the sum is one snapshot's `u32` census. A
        // larger sum (only a tampered checkpoint holds one) saturates.
        let census = u32::try_from(p.census_sum).unwrap_or(u32::MAX);
        self.window.push(census);
        let max = Self::WINDOW_GATHERS as usize;
        if self.window.len() > max {
            self.window.drain(..self.window.len() - max);
        }
        self.congested = Self::window_congested(&self.window, cfg.node_count() as f64);
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

    fn gate(&self, _cfg: &SidebandConfig, _sideband: &Sideband, _now: u64) -> bool {
        self.congested
    }

    fn save(&self, enc: &mut Enc) {
        enc.u32(self.window.len() as u32);
        for &c in &self.window {
            enc.u32(c);
        }
    }

    /// The verdict is a function of the window, so it is re-taken.
    fn restore(&mut self, cfg: &SidebandConfig, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let len = dec.u32()?;
        if len > Self::WINDOW_GATHERS {
            return Err(CheckpointError::Corrupt("decbit window past its bound"));
        }
        self.window = (0..len).map(|_| dec.u32()).collect::<Result<_, _>>()?;
        self.congested = Self::window_congested(&self.window, cfg.node_count() as f64);
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
        assert!(DecBitLaw::window_congested(&[32, 32, 32, 32], nodes));
        assert!(DecBitLaw::window_congested(&[0, 64, 0, 64], nodes));
        // One congested-node observation fewer: average 31.75 < 32, clear.
        assert!(!DecBitLaw::window_congested(&[32, 32, 32, 31], nodes));
        assert!(!DecBitLaw::window_congested(&[31, 33, 32, 31], nodes));
    }

    #[test]
    fn empty_window_is_never_congested() {
        assert!(!DecBitLaw::window_congested(&[], 64.0));
    }

    #[test]
    fn average_not_latest_decides() {
        // Latest snapshot fully congested, but the window average is still
        // below half: the filter must smooth the spike away.
        assert!(!DecBitLaw::window_congested(&[0, 0, 0, 64], 64.0));
        // Three of four at the boundary with one clear snapshot: 48 ≥ 32.
        assert!(DecBitLaw::window_congested(&[64, 64, 64, 0], 64.0));
    }

    #[test]
    fn throttles_a_flooded_network() {
        let mut ctl = DecBitControl::new(small_sideband());
        flood(&mut ctl, 10_000);
        let c = Controller::counters(&ctl);
        assert!(c.decisions > 0);
        assert!(
            c.cuts > 0,
            "a sustained flood must congest a majority of nodes"
        );
    }
}
