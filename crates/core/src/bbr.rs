use crate::{Action, Law, Period, SidebandDriven};
use checkpoint::{CheckpointError, Dec, Enc};
use sideband::SidebandConfig;

/// Configuration of the BBR-flavored delivery-rate controller.
#[derive(Debug, Clone, PartialEq)]
pub struct BbrConfig {
    /// Side-band gather network parameters. Each snapshot's
    /// `delivered_flits` is one delivery-rate sample (flits per gather
    /// window).
    pub sideband: SidebandConfig,
    /// Length of the max-delivery-rate filter, in gathers (samples older
    /// than this fall out of the max).
    pub filter_gathers: u32,
    /// Length of the gain cycle, in gathers: each cycle starts with one
    /// probe sample (threshold raised above the operating point), then one
    /// drain sample (lowered below it), then cruising at gain 1.
    pub cycle_gathers: u32,
    /// Threshold gain during the probe phase (1.25, BBR's probe_bw up
    /// gain).
    pub probe_gain: f64,
    /// Threshold gain during the drain phase (0.75, mirroring the probe).
    pub drain_gain: f64,
    /// Threshold floor as a fraction of all VC buffers (1%) — keeps the
    /// gate from pinning shut before the filter has a real operating point.
    pub initial_threshold_frac: f64,
    /// Staleness watchdog horizon, in gathers (0 disables it).
    pub watchdog_gathers: u32,
}

impl BbrConfig {
    /// Defaults on the paper's network: an eight-gather filter and gain
    /// cycle with BBR's 1.25/0.75 probe/drain gains.
    #[must_use]
    pub fn paper() -> Self {
        BbrConfig {
            sideband: SidebandConfig::paper(),
            filter_gathers: 8,
            cycle_gathers: 8,
            probe_gain: 1.25,
            drain_gain: 0.75,
            initial_threshold_frac: 0.01,
            watchdog_gathers: 8,
        }
    }
}

/// The threshold gain for delivery-rate sample number `seq` (0-based):
/// sample 0 of each gain cycle probes, sample 1 drains, the rest cruise.
///
/// ```
/// use stcc::{bbr_phase_gain, BbrConfig};
/// let c = BbrConfig::paper();
/// assert_eq!(bbr_phase_gain(0, &c), 1.25);
/// assert_eq!(bbr_phase_gain(1, &c), 0.75);
/// assert_eq!(bbr_phase_gain(2, &c), 1.0);
/// assert_eq!(bbr_phase_gain(8, &c), 1.25);
/// ```
#[must_use]
pub fn bbr_phase_gain(seq: u64, cfg: &BbrConfig) -> f64 {
    match bbr_phase(seq, cfg) {
        Action::Raise => cfg.probe_gain,
        Action::Cut => cfg.drain_gain,
        _ => 1.0,
    }
}

/// Sample `seq`'s phase as the action it takes: a probe raises, a drain
/// cuts, cruising (and a zero-length cycle) holds.
fn bbr_phase(seq: u64, cfg: &BbrConfig) -> Action {
    match seq.checked_rem(u64::from(cfg.cycle_gathers)) {
        Some(0) => Action::Raise,
        Some(1) => Action::Cut,
        _ => Action::Hold,
    }
}

/// One delivery-rate sample in the max filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RateSample {
    /// Sample sequence number (snapshots observed before it).
    seq: u64,
    /// Flits delivered network-wide in the sample's gather window.
    rate: u64,
    /// Full-buffer census at the sample's snapshot — the operating point
    /// that produced this rate.
    census: u64,
}

/// **BBR-flavored** delivery-rate control (Cardwell et al., "BBR:
/// Congestion-Based Congestion Control") adapted to the interconnect: a
/// windowed-max filter over the side-band's per-gather delivered-flit
/// counts finds the highest delivery rate seen recently *and the
/// full-buffer census that produced it*, then gates injection at that
/// operating point instead of hill-climbing a threshold.
///
/// The periodic gain cycle is BBR's probe/drain schedule: one sample per
/// cycle the threshold is raised above the operating point (probing whether
/// more in-flight buffers buy more delivery rate — if they do, the max
/// filter adopts the new operating point), then lowered below it to drain
/// the queues the probe built.
pub type BbrControl = SidebandDriven<BbrLaw>;

/// The BBR-flavored control law behind [`BbrControl`].
#[derive(Debug, Clone, Default)]
pub struct BbrLaw {
    total_buffers: f64,
    floor: f64,
    /// Delivery-rate samples observed (drives the gain cycle).
    seq: u64,
    /// Windowed-max filter: samples in rate-decreasing order, front = max.
    filter: Vec<RateSample>,
    threshold: f64,
}

impl BbrLaw {
    /// Folds one delivery-rate sample into the max filter and recomputes
    /// the threshold from the filtered operating point and the phase gain.
    fn sample(&mut self, cfg: &BbrConfig, rate: u64, census: u64) -> Action {
        let seq = self.seq;
        self.seq += 1;
        // Expire samples older than the filter window, then maintain the
        // rate-decreasing deque invariant (ties go to the newer sample, so
        // the operating point tracks current conditions).
        let horizon = u64::from(cfg.filter_gathers.max(1));
        self.filter.retain(|s| s.seq + horizon > seq);
        while self.filter.last().is_some_and(|s| s.rate <= rate) {
            self.filter.pop();
        }
        self.filter.push(RateSample { seq, rate, census });

        let operating_point = self.filter[0].census as f64;
        self.threshold = (bbr_phase_gain(seq, cfg) * operating_point)
            .max(self.floor)
            .min(self.total_buffers);
        bbr_phase(seq, cfg)
    }
}

impl Law for BbrLaw {
    type Config = BbrConfig;
    const NAME: &'static str = "bbr";

    fn sideband_config(cfg: &BbrConfig) -> &SidebandConfig {
        &cfg.sideband
    }

    fn watchdog_gathers(cfg: &BbrConfig) -> u32 {
        cfg.watchdog_gathers
    }

    fn size(&mut self, cfg: &BbrConfig, total_buffers: f64) {
        self.total_buffers = total_buffers;
        self.floor = cfg.initial_threshold_frac * total_buffers;
        self.threshold = self.floor;
    }

    fn threshold(&self, _cfg: &BbrConfig) -> f64 {
        self.threshold
    }

    /// Every snapshot is one rate sample, and every sample re-derives the
    /// threshold.
    fn on_period(&mut self, cfg: &BbrConfig, p: &Period) -> Option<Action> {
        Some(self.sample(cfg, p.delivered, p.census_sum))
    }

    /// Rate samples spanning the outage are garbage: restore the threshold
    /// and empty the filter, which nothing reads before the re-arm.
    fn on_trip(&mut self, last_good: f64) {
        self.threshold = last_good;
        self.filter.clear();
    }

    fn save(&self, enc: &mut Enc) {
        enc.u64(self.seq);
        enc.u32(self.filter.len() as u32);
        for s in &self.filter {
            enc.u64(s.seq);
            enc.u64(s.rate);
            enc.u64(s.census);
        }
        enc.f64(self.threshold);
    }

    fn restore(&mut self, cfg: &BbrConfig, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.seq = dec.u64()?;
        let len = dec.u32()?;
        if len > cfg.filter_gathers.max(1) {
            return Err(CheckpointError::Corrupt("bbr filter past its bound"));
        }
        self.filter.clear();
        for _ in 0..len {
            self.filter.push(RateSample {
                seq: dec.u64()?,
                rate: dec.u64()?,
                census: dec.u64()?,
            });
        }
        self.threshold = dec.f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BbrConfig {
        BbrConfig::paper()
    }

    /// The law sized for the paper's 3072-buffer network.
    fn state(cfg: &BbrConfig) -> BbrLaw {
        let mut law = BbrLaw::default();
        law.size(cfg, 3072.0);
        law
    }

    /// BBR's gain cycle: probe on sample 0 of each cycle, drain on sample
    /// 1, cruise otherwise — for every sample of the first three cycles.
    #[test]
    fn probe_phase_scheduling() {
        let c = cfg();
        for cycle in 0..3u64 {
            let base = cycle * u64::from(c.cycle_gathers);
            assert_eq!(bbr_phase_gain(base, &c), c.probe_gain, "cycle {cycle}");
            assert_eq!(bbr_phase_gain(base + 1, &c), c.drain_gain);
            for s in 2..u64::from(c.cycle_gathers) {
                assert_eq!(bbr_phase_gain(base + s, &c), 1.0, "cruise sample {s}");
            }
        }
    }

    #[test]
    fn zero_length_cycle_always_cruises() {
        let c = BbrConfig {
            cycle_gathers: 0,
            ..cfg()
        };
        for seq in 0..16 {
            assert_eq!(bbr_phase_gain(seq, &c), 1.0);
        }
    }

    /// The max filter adopts the census of the highest-rate sample in the
    /// window, expires it once it ages out, and gives ties to the newer
    /// sample.
    #[test]
    fn max_filter_tracks_operating_point() {
        let c = cfg();
        let mut st = state(&c);
        // Cruise-phase sample indices would complicate the gain; use
        // sample 2 (gain 1.0) by discarding the first two.
        st.sample(&c, 10, 100);
        st.sample(&c, 50, 300);
        st.sample(&c, 20, 900);
        // Max rate is 50 at census 300: the cruise threshold sits there.
        assert_eq!(st.filter[0].rate, 50);
        assert_eq!(st.threshold, 300.0);
        // A tie replaces the older sample (newer census wins).
        st.sample(&c, 50, 400);
        assert_eq!(st.threshold, 400.0);
        // Age the max out of the eight-sample window: the best survivor
        // (rate 20, census 900) becomes the operating point. The last
        // sample lands on seq 11, a cruise phase, so the threshold sits
        // exactly at the surviving census.
        for _ in 0..8 {
            st.sample(&c, 20, 900);
        }
        assert_eq!(st.filter[0].rate, 20);
        assert_eq!(st.threshold, 900.0);
    }

    /// Probe and drain phases scale the same operating point by their
    /// gains; the floor backstops an empty-ish filter.
    #[test]
    fn gains_scale_the_operating_point() {
        let c = cfg();
        let mut st = state(&c);
        let probe = st.sample(&c, 100, 800); // seq 0: probe
        assert_eq!(st.threshold, 800.0 * c.probe_gain);
        assert_eq!(probe, Action::Raise);
        let drain = st.sample(&c, 100, 800); // seq 1: drain (tie, newer)
        assert_eq!(st.threshold, 800.0 * c.drain_gain);
        assert_eq!(drain, Action::Cut);
        let cruise = st.sample(&c, 100, 800); // seq 2: cruise
        assert_eq!(st.threshold, 800.0);
        assert_eq!(cruise, Action::Hold);
    }

    #[test]
    fn threshold_floor_holds() {
        let c = cfg();
        let mut st = state(&c);
        st.seq = 2; // cruise phase
        st.sample(&c, 5, 0); // idle network: census 0
        assert_eq!(st.threshold, st.floor, "floor backstops a zero census");
    }
}
