/// Simulation length presets.
///
/// The paper runs every experiment for 600 000 cycles and discards the first
/// 100 000. That is `Scale::Paper`; the reduced scales keep the same warm-up
/// fraction and are used where wall-clock time matters (this reproduction's
/// recorded runs, CI smoke sweeps and the golden tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 600 000 cycles, 100 000 warm-up (the paper's setting).
    Paper,
    /// 150 000 cycles, 25 000 warm-up.
    Reduced,
    /// 24 000 cycles, 4 000 warm-up (smoke runs).
    Smoke,
    /// 6 000 cycles, 1 000 warm-up (golden snapshot tests; pair with the
    /// small network preset so the suite re-simulates in seconds).
    Tiny,
}

impl Scale {
    /// Total simulated cycles.
    #[must_use]
    pub fn cycles(self) -> u64 {
        match self {
            Scale::Paper => 600_000,
            Scale::Reduced => 150_000,
            Scale::Smoke => 24_000,
            Scale::Tiny => 6_000,
        }
    }

    /// Warm-up cycles excluded from statistics.
    #[must_use]
    pub fn warmup(self) -> u64 {
        match self {
            Scale::Paper => 100_000,
            Scale::Reduced => 25_000,
            Scale::Smoke => 4_000,
            Scale::Tiny => 1_000,
        }
    }

    /// Length of each bursty-workload phase (Figure 6 uses 50 000-cycle
    /// phases over a 450 000-cycle run; reduced scales shrink
    /// proportionally).
    #[must_use]
    pub fn bursty_phase(self) -> u64 {
        match self {
            Scale::Paper => 50_000,
            Scale::Reduced => 12_500,
            Scale::Smoke => 2_500,
            Scale::Tiny => 600,
        }
    }

    /// Parses `paper` / `reduced` / `smoke`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" => Some(Scale::Paper),
            "reduced" => Some(Scale::Reduced),
            "smoke" => Some(Scale::Smoke),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// Label used in output files.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Reduced => "reduced",
            Scale::Smoke => "smoke",
            Scale::Tiny => "tiny",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in [Scale::Paper, Scale::Reduced, Scale::Smoke, Scale::Tiny] {
            assert_eq!(Scale::parse(s.label()), Some(s));
            assert!(s.warmup() < s.cycles());
        }
        assert_eq!(Scale::parse("bogus"), None);
    }
}
