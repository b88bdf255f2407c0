/// Windowed event counts: events added at arbitrary cycles are accumulated
/// into fixed-width windows, producing the throughput-vs-time series of
/// Figures 4 and 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSeries {
    window: u64,
    points: Vec<u64>,
}

impl WindowSeries {
    /// A series with the given window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window width must be nonzero");
        WindowSeries {
            window,
            points: Vec::new(),
        }
    }

    /// The window width in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Adds `count` events at cycle `now`.
    pub fn add(&mut self, now: u64, count: u64) {
        let idx = (now / self.window) as usize;
        if self.points.len() <= idx {
            self.points.resize(idx + 1, 0);
        }
        self.points[idx] += count;
    }

    /// Iterates `(window_start_cycle, event_count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.points
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 * self.window, c))
    }

    /// Iterates `(window_start_cycle, events_per_cycle_per_node)` pairs —
    /// the paper's normalized throughput unit.
    pub fn normalized(&self, nodes: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let denom = self.window as f64 * nodes as f64;
        self.iter().map(move |(t, c)| (t, c as f64 / denom))
    }

    /// Total events recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.points.iter().sum()
    }
}

/// Periodically sampled values (e.g. the self-tuner's threshold), producing
/// the threshold-vs-time series of Figure 4.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSeries {
    points: Vec<(u64, f64)>,
}

impl GaugeSeries {
    /// An empty series.
    #[must_use]
    pub fn new() -> Self {
        GaugeSeries::default()
    }

    /// Records `value` at cycle `now`.
    pub fn sample(&mut self, now: u64, value: f64) {
        self.points.push((now, value));
    }

    /// The recorded `(cycle, value)` samples, in insertion order.
    #[must_use]
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_accumulate_by_cycle() {
        let mut s = WindowSeries::new(10);
        s.add(0, 1);
        s.add(9, 2);
        s.add(10, 5);
        s.add(25, 7);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(0, 3), (10, 5), (20, 7)]);
        assert_eq!(s.total(), 15);
    }

    #[test]
    fn normalization_divides_by_window_and_nodes() {
        let mut s = WindowSeries::new(100);
        s.add(50, 400);
        let v: Vec<_> = s.normalized(4).collect();
        assert_eq!(v, vec![(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn zero_window_rejected() {
        let _ = WindowSeries::new(0);
    }

    #[test]
    fn gauge_records_in_order() {
        let mut g = GaugeSeries::new();
        g.sample(0, 1.5);
        g.sample(96, 3.0);
        g.sample(192, 2.0);
        assert_eq!(g.points().len(), 3);
        assert_eq!(g.last(), Some((192, 2.0)));
    }
}
