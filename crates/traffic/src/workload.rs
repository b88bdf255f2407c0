use crate::{Pattern, Process, SimRng, TrafficError};
use kncube::NodeId;

/// One phase of a workload: a pattern and process active for `duration`
/// cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// How long this phase lasts, in cycles.
    pub duration: u64,
    /// Destination selection during the phase.
    pub pattern: Pattern,
    /// Packet generation process during the phase.
    pub process: Process,
}

/// A workload: a sequence of phases. After the last phase ends, the final
/// phase's configuration continues indefinitely (steady workloads are a
/// single phase).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    phases: Vec<Phase>,
}

impl Workload {
    /// A steady (single-phase) workload.
    #[must_use]
    pub fn steady(pattern: Pattern, process: Process) -> Self {
        Workload {
            phases: vec![Phase {
                duration: u64::MAX,
                pattern,
                process,
            }],
        }
    }

    /// A workload from an explicit phase list.
    #[must_use]
    pub fn phased(phases: Vec<Phase>) -> Self {
        Workload { phases }
    }

    /// The bursty workload of Figure 6: alternating low/high 50 000-cycle
    /// phases. Low phases offer uniform-random traffic with a 1 500-cycle
    /// regeneration interval (0.67·10⁻³ packets/node/cycle); high phases use
    /// a 15-cycle interval (0.067 packets/node/cycle) and rotate the
    /// communication pattern: uniform-random, bit-reversal, perfect-shuffle,
    /// butterfly.
    #[must_use]
    pub fn paper_bursty() -> Self {
        Self::bursty(50_000, 1_500, 15)
    }

    /// A bursty workload with configurable phase length and regeneration
    /// intervals (see [`Workload::paper_bursty`] for the paper's values).
    #[must_use]
    pub fn bursty(phase_len: u64, low_interval: u64, high_interval: u64) -> Self {
        let low = |dur| Phase {
            duration: dur,
            pattern: Pattern::UniformRandom,
            process: Process::periodic(low_interval),
        };
        let high = |pattern| Phase {
            duration: phase_len,
            pattern,
            process: Process::periodic(high_interval),
        };
        Workload {
            phases: vec![
                low(phase_len),
                high(Pattern::UniformRandom),
                low(phase_len),
                high(Pattern::BitReversal),
                low(phase_len),
                high(Pattern::PerfectShuffle),
                low(phase_len),
                high(Pattern::Butterfly),
                low(u64::MAX),
            ],
        }
    }

    /// The phases of this workload.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The phase active at `cycle`, with the cycle at which it started.
    ///
    /// # Panics
    ///
    /// Panics if the workload is empty (prevented by [`WorkloadRunner::new`]).
    #[must_use]
    pub fn phase_at(&self, cycle: u64) -> (usize, u64) {
        let mut start = 0u64;
        for (i, p) in self.phases.iter().enumerate() {
            let end = start.saturating_add(p.duration);
            if cycle < end {
                return (i, start);
            }
            start = end;
        }
        let last = self.phases.len() - 1;
        (last, start - self.phases[last].duration.min(start))
    }

    /// Validates every phase against a node count.
    ///
    /// # Errors
    ///
    /// Returns the first phase validation error, or
    /// [`TrafficError::EmptyWorkload`] for an empty phase list.
    pub fn validate(&self, nodes: usize) -> Result<(), TrafficError> {
        if self.phases.is_empty() {
            return Err(TrafficError::EmptyWorkload);
        }
        for p in &self.phases {
            p.pattern.validate(nodes)?;
            p.process.validate()?;
        }
        Ok(())
    }

    /// Mean offered load at `cycle`, in packets/node/cycle.
    #[must_use]
    pub fn offered_rate_at(&self, cycle: u64) -> f64 {
        let (i, _) = self.phase_at(cycle);
        self.phases[i].process.offered_rate()
    }

    /// Exact mean offered load over the half-open window `[start, end)`, in
    /// packets/node/cycle: integrates each phase's rate over its overlap
    /// with the window (the final phase persists indefinitely). Returns 0
    /// for an empty window.
    #[must_use]
    pub fn mean_offered_rate(&self, start: u64, end: u64) -> f64 {
        if end <= start || self.phases.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut phase_start = 0u64;
        for (i, p) in self.phases.iter().enumerate() {
            let phase_end = if i + 1 == self.phases.len() {
                u64::MAX
            } else {
                phase_start.saturating_add(p.duration)
            };
            let lo = start.max(phase_start);
            let hi = end.min(phase_end);
            if hi > lo {
                acc += (hi - lo) as f64 * p.process.offered_rate();
            }
            if phase_end >= end {
                break;
            }
            phase_start = phase_end;
        }
        acc / (end - start) as f64
    }
}

/// `2⁵³`: the number of equally likely values of a 53-bit draw.
const DRAW_SPAN: u64 = 1 << 53;

/// The integer form of a Bernoulli rate: a 53-bit draw `x` fires iff
/// `x < bernoulli_thresh(rate)`. That is *exactly* `x·2⁻⁵³ < rate`, i.e.
/// [`SimRng::random`]` < rate`: a 53-bit integer converts to `f64` without
/// rounding, both power-of-two scalings are exact (even of a subnormal
/// rate, scaled *up*), so `x·2⁻⁵³ < rate ⇔ x < rate·2⁵³ ⇔ x < ⌈rate·2⁵³⌉`
/// for integer `x`. A validated rate lies in `[0, 1]`; the clamp keeps an
/// unvalidated one from firing more (or less) than always (or never).
fn bernoulli_thresh(rate: f64) -> u64 {
    // `as` saturates: a negative or NaN product becomes 0.
    ((rate * DRAW_SPAN as f64).ceil() as u64).min(DRAW_SPAN)
}

/// One Bernoulli draw: whether a node generates this cycle. Consumes
/// exactly one `next_u64`.
#[inline]
fn bernoulli_fires(rng: &mut SimRng, thresh: u64) -> bool {
    rng.next_u64() >> 11 < thresh
}

/// One periodic check: whether the node whose next generation time is
/// `*next` generates at `now`, advancing the timer if so.
#[inline]
fn periodic_fires(next: &mut u64, now: u64, interval: u64) -> bool {
    if now < *next {
        return false;
    }
    *next += interval;
    // If the caller skipped cycles, do not build up a backlog.
    if *next <= now {
        *next = now + interval;
    }
    true
}

/// Runtime state of a [`Workload`] over all nodes: asked once per cycle for
/// that cycle's arrivals ([`WorkloadRunner::arrivals`]); deterministic for a
/// given seed.
#[derive(Debug, Clone)]
pub struct WorkloadRunner {
    workload: Workload,
    nodes: usize,
    rng: SimRng,
    /// Per-node next generation time for periodic processes.
    next_gen: Vec<u64>,
    /// Phase index the per-node state was initialized for.
    cur_phase: usize,
    /// Cycle at which `cur_phase` started.
    phase_start: u64,
    /// [`bernoulli_thresh`] of `cur_phase`'s rate (0 unless it is
    /// Bernoulli). Derived from `cur_phase`, never serialized.
    thresh: u64,
}

impl WorkloadRunner {
    /// Creates the runtime state for `workload` on a network of `nodes`
    /// nodes, deterministic for the given `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload is invalid for `nodes`.
    pub fn new(workload: &Workload, nodes: usize, seed: u64) -> Result<Self, TrafficError> {
        workload.validate(nodes)?;
        let mut runner = WorkloadRunner {
            workload: workload.clone(),
            nodes,
            rng: SimRng::seed_from_u64(seed),
            next_gen: vec![0; nodes],
            cur_phase: usize::MAX,
            phase_start: 0,
            thresh: 0,
        };
        runner.enter_phase(0, 0);
        Ok(runner)
    }

    /// Points the phase tracking (and what is derived from it) at `phase`,
    /// which started at `start`, leaving the per-node timers alone.
    fn set_phase(&mut self, phase: usize, start: u64) {
        self.cur_phase = phase;
        self.phase_start = start;
        self.thresh = match self.workload.phases[phase].process {
            Process::Bernoulli { rate } => bernoulli_thresh(rate),
            Process::Periodic { .. } | Process::Silent => 0,
        };
    }

    fn enter_phase(&mut self, phase: usize, start: u64) {
        self.set_phase(phase, start);
        if let Process::Periodic { interval } = self.workload.phases[phase].process {
            // Random phase offsets so nodes do not generate in lockstep.
            for slot in &mut self.next_gen {
                *slot = start + self.rng.random_range(0..interval);
            }
        }
    }

    /// Advances phase tracking; must be called with nondecreasing `now`.
    fn sync_phase(&mut self, now: u64) {
        let (phase, start) = self.workload.phase_at(now);
        if phase != self.cur_phase {
            self.enter_phase(phase, start);
        }
    }

    /// Every packet generated at cycle `now`, as `sink(node, destination)`
    /// calls in strictly ascending node order — at most one per node. The
    /// cost is one draw (Bernoulli) or one compare (periodic) per node and
    /// one `sink` call per *arrival*; the phase lookup and the process
    /// dispatch happen once.
    ///
    /// The stream contract: per node, in node order, the generation draw
    /// (Bernoulli only) and then — only if the node generates — the
    /// destination draw, all from the one [`SimRng`]. That is the order
    /// [`WorkloadRunner::poll`] over `0..nodes` consumes it in, so the two
    /// entries are interchangeable cycle by cycle.
    ///
    /// Call with nondecreasing `now`, once per cycle, for deterministic
    /// replay.
    pub fn arrivals(&mut self, now: u64, mut sink: impl FnMut(NodeId, NodeId)) {
        self.sync_phase(now);
        let phase = &self.workload.phases[self.cur_phase];
        let (pattern, nodes, rng) = (&phase.pattern, self.nodes, &mut self.rng);
        match phase.process {
            Process::Bernoulli { .. } => {
                let thresh = self.thresh;
                for node in 0..nodes {
                    if bernoulli_fires(rng, thresh) {
                        sink(node, pattern.destination(node, nodes, rng));
                    }
                }
            }
            Process::Periodic { interval } => {
                for (node, next) in self.next_gen.iter_mut().enumerate() {
                    if periodic_fires(next, now, interval) {
                        sink(node, pattern.destination(node, nodes, rng));
                    }
                }
            }
            Process::Silent => {}
        }
    }

    /// Polls node `node` at cycle `now`: returns the destination of a newly
    /// generated packet, if any. The per-node form of
    /// [`WorkloadRunner::arrivals`], for drivers shaped as a per-node
    /// source closure; a stepping loop should ask for the cycle's arrivals
    /// instead.
    ///
    /// Callers must poll nodes `0..nodes` in order within a cycle, and cycles
    /// in nondecreasing order, for deterministic replay.
    ///
    /// # Panics
    ///
    /// Panics if `node >= nodes`.
    pub fn poll(&mut self, now: u64, node: NodeId) -> Option<NodeId> {
        assert!(node < self.nodes, "node {node} out of range");
        if node == 0 {
            self.sync_phase(now);
        }
        let phase = &self.workload.phases[self.cur_phase];
        let generate = match phase.process {
            Process::Bernoulli { .. } => bernoulli_fires(&mut self.rng, self.thresh),
            Process::Periodic { interval } => {
                periodic_fires(&mut self.next_gen[node], now, interval)
            }
            Process::Silent => false,
        };
        generate.then(|| phase.pattern.destination(node, self.nodes, &mut self.rng))
    }

    /// The workload being run.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The earliest cycle `>= now` at which asking for arrivals could have
    /// any effect: generate a packet, consume RNG state, or cross a phase
    /// boundary. `u64::MAX` means never (a silent tail phase).
    ///
    /// This is the workload's half of the quiescence fast-forward
    /// contract: a driver may jump from `now` straight to the returned
    /// cycle without asking about the ones in between, because every
    /// skipped cycle would have produced nothing *and left the runner's
    /// state — including the RNG — untouched*. Bernoulli processes consume
    /// one draw per node every cycle, so they report `now` (nothing is
    /// skippable); periodic processes are skippable up to their earliest
    /// per-node generation time; phase transitions re-seed per-node
    /// timers, so the answer is always clamped to the current phase's end.
    #[must_use]
    pub fn next_arrival(&self, now: u64) -> u64 {
        let (phase, start) = self.workload.phase_at(now);
        if phase != self.cur_phase || start != self.phase_start {
            return now; // a pending phase transition must be entered first
        }
        let p = &self.workload.phases[phase];
        let phase_end = start.saturating_add(p.duration);
        let arrival = match p.process {
            Process::Bernoulli { .. } => now,
            Process::Periodic { .. } => self
                .next_gen
                .iter()
                .copied()
                .min()
                .unwrap_or(u64::MAX)
                .max(now),
            Process::Silent => u64::MAX,
        };
        arrival.min(phase_end)
    }

    /// Serializes the runtime state (RNG, per-node timers, phase tracking)
    /// into `enc`. The workload and node count are configuration and are
    /// not written; restore into a runner built from the same workload.
    pub fn save_state(&self, enc: &mut checkpoint::Enc) {
        enc.u64s(&self.rng.state());
        enc.usize(self.next_gen.len());
        enc.u64s(&self.next_gen);
        enc.usize(self.cur_phase);
        enc.u64(self.phase_start);
    }

    /// Restores state captured with [`WorkloadRunner::save_state`] into a
    /// runner built from the same workload and node count. All or nothing:
    /// on an error the runner is exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns a [`checkpoint::CheckpointError`] on a truncated stream, a
    /// shape mismatch against this runner's configuration, a generator
    /// state no seed produces (all zero: it would emit zeros forever, and
    /// every Bernoulli node would fire every cycle), or phase tracking the
    /// workload's schedule cannot produce.
    pub fn restore_state(
        &mut self,
        dec: &mut checkpoint::Dec<'_>,
    ) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::CheckpointError::Corrupt;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = dec.u64()?;
        }
        if dec.usize()? != self.nodes {
            return Err(Corrupt("workload node count mismatch"));
        }
        let next_gen = dec.u64s(self.nodes)?;
        let cur_phase = dec.usize()?;
        let phase_start = dec.u64()?;
        if s == [0; 4] {
            return Err(Corrupt("workload generator state is all zero"));
        }
        if cur_phase >= self.workload.phases.len() {
            return Err(Corrupt("workload phase index out of range"));
        }
        // `phase_at` maps every cycle of a phase to the same pair, so the
        // phase's first cycle names the only start that pairs with it — and
        // names another phase altogether when this one can never be current
        // (zero duration, or past a saturated schedule). `(0, 0)` is what
        // `new` starts from before the first cycle, whatever the schedule.
        let pair = (cur_phase, phase_start);
        if pair != (0, 0) && self.workload.phase_at(phase_start) != pair {
            return Err(Corrupt("workload phase tracking matches no schedule"));
        }
        self.rng = SimRng::from_state(s);
        self.next_gen = next_gen;
        self.set_phase(cur_phase, phase_start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_workload_generates_at_requested_rate() {
        let wl = Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.05));
        let mut r = WorkloadRunner::new(&wl, 64, 42).unwrap();
        let mut count = 0u64;
        let cycles = 4000u64;
        for now in 0..cycles {
            for node in 0..64 {
                if r.poll(now, node).is_some() {
                    count += 1;
                }
            }
        }
        let rate = count as f64 / (cycles as f64 * 64.0);
        assert!((rate - 0.05).abs() < 0.005, "measured rate {rate}");
    }

    #[test]
    fn periodic_generates_exactly_one_per_interval() {
        let wl = Workload::steady(Pattern::BitReversal, Process::periodic(10));
        let mut r = WorkloadRunner::new(&wl, 4, 1).unwrap();
        let mut per_node = [0u64; 4];
        for now in 0..100 {
            for (node, count) in per_node.iter_mut().enumerate() {
                if r.poll(now, node).is_some() {
                    *count += 1;
                }
            }
        }
        for (node, &c) in per_node.iter().enumerate() {
            assert!((9..=10).contains(&c), "node {node} generated {c} packets");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let wl = Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.1));
        let mut a = WorkloadRunner::new(&wl, 16, 99).unwrap();
        let mut b = WorkloadRunner::new(&wl, 16, 99).unwrap();
        for now in 0..500 {
            for node in 0..16 {
                assert_eq!(a.poll(now, node), b.poll(now, node));
            }
        }
    }

    #[test]
    fn phase_at_walks_schedule() {
        let wl = Workload::bursty(100, 50, 5);
        assert_eq!(wl.phase_at(0), (0, 0));
        assert_eq!(wl.phase_at(99), (0, 0));
        assert_eq!(wl.phase_at(100), (1, 100));
        assert_eq!(wl.phase_at(350), (3, 300));
        // Tail phase persists.
        let (i, _) = wl.phase_at(10_000_000);
        assert_eq!(i, wl.phases().len() - 1);
    }

    #[test]
    fn bursty_switches_pattern_and_rate() {
        let wl = Workload::paper_bursty();
        assert_eq!(wl.phases().len(), 9);
        assert!((wl.offered_rate_at(0) - 1.0 / 1500.0).abs() < 1e-12);
        assert!((wl.offered_rate_at(60_000) - 1.0 / 15.0).abs() < 1e-12);
        let (hi1, _) = wl.phase_at(160_000);
        assert_eq!(wl.phases()[hi1].pattern, Pattern::BitReversal);
        let (hi3, _) = wl.phase_at(370_000);
        assert_eq!(wl.phases()[hi3].pattern, Pattern::Butterfly);
    }

    #[test]
    fn bursty_runner_changes_throughput_between_phases() {
        let wl = Workload::bursty(1_000, 100, 5);
        let mut r = WorkloadRunner::new(&wl, 8, 3).unwrap();
        let mut low = 0u64;
        let mut high = 0u64;
        for now in 0..2_000u64 {
            for node in 0..8 {
                if r.poll(now, node).is_some() {
                    if now < 1_000 {
                        low += 1;
                    } else {
                        high += 1;
                    }
                }
            }
        }
        assert!(
            high > low * 5,
            "high phase ({high}) should dwarf low phase ({low})"
        );
    }

    #[test]
    fn mean_offered_rate_integrates_phases_exactly() {
        // Two phases: 100 cycles at 0.5, then a persistent tail at 0.1.
        let wl = Workload::phased(vec![
            Phase {
                duration: 100,
                pattern: Pattern::UniformRandom,
                process: Process::bernoulli(0.5),
            },
            Phase {
                duration: u64::MAX,
                pattern: Pattern::UniformRandom,
                process: Process::bernoulli(0.1),
            },
        ]);
        // Entirely inside one phase.
        assert!((wl.mean_offered_rate(0, 100) - 0.5).abs() < 1e-12);
        assert!((wl.mean_offered_rate(100, 350) - 0.1).abs() < 1e-12);
        // Straddling the boundary: 50 cycles of each.
        assert!((wl.mean_offered_rate(50, 150) - 0.3).abs() < 1e-12);
        // Windows that are NOT multiples of any sampling stride still
        // integrate exactly: 10 cycles at 0.5 + 3 at 0.1.
        let want = (10.0 * 0.5 + 3.0 * 0.1) / 13.0;
        assert!((wl.mean_offered_rate(90, 103) - want).abs() < 1e-12);
        // Empty windows contribute nothing.
        assert_eq!(wl.mean_offered_rate(40, 40), 0.0);
        assert_eq!(wl.mean_offered_rate(50, 40), 0.0);
        // The tail phase persists arbitrarily far out.
        assert!((wl.mean_offered_rate(1_000_000, 2_000_000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mean_offered_rate_matches_pointwise_sampling_on_steady() {
        let wl = Workload::steady(Pattern::Transpose, Process::periodic(20));
        let mean = wl.mean_offered_rate(123, 4_567);
        assert!((mean - wl.offered_rate_at(123)).abs() < 1e-12);
    }

    #[test]
    fn next_arrival_respects_process_and_phase_boundaries() {
        // Bernoulli: every poll consumes RNG, nothing is skippable.
        let wl = Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.1));
        let r = WorkloadRunner::new(&wl, 8, 0).unwrap();
        assert_eq!(r.next_arrival(123), 123);

        // Periodic: skippable up to the earliest per-node timer, and a
        // poll-free jump to that cycle yields the same packets as stepping.
        let wl = Workload::steady(Pattern::UniformRandom, Process::periodic(100));
        let mut a = WorkloadRunner::new(&wl, 8, 7).unwrap();
        let mut b = a.clone();
        let jump = a.next_arrival(0);
        assert!(jump < 100, "first arrival inside the first interval");
        let stepped: Vec<_> = (0..=jump)
            .flat_map(|t| (0..8).map(move |n| (t, n)))
            .filter_map(|(t, n)| a.poll(t, n).map(|d| (t, n, d)))
            .collect();
        let jumped: Vec<_> = (0..8)
            .filter_map(|n| b.poll(jump, n).map(|d| (jump, n, d)))
            .collect();
        assert!(!stepped.is_empty(), "vacuous: nothing generated");
        assert_eq!(stepped, jumped, "skipping to next_arrival lost packets");

        // Silent tail: never; silent phase before another: clamped to its
        // end (the transition re-seeds timers and must not be skipped).
        let wl = Workload::steady(Pattern::UniformRandom, Process::Silent);
        let r = WorkloadRunner::new(&wl, 8, 0).unwrap();
        assert_eq!(r.next_arrival(5), u64::MAX);
        let wl = Workload::phased(vec![
            Phase {
                duration: 1_000,
                pattern: Pattern::UniformRandom,
                process: Process::Silent,
            },
            Phase {
                duration: u64::MAX,
                pattern: Pattern::UniformRandom,
                process: Process::periodic(10),
            },
        ]);
        let r = WorkloadRunner::new(&wl, 8, 0).unwrap();
        assert_eq!(r.next_arrival(5), 1_000);
        // A runner that has not yet synced into the phase at `now` cannot
        // skip anything.
        assert_eq!(r.next_arrival(1_500), 1_500);
    }

    fn saved(r: &WorkloadRunner) -> Vec<u8> {
        let mut enc = checkpoint::Enc::new();
        r.save_state(&mut enc);
        enc.into_vec()
    }

    /// The stream is pinned, not assumed: for every process × pattern —
    /// phase edges mid-run, a checkpoint → restore in the middle — the
    /// batched entry yields the `(cycle, node, dst)` sequence of the
    /// per-node poll and leaves the generator in the same state.
    #[test]
    fn stream_arrivals_match_per_node_polls() {
        const NODES: usize = 16;
        let processes = [
            Process::bernoulli(0.1),
            Process::periodic(7),
            Process::Silent,
        ];
        let mut workloads = vec![Workload::bursty(40, 9, 2)];
        for process in processes {
            for pattern in Pattern::names()
                .iter()
                .map(|n| Pattern::by_name(n).unwrap())
            {
                let phase = |duration| Phase {
                    duration,
                    pattern: pattern.clone(),
                    process,
                };
                let other = Phase {
                    duration: 23,
                    pattern: Pattern::UniformRandom,
                    process: if matches!(process, Process::Bernoulli { .. }) {
                        Process::periodic(5)
                    } else {
                        Process::bernoulli(0.3)
                    },
                };
                workloads.push(Workload::phased(vec![phase(37), other, phase(u64::MAX)]));
            }
        }
        for wl in &workloads {
            let mut batched = WorkloadRunner::new(wl, NODES, 21).unwrap();
            let mut polled = batched.clone();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for now in 0..130u64 {
                if now == 50 || now == 90 {
                    // Inside the second and the third phase: each side
                    // resumes from the *other's* checkpoint, in a runner
                    // that has seen a different stream and phase.
                    let (b, p) = (saved(&batched), saved(&polled));
                    assert_eq!(b, p, "{wl:?}: checkpoints diverged at {now}");
                    batched = WorkloadRunner::new(wl, NODES, 99).unwrap();
                    polled = batched.clone();
                    batched
                        .restore_state(&mut checkpoint::Dec::new(&p))
                        .unwrap();
                    polled.restore_state(&mut checkpoint::Dec::new(&b)).unwrap();
                }
                batched.arrivals(now, |node, dst| got.push((now, node, dst)));
                for node in 0..NODES {
                    if let Some(dst) = polled.poll(now, node) {
                        want.push((now, node, dst));
                    }
                }
                assert_eq!(got, want, "{wl:?}: arrivals diverged at {now}");
                assert_eq!(
                    batched.rng.state(),
                    polled.rng.state(),
                    "{wl:?}: generator position diverged at {now}"
                );
            }
            assert!(!got.is_empty(), "{wl:?}: vacuous, nothing generated");
        }
    }

    /// Today's `f64` Bernoulli compare, kept as the reference the integer
    /// threshold is exact against.
    fn f64_fires(rng: &mut SimRng, rate: f64) -> bool {
        rng.random() < rate
    }

    #[test]
    fn bernoulli_threshold_is_exactly_the_f64_compare() {
        let rates = [
            0.0,
            f64::MIN_POSITIVE,
            0.001,
            0.1,
            1.0 / 3.0,
            0.5,
            1.0 - f64::EPSILON / 2.0, // 1 − 2⁻⁵³
            1.0,
        ];
        for rate in rates {
            let thresh = bernoulli_thresh(rate);
            assert!(thresh <= DRAW_SPAN);
            // At and around the threshold, and at both ends of the draw's
            // range: `SimRng::random`'s own conversion of the draw `x`.
            let xs = [
                Some(0),
                thresh.checked_sub(1),
                Some(thresh),
                Some(thresh + 1),
                Some(DRAW_SPAN - 1),
            ];
            for x in xs.into_iter().flatten().filter(|&x| x < DRAW_SPAN) {
                let reference = (x as f64 * (1.0 / DRAW_SPAN as f64)) < rate;
                assert_eq!(x < thresh, reference, "rate {rate:e}, draw {x}");
            }
            // And along a real stream, draw for draw.
            let mut a = SimRng::seed_from_u64(17);
            let mut b = a.clone();
            for i in 0..20_000 {
                assert_eq!(
                    bernoulli_fires(&mut a, thresh),
                    f64_fires(&mut b, rate),
                    "rate {rate:e}, draw #{i}"
                );
            }
            assert_eq!(a, b);
        }
        assert_eq!(bernoulli_thresh(0.0), 0);
        assert_eq!(bernoulli_thresh(f64::MIN_POSITIVE), 1);
        assert_eq!(bernoulli_thresh(0.5), DRAW_SPAN / 2);
        assert_eq!(bernoulli_thresh(1.0 - f64::EPSILON / 2.0), DRAW_SPAN - 1);
        assert_eq!(bernoulli_thresh(1.0), DRAW_SPAN);
        // Unvalidated rates clamp to never/always.
        assert_eq!(bernoulli_thresh(-0.5), 0);
        assert_eq!(bernoulli_thresh(f64::NAN), 0);
        assert_eq!(bernoulli_thresh(7.0), DRAW_SPAN);
    }

    /// A runner checkpointed before its first cycle restores even when the
    /// schedule never makes phase 0 current (a zero-length first phase).
    #[test]
    fn a_fresh_runner_round_trips_past_an_empty_first_phase() {
        let phase = |duration, process| Phase {
            duration,
            pattern: Pattern::UniformRandom,
            process,
        };
        let wl = Workload::phased(vec![
            phase(0, Process::periodic(3)),
            phase(u64::MAX, Process::bernoulli(0.2)),
        ]);
        assert_eq!(wl.phase_at(0), (1, 0));
        let fresh = WorkloadRunner::new(&wl, 8, 4).unwrap();
        let bytes = saved(&fresh);
        let mut restored = WorkloadRunner::new(&wl, 8, 5).unwrap();
        restored
            .restore_state(&mut checkpoint::Dec::new(&bytes))
            .unwrap();
        let (mut a, mut b) = (fresh, restored);
        for now in 0..50 {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            a.arrivals(now, |n, d| want.push((n, d)));
            b.arrivals(now, |n, d| got.push((n, d)));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_workload_rejected() {
        let wl = Workload::phased(vec![]);
        assert!(matches!(
            WorkloadRunner::new(&wl, 8, 0),
            Err(TrafficError::EmptyWorkload)
        ));
    }

    #[test]
    fn permutation_pattern_on_non_power_of_two_rejected() {
        let wl = Workload::steady(Pattern::Butterfly, Process::bernoulli(0.1));
        assert!(WorkloadRunner::new(&wl, 100, 0).is_err());
    }
}
