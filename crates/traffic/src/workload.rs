use crate::gaps::Gaps;
use crate::wheel::ArrivalWheel;
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

/// Runtime state of a [`Workload`] over all nodes: asked once per cycle for
/// that cycle's arrivals ([`WorkloadRunner::arrivals`]); deterministic for a
/// given seed.
///
/// Every process runs on one arrival path. `next_gen[node]` is the cycle of
/// the node's next packet — the truth, and all a checkpoint carries besides
/// the generator and the phase; the wheel finds the nodes due at a cycle;
/// a due node draws its destination and then the gap to its next packet
/// (`Gaps`: the interval of a periodic process, a geometric variate for a
/// Bernoulli one).
#[derive(Debug, Clone)]
pub struct WorkloadRunner {
    workload: Workload,
    nodes: usize,
    rng: SimRng,
    /// Per-node cycle of the next packet; `u64::MAX` is never.
    next_gen: Vec<u64>,
    /// Phase index the per-node state was initialized for.
    cur_phase: usize,
    /// Cycle at which `cur_phase` started.
    phase_start: u64,
    /// Gap rule of `cur_phase`'s process. Derived, never serialized.
    gaps: Gaps,
    /// Where the due nodes are: hints over `next_gen`. Derived, never
    /// serialized.
    wheel: ArrivalWheel,
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
            next_gen: vec![u64::MAX; nodes],
            cur_phase: 0,
            phase_start: 0,
            gaps: Gaps::Never,
            wheel: ArrivalWheel::new(nodes),
        };
        runner.enter_phase(0, 0);
        Ok(runner)
    }

    /// Enters `phase`, which started at `start`: every node, in node order,
    /// draws the cycle of its first packet of the phase.
    fn enter_phase(&mut self, phase: usize, start: u64) {
        self.cur_phase = phase;
        self.phase_start = start;
        self.gaps = Gaps::of(self.workload.phases[phase].process);
        for next in &mut self.next_gen {
            *next = start.saturating_add(self.gaps.first(&mut self.rng));
        }
        self.wheel.rebuild(&self.next_gen);
    }

    /// Advances phase tracking; must be called with nondecreasing `now`.
    #[inline]
    fn sync_phase(&mut self, now: u64) {
        let (phase, start) = self.workload.phase_at(now);
        if phase != self.cur_phase {
            self.enter_phase(phase, start);
        }
    }

    /// `node`, due at `now`, generates: draws the packet's destination, then
    /// the gap to the node's next packet. A deadline saturates at
    /// `u64::MAX` (never), and a caller that skipped cycles gets one packet,
    /// not the backlog.
    #[inline]
    fn fire(&mut self, now: u64, node: NodeId) -> NodeId {
        let pattern = &self.workload.phases[self.cur_phase].pattern;
        let dst = pattern.destination(node, self.nodes, &mut self.rng);
        let gap = self.gaps.next(&mut self.rng);
        let next = self.next_gen[node].saturating_add(gap);
        self.next_gen[node] = if next <= now {
            now.saturating_add(gap)
        } else {
            next
        };
        dst
    }

    /// Every packet generated at cycle `now`, as `sink(node, destination)`
    /// calls in strictly ascending node order — at most one per node. The
    /// cost is one wheel slot plus one `sink` call, two draws and a re-file
    /// per *arrival*; a phase's first cycle also draws every node's first
    /// deadline.
    ///
    /// The stream contract: on entering a phase one draw per node, in node
    /// order (none under `Silent` or a zero rate); then per due node, in
    /// node order, the destination draw and — Bernoulli only — the gap
    /// draw, all from the one [`SimRng`]. That is the order
    /// [`WorkloadRunner::poll`] over `0..nodes` consumes it in, so the two
    /// entries are interchangeable cycle by cycle.
    ///
    /// Call with nondecreasing `now` for deterministic replay. Cycles at
    /// which nothing is due ([`WorkloadRunner::next_arrival`]) may be
    /// skipped.
    pub fn arrivals(&mut self, now: u64, mut sink: impl FnMut(NodeId, NodeId)) {
        self.sync_phase(now);
        let Some(span) = self.wheel.advance(now) else {
            return;
        };
        for w in 0..self.wheel.words() {
            let mut candidates = self.wheel.take(span, w);
            while candidates != 0 {
                let node = w * 64 + candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                if self.next_gen[node] <= now {
                    let dst = self.fire(now, node);
                    sink(node, dst);
                }
                self.wheel.insert(node, self.next_gen[node]);
            }
        }
    }

    /// Polls node `node` at cycle `now`: returns the destination of a newly
    /// generated packet, if any. The per-node form of
    /// [`WorkloadRunner::arrivals`] — one compare against the node's
    /// deadline — for drivers shaped as a per-node source closure; a
    /// stepping loop should ask for the cycle's arrivals instead.
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
        (self.next_gen[node] <= now).then(|| {
            let dst = self.fire(now, node);
            self.wheel.insert(node, self.next_gen[node]);
            dst
        })
    }

    /// The workload being run.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The earliest cycle `>= now` at which asking for arrivals has any
    /// effect: generates a packet (and so consumes RNG state) or crosses a
    /// phase boundary. `u64::MAX` means never (a silent tail phase). Exact
    /// for every process: the earliest per-node deadline, clamped to the
    /// current phase's end (entering a phase re-draws the deadlines).
    ///
    /// This is the workload's half of the quiescence fast-forward
    /// contract: a driver may jump from `now` straight to the returned
    /// cycle without asking about the ones in between, because every
    /// skipped cycle would have produced nothing *and left the runner's
    /// state — including the RNG — untouched*.
    #[must_use]
    pub fn next_arrival(&self, now: u64) -> u64 {
        let (phase, start) = self.workload.phase_at(now);
        if phase != self.cur_phase || start != self.phase_start {
            return now; // a pending phase transition must be entered first
        }
        let phase_end = start.saturating_add(self.workload.phases[phase].duration);
        let earliest = self.next_gen.iter().copied().min().unwrap_or(u64::MAX);
        earliest.max(now).min(phase_end)
    }

    /// Serializes the runtime state (RNG, per-node deadlines, phase
    /// tracking) into `enc`. The workload and node count are configuration
    /// and are not written; restore into a runner built from the same
    /// workload.
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
    /// state no seed produces (all zero: it would emit zeros forever),
    /// phase tracking the workload's schedule cannot produce, or a deadline
    /// the phase cannot have set: one before the phase began, or any at all
    /// under a process that never generates.
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
        // Deadlines are drawn from the phase's start on and only move
        // forward; a phase that never generates leaves every one at never
        // (a finite one would fire a packet the process cannot produce).
        let gaps = Gaps::of(self.workload.phases[cur_phase].process);
        let earliest = if matches!(gaps, Gaps::Never) {
            u64::MAX
        } else {
            phase_start
        };
        if next_gen.iter().any(|&next| next < earliest) {
            return Err(Corrupt("workload deadline its phase cannot have set"));
        }
        self.rng = SimRng::from_state(s);
        self.next_gen = next_gen;
        self.cur_phase = cur_phase;
        self.phase_start = phase_start;
        self.gaps = gaps;
        self.wheel.rebuild(&self.next_gen);
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

    fn arrivals_at(r: &mut WorkloadRunner, now: u64) -> Vec<(u64, NodeId, NodeId)> {
        let mut out = Vec::new();
        r.arrivals(now, |node, dst| out.push((now, node, dst)));
        out
    }

    #[test]
    fn next_arrival_respects_process_and_phase_boundaries() {
        // Bernoulli and periodic alike: skippable up to the earliest
        // per-node deadline, and a jump to that cycle yields the same
        // packets — and leaves the same generator — as stepping there.
        for process in [Process::bernoulli(0.01), Process::periodic(100)] {
            let wl = Workload::steady(Pattern::UniformRandom, process);
            let mut stepped = WorkloadRunner::new(&wl, 8, 7).unwrap();
            let mut jumped = stepped.clone();
            let mut now = 0;
            for _ in 0..20 {
                let to = jumped.next_arrival(now);
                assert!(to >= now && to < u64::MAX, "{process:?}");
                let mut want = Vec::new();
                for t in now..=to {
                    assert_eq!(stepped.next_arrival(t), to, "{process:?}: not exact");
                    want.extend(arrivals_at(&mut stepped, t));
                }
                let got = arrivals_at(&mut jumped, to);
                assert!(!got.is_empty(), "{process:?}: nothing due at {to}");
                assert_eq!(got, want, "{process:?}: skipping to {to} lost packets");
                assert_eq!(jumped.rng, stepped.rng);
                now = to + 1;
            }
            assert!(now > 50, "{process:?}: vacuous, nothing was skipped");
        }

        // Silent tail: never; silent phase before another: clamped to its
        // end (the transition draws deadlines and must not be skipped).
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
    /// wheel-driven entry yields the `(cycle, node, dst)` sequence of the
    /// per-node poll and leaves the generator in the same state, and so
    /// does a driver that only asks at the cycles `next_arrival` names.
    #[test]
    fn stream_arrivals_match_per_node_polls() {
        // Two words of wheel bitset.
        const NODES: usize = 128;
        let processes = [
            Process::bernoulli(0.1),
            Process::periodic(7),
            Process::Silent,
        ];
        let mut workloads = vec![
            Workload::bursty(40, 9, 2),
            // Gaps past a wheel revolution, and the two degenerate rates.
            Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.002)),
            Workload::steady(Pattern::UniformRandom, Process::periodic(700)),
            Workload::steady(Pattern::Transpose, Process::bernoulli(1.0)),
        ];
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
            let cycles = if wl.phases().len() == 1 { 1_500 } else { 130 };
            let mut batched = WorkloadRunner::new(wl, NODES, 21).unwrap();
            let mut polled = batched.clone();
            let mut skipping = batched.clone();
            let (mut got, mut want, mut skipped) = (Vec::new(), Vec::new(), Vec::new());
            for now in 0..cycles {
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
                got.extend(arrivals_at(&mut batched, now));
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
                if skipping.next_arrival(now) == now {
                    skipped.extend(arrivals_at(&mut skipping, now));
                }
            }
            assert!(!got.is_empty(), "{wl:?}: vacuous, nothing generated");
            assert_eq!(skipped, got, "{wl:?}: the skipping driver diverged");
            assert_eq!(saved(&skipping), saved(&batched), "{wl:?}");
        }
    }

    /// Arrivals per node-cycle sit within 4σ of each phase's rate
    /// (binomial: σ² = rate·(1 − rate) / node-cycles), phase by phase over
    /// a three-phase workload, and every node gets its share.
    #[test]
    fn bernoulli_arrival_rate_matches_each_phase() {
        const NODES: usize = 64;
        let phases = [(0.001, 40_000u64), (0.1, 4_000), (0.9, 1_000)];
        let wl = Workload::phased(
            phases
                .iter()
                .map(|&(rate, duration)| Phase {
                    duration,
                    pattern: Pattern::UniformRandom,
                    process: Process::bernoulli(rate),
                })
                .collect(),
        );
        let mut r = WorkloadRunner::new(&wl, NODES, 2024).unwrap();
        let mut start = 0;
        for (rate, duration) in phases {
            let mut per_node = [0u64; NODES];
            for now in start..start + duration {
                r.arrivals(now, |node, _| per_node[node] += 1);
            }
            start += duration;
            let trials = (duration * NODES as u64) as f64;
            let measured = per_node.iter().sum::<u64>() as f64 / trials;
            let sigma = (rate * (1.0 - rate) / trials).sqrt();
            assert!(
                (measured - rate).abs() < 4.0 * sigma,
                "rate {rate}: measured {measured}, σ {sigma:e}"
            );
            // Per node the same bound over its own `duration` trials
            // (64 nodes × 3 phases at 4σ: a ~1 % false alarm overall,
            // settled by the fixed seed).
            let sigma = (rate * (1.0 - rate) / duration as f64).sqrt();
            for (node, &n) in per_node.iter().enumerate() {
                let measured = n as f64 / duration as f64;
                assert!(
                    (measured - rate).abs() < 4.0 * sigma,
                    "rate {rate}, node {node}: measured {measured}"
                );
            }
        }
    }

    /// `Process::periodic(u64::MAX)` validates; its deadlines must saturate
    /// at never instead of wrapping below `now` and firing every cycle.
    #[test]
    fn huge_intervals_saturate_instead_of_wrapping() {
        for interval in [u64::MAX, u64::MAX - 1] {
            let wl = Workload::steady(Pattern::UniformRandom, Process::periodic(interval));
            let mut r = WorkloadRunner::new(&wl, 4, 9).unwrap();
            // Bring every node's first packet into reach, keeping the
            // interval: each fires once, then never again.
            r.next_gen = vec![0, 1, 2, u64::MAX - 3];
            r.wheel.rebuild(&r.next_gen);
            let fired: Vec<_> = [0, 1, 2, 3, 1_000, u64::MAX - 3, u64::MAX - 2]
                .into_iter()
                .flat_map(|now| arrivals_at(&mut r, now))
                .map(|(now, node, _)| (now, node))
                .collect();
            assert_eq!(fired, [(0, 0), (1, 1), (2, 2), (u64::MAX - 3, 3)]);
            // Node 0's next deadline is one interval past cycle 0; the
            // others saturated.
            assert_eq!(r.next_gen, [interval, u64::MAX, u64::MAX, u64::MAX]);
        }

        // A phase starting near the end of time: offsets saturate too, and
        // the per-node poll agrees with the wheel.
        let start = u64::MAX - 10;
        let phase = |duration, interval| Phase {
            duration,
            pattern: Pattern::UniformRandom,
            process: Process::periodic(interval),
        };
        let wl = Workload::phased(vec![phase(start, u64::MAX), phase(u64::MAX, 4)]);
        assert_eq!(wl.phase_at(start), (1, start));
        let mut batched = WorkloadRunner::new(&wl, 4, 9).unwrap();
        let mut polled = batched.clone();
        let mut fired = 0;
        for now in start - 2..=u64::MAX - 1 {
            let got = arrivals_at(&mut batched, now);
            let want: Vec<_> = (0..4)
                .filter_map(|n| polled.poll(now, n).map(|d| (now, n, d)))
                .collect();
            assert_eq!(got, want, "cycle {now}");
            if now >= start {
                fired += got.len();
            }
        }
        // Interval 4 over the last 10 cycles: two or three packets a node.
        assert!((8..=12).contains(&fired), "{fired} packets");
        assert!(batched.next_gen.iter().all(|&next| next >= u64::MAX - 4));
    }

    /// A caller that skipped cycles gets one packet per overdue node, not
    /// the backlog, for both processes.
    #[test]
    fn a_late_call_fires_once_without_backlog() {
        for process in [Process::periodic(10), Process::bernoulli(0.1)] {
            let wl = Workload::steady(Pattern::UniformRandom, process);
            let mut r = WorkloadRunner::new(&wl, 8, 3).unwrap();
            assert!(arrivals_at(&mut r, 0).len() <= 8);
            // 10 000 cycles later every node is long overdue.
            let late = arrivals_at(&mut r, 10_000);
            let nodes: Vec<_> = late.iter().map(|&(_, node, _)| node).collect();
            assert_eq!(nodes, (0..8).collect::<Vec<_>>(), "{process:?}");
            assert!(r.next_gen.iter().all(|&next| next > 10_000));
            assert!(arrivals_at(&mut r, 10_000).is_empty());
        }
    }

    #[test]
    fn restore_rejects_deadlines_the_phase_cannot_have_set() {
        let phase = |duration, process| Phase {
            duration,
            pattern: Pattern::UniformRandom,
            process,
        };
        let wl = Workload::phased(vec![
            phase(100, Process::bernoulli(0.2)),
            phase(100, Process::Silent),
            phase(u64::MAX, Process::periodic(9)),
        ]);
        let at = |cycle| {
            let mut r = WorkloadRunner::new(&wl, 4, 1).unwrap();
            for now in 0..=cycle {
                r.arrivals(now, |_, _| {});
            }
            r
        };
        // (a runner in the checkpoint's phase, the tampered deadline)
        let cases = [
            (at(150), 160), // a packet due in a silent phase
            (at(150), 0),   // likewise, and before the phase
            (at(250), 199), // before the periodic phase began
            (at(250), 0),
        ];
        for (good, bad_deadline) in cases {
            let mut tampered = good.clone();
            tampered.next_gen[2] = bad_deadline;
            let bytes = saved(&tampered);
            let mut target = at(20);
            let before = saved(&target);
            let err = target
                .restore_state(&mut checkpoint::Dec::new(&bytes))
                .unwrap_err();
            assert!(
                matches!(err, checkpoint::CheckpointError::Corrupt(_)),
                "{err}"
            );
            assert_eq!(saved(&target), before, "a failed restore wrote state");
            // The untampered state restores and runs on like the original.
            target
                .restore_state(&mut checkpoint::Dec::new(&saved(&good)))
                .unwrap();
            let mut good = good;
            let from = good.phase_start + 50;
            for now in from..from + 100 {
                assert_eq!(arrivals_at(&mut target, now), arrivals_at(&mut good, now));
            }
        }
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
