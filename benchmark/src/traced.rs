//! The traced pass: the same sequence `Simulation::step` performs —
//! `Network::cycle` with the workload as source and the scheme's controller,
//! then the delivery drain — driven from here so that each layer boundary
//! can be bracketed with clock reads and counted. Nothing inside the
//! simulator is instrumented; its final `Counters` must equal the untraced
//! run's, which is how the driver is known to be the same sequence.

use crate::trace::Trace;
use crate::workloads::{
    sweep_schemes, Ops, Segment, SimPlan, SEGMENTS, SWEEP_JOBS, SWEEP_NET, SWEEP_SCALE,
};
use checkpoint::{CheckpointError, Dec, Enc};
use experiments::figures::controllers::all_patterns;
use experiments::table::fnum;
use experiments::{steady_config, sweep_rates_for, try_run_point_instrumented, JobError, Pool};
use sideband::Sideband;
use simstats::LatencyStats;
use stcc::{Control, Controller, ControllerCounters, Scheme, SimConfig};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;
use traffic::WorkloadRunner;
use wormsim::{CongestionControl, Counters, DeadlockMode, Network, PhaseStats};

/// Cycles per aggregated span window.
const WINDOW: u64 = 1024;
/// Cycles of `(now, census, delivered)` kept for the side-band replay.
const REPLAY_CYCLES: usize = 1 << 16;

/// The scheme's controller behind a timing wrapper: a counter per
/// `allow_injection` and two clock reads per `on_cycle`. The simulator
/// calls the hook right after its generate stage, so the entry read also
/// ends the source bracket — no clock read or branch sits on the per-poll
/// path. `Base` has no per-cycle work to time: its exit is not read and its
/// hook time is exactly zero.
struct TimedControl {
    inner: Control,
    timed: bool,
    /// When the most recent `on_cycle` was entered.
    entered: Instant,
    on_cycle_ns: u64,
    allow_calls: u64,
}

impl TimedControl {
    fn new(scheme: &Scheme) -> TimedControl {
        TimedControl {
            inner: scheme.build(),
            timed: !matches!(scheme, Scheme::Base),
            entered: Instant::now(),
            on_cycle_ns: 0,
            allow_calls: 0,
        }
    }
}

impl CongestionControl for TimedControl {
    fn on_cycle(&mut self, now: u64, net: &Network) {
        self.entered = Instant::now();
        self.inner.on_cycle(now, net);
        if self.timed {
            self.on_cycle_ns += self.entered.elapsed().as_nanos() as u64;
        }
    }

    fn allow_injection(&mut self, now: u64, node: usize, dst: usize, net: &Network) -> bool {
        self.allow_calls += 1;
        self.inner.allow_injection(now, node, dst, net)
    }

    fn throttled_recently(&self) -> bool {
        self.inner.throttled_recently()
    }

    fn next_wakeup(&self, now: u64) -> u64 {
        self.inner.next_wakeup(now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Counts taken at layer boundaries over the timed region (spans carry the
/// times).
#[derive(Debug, Default)]
pub struct Tally {
    pub allow_calls: u64,
    pub records: u64,
    pub census_sum: u64,
    pub census_samples: u64,
    /// `(census, delivered_cum)` per cycle from cycle 0, as the controller's
    /// side-band was fed them.
    replay: Vec<(u32, u64)>,
}

/// A `Simulation` taken apart: the pieces `stcc::Simulation` owns, stepped
/// in the order it steps them.
struct TracedSim {
    net: Network,
    runner: WorkloadRunner,
    ctl: TimedControl,
    net_latency: LatencyStats,
    total_latency: LatencyStats,
}

impl TracedSim {
    fn new(plan: &SimPlan, trace: &mut Trace, parent: usize) -> Result<TracedSim, String> {
        let cfg = &plan.cfg;
        let start = Instant::now();
        let mut net = Network::new(cfg.net.clone()).map_err(|e| e.to_string())?;
        trace.span("netsim.new", Some(parent), start, Instant::now());
        net.set_shards(plan.shards);
        let nodes = net.torus().node_count();
        Ok(TracedSim {
            net,
            runner: WorkloadRunner::new(&cfg.workload, nodes, cfg.seed)
                .map_err(|e| e.to_string())?,
            ctl: TimedControl::new(&cfg.scheme),
            net_latency: LatencyStats::new(),
            total_latency: LatencyStats::new(),
        })
    }

    /// Steps `cycles` cycles as one span window under `parent`.
    fn window(
        &mut self,
        cycles: u64,
        warmup: u64,
        trace: &mut Trace,
        parent: usize,
        tally: &mut Tally,
    ) {
        tally.census_sum += u64::from(self.net.full_buffer_count());
        tally.census_samples += 1;
        let (mut cycle_ns, mut poll_ns, mut drain_ns) = (0u64, 0u64, 0u64);
        let mut delivered = self.net.counters().delivered_packets;
        let window_start = Instant::now();
        let mut cycle_start = window_start;
        for _ in 0..cycles {
            if tally.replay.len() < REPLAY_CYCLES {
                tally
                    .replay
                    .push((self.net.full_buffer_count(), self.net.delivered_flits_cum()));
            }
            // The source is bracketed once per cycle, from the cycle's
            // start to the controller hook's entry: the generate stage,
            // i.e. every node's poll plus the enqueue of what they produced.
            let runner = &mut self.runner;
            self.net
                .cycle(&mut |now, node| runner.poll(now, node), &mut self.ctl);
            let cycle_end = Instant::now();
            poll_ns += (self.ctl.entered - cycle_start).as_nanos() as u64;
            cycle_ns += (cycle_end - cycle_start).as_nanos() as u64;
            cycle_start = cycle_end;
            // A cycle that delivered nothing has nothing to drain; skipping
            // its bracket keeps a lightly loaded run at three clock reads
            // per cycle.
            if self.net.counters().delivered_packets == delivered {
                continue;
            }
            delivered = self.net.counters().delivered_packets;
            for rec in self.net.drain_deliveries() {
                tally.records += 1;
                if rec.generated_at >= warmup {
                    self.net_latency.record(rec.network_latency());
                    self.total_latency.record(rec.total_latency());
                }
            }
            cycle_start = Instant::now();
            drain_ns += (cycle_start - cycle_end).as_nanos() as u64;
        }
        let window = trace.span("sim.step_window", Some(parent), window_start, cycle_start);
        let cycle = trace.aggregate("netsim.cycle", window, cycle_ns, cycles);
        trace.aggregate("traffic.poll", cycle, poll_ns, cycles);
        trace.aggregate("core.on_cycle", cycle, self.ctl.on_cycle_ns, cycles);
        trace.aggregate("metrics.drain_record", window, drain_ns, cycles);
        tally.allow_calls += self.ctl.allow_calls;
        self.ctl.on_cycle_ns = 0;
        self.ctl.allow_calls = 0;
    }

    /// Steps to cycle `to` in windows of at most [`WINDOW`] cycles.
    fn step_to(
        &mut self,
        to: u64,
        warmup: u64,
        trace: &mut Trace,
        parent: usize,
        tally: &mut Tally,
    ) {
        while self.net.now() < to {
            let cycles = (to - self.net.now()).min(WINDOW);
            self.window(cycles, warmup, trace, parent, tally);
        }
    }

    fn fingerprint(cfg: &SimConfig) -> u64 {
        checkpoint::fnv1a64(format!("{cfg:?}").as_bytes())
    }

    /// The state `Simulation::checkpoint` serializes, through the same
    /// public walkers, sealed the same way.
    fn checkpoint(&self, cfg: &SimConfig) -> Vec<u8> {
        let mut enc = Enc::new();
        self.net.save_state(&mut enc);
        self.runner.save_state(&mut enc);
        self.ctl.inner.save_state(&mut enc);
        self.net_latency.save_state(&mut enc);
        self.total_latency.save_state(&mut enc);
        checkpoint::seal(Self::fingerprint(cfg), &enc.into_vec())
    }

    /// The work `Simulation::restore` does: rebuild from the configuration,
    /// decode, then audit unconditionally.
    fn restore(
        plan: &SimPlan,
        bytes: &[u8],
        trace: &mut Trace,
        parent: usize,
    ) -> Result<TracedSim, String> {
        let mut sim = TracedSim::new(plan, trace, parent)?;
        let decode = |sim: &mut TracedSim| -> Result<(), CheckpointError> {
            let mut dec = Dec::new(checkpoint::open(bytes, Self::fingerprint(&plan.cfg))?);
            sim.net.restore_state(&mut dec)?;
            sim.runner.restore_state(&mut dec)?;
            sim.ctl.inner.restore_state(&mut dec)?;
            sim.net_latency = LatencyStats::restore_state(&mut dec)?;
            sim.total_latency = LatencyStats::restore_state(&mut dec)?;
            dec.finish()
        };
        decode(&mut sim).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let report = sim.net.audit();
        trace.span("netsim.audit", Some(parent), start, Instant::now());
        if report.is_clean() {
            Ok(sim)
        } else {
            Err(report.to_string())
        }
    }
}

/// Every modelled-component count the per-layer metrics report, as one
/// snapshot so the timed region's share is a difference of two.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub net: Counters,
    pub ctl: ControllerCounters,
}

/// What the traced pass over a [`SimPlan`] produced.
#[derive(Debug)]
pub struct TracedSimPass {
    /// Index of the span whose subtree is the set-up.
    pub setup_root: usize,
    /// Index of the span whose subtree is the timed region.
    pub timed_root: usize,
    pub segments: Vec<Segment>,
    pub at_warmup: Counts,
    pub at_end: Counts,
    pub tally: Tally,
    pub threshold_final: Option<f64>,
    pub phase: Option<PhaseStats>,
    pub audit_ms: f64,
    pub roundtrips: u64,
    pub checkpoint_bytes: usize,
    pub sideband: Option<SidebandReplay>,
}

/// A standalone `Sideband` fed the recorded ground truth.
#[derive(Debug, Clone, Copy)]
pub struct SidebandReplay {
    pub on_cycle_ns: f64,
    pub estimate_ns: f64,
    pub gathers: u64,
}

fn replay_sideband(scheme: &Scheme, replay: &[(u32, u64)]) -> Option<SidebandReplay> {
    let control = scheme.build();
    let cfg = Controller::sideband(&control)?.config().clone();
    if replay.is_empty() {
        return None;
    }
    let feed = |estimate: bool| {
        let mut sb = Sideband::new(cfg.clone());
        let mut acc = 0.0;
        let start = Instant::now();
        for (now, &(census, delivered)) in replay.iter().enumerate() {
            sb.on_cycle(now as u64, census, delivered);
            if estimate {
                acc += sb.estimate(now as u64);
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_nanos() as f64 / replay.len() as f64
    };
    let on_cycle_ns = feed(false);
    Some(SidebandReplay {
        on_cycle_ns,
        estimate_ns: (feed(true) - on_cycle_ns).max(0.0),
        gathers: replay.len() as u64 / cfg.gather_period(),
    })
}

/// The traced pass over one simulation plan.
pub fn run_sim(plan: &SimPlan, trace: &mut Trace, ops: &mut Ops) -> Result<TracedSimPass, String> {
    let cfg = &plan.cfg;
    let mut tally = Tally::default();

    let setup_start = Instant::now();
    let setup = trace.open("setup", None, setup_start);
    let mut sim = TracedSim::new(plan, trace, setup)?;
    sim.step_to(cfg.warmup, cfg.warmup, trace, setup, &mut tally);
    trace.close(setup, Instant::now());
    let counts = |sim: &TracedSim| Counts {
        net: *sim.net.counters(),
        ctl: Controller::counters(&sim.ctl.inner),
    };
    let at_warmup = counts(&sim);
    // Set-up counts are not the timed region's.
    tally = Tally {
        replay: std::mem::take(&mut tally.replay),
        ..Tally::default()
    };

    if plan.shards > 1 {
        sim.net.set_phase_stats(true);
    }
    let mut roundtrips = 0;
    let mut checkpoint_bytes = 0;
    let mut segments = Vec::new();
    let timed_root = trace.open("timed_region", None, Instant::now());
    for _ in 0..SEGMENTS {
        let flits_before = sim.net.counters().delivered_flits;
        let seg_start = Instant::now();
        let seg_end = sim.net.now() + plan.segment_len();
        while sim.net.now() < seg_end {
            let stop = match plan.roundtrip_every {
                Some(every) => (sim.net.now() / every + 1) * every,
                None => seg_end,
            };
            sim.step_to(stop.min(seg_end), cfg.warmup, trace, timed_root, &mut tally);
            if plan.roundtrip_every.is_none() {
                continue;
            }
            roundtrips += 1;
            let start = Instant::now();
            let trip = trace.open("checkpoint.roundtrip", Some(timed_root), start);
            let bytes = sim.checkpoint(cfg);
            let serialized = Instant::now();
            trace.span("checkpoint.serialize", Some(trip), start, serialized);
            checkpoint_bytes = bytes.len();
            let restore = trace.open("checkpoint.restore", Some(trip), serialized);
            match TracedSim::restore(plan, &bytes, trace, restore) {
                Ok(fresh) => sim = fresh,
                Err(e) => ops.fail(format!("traced restore at cycle {}: {e}", sim.net.now())),
            }
            let end = Instant::now();
            trace.close(restore, end);
            trace.close(trip, end);
        }
        segments.push(Segment {
            wall_s: seg_start.elapsed().as_secs_f64(),
            cycles: plan.segment_len(),
            flits: sim.net.counters().delivered_flits - flits_before,
        });
    }
    trace.close(timed_root, Instant::now());

    let start = Instant::now();
    let audit = sim.net.audit();
    let audit_ms = start.elapsed().as_secs_f64() * 1e3;
    ops.check(audit.is_clean(), || {
        format!("traced end-state audit: {audit}")
    });

    Ok(TracedSimPass {
        setup_root: setup,
        timed_root,
        segments,
        at_warmup,
        at_end: counts(&sim),
        threshold_final: Controller::threshold(&sim.ctl.inner),
        phase: sim.net.phase_stats(),
        audit_ms,
        roundtrips,
        checkpoint_bytes,
        sideband: replay_sideband(&cfg.scheme, &tally.replay),
        tally,
    })
}

// ----------------------------------------------------------------------
// The sweep workload
// ----------------------------------------------------------------------

/// One sweep point as the traced job list ran it.
#[derive(Debug)]
struct PointRun {
    row: Vec<String>,
    ctl: ControllerCounters,
    start: Instant,
    end: Instant,
    worker: usize,
}

/// What the traced sweep produced.
#[derive(Debug)]
pub struct TracedSweepPass {
    pub wall_s: f64,
    pub jobs1_wall_s: f64,
    pub point_ms: Vec<f64>,
    pub ctl: ControllerCounters,
}

/// The figure's job list (`controllers::generate_filtered` builds the
/// same one; its golden CSV is what keeps the two equal).
fn sweep_jobs(schemes: &[Scheme]) -> Vec<(SimConfig, f64)> {
    let mut jobs = Vec::new();
    for pattern in all_patterns() {
        for scheme in schemes {
            for (i, &rate) in sweep_rates_for(SWEEP_SCALE).iter().enumerate() {
                let cfg = steady_config(
                    SWEEP_NET.net(DeadlockMode::PAPER_RECOVERY),
                    scheme.clone(),
                    pattern.clone(),
                    rate,
                    SWEEP_SCALE,
                    0xC0_2200 + i as u64,
                );
                jobs.push((cfg, rate));
            }
        }
    }
    jobs
}

fn run_points(
    jobs: usize,
    schemes: &[Scheme],
) -> Result<(Vec<PointRun>, Instant, Instant), String> {
    let workers: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let worker_index = || {
        let id = std::thread::current().id();
        let mut seen = workers.lock().expect("no job panics holding this lock");
        seen.iter().position(|&w| w == id).unwrap_or_else(|| {
            seen.push(id);
            seen.len() - 1
        })
    };
    let start = Instant::now();
    let outcomes = Pool::new(jobs).run(
        sweep_jobs(schemes),
        |(cfg, _)| cfg.scheme.label(),
        |(cfg, rate)| {
            let start = Instant::now();
            let pattern = cfg.workload.phases()[0].pattern.name();
            let scheme = cfg.scheme.label();
            let (r, report) = try_run_point_instrumented(cfg, None)?;
            Ok::<_, JobError>(PointRun {
                row: vec![
                    pattern.to_owned(),
                    scheme,
                    fnum(rate),
                    fnum(r.tput_packets),
                    fnum(r.tput_flits),
                    fnum(r.latency),
                    fnum(r.fairness),
                    r.throttled.to_string(),
                ],
                ctl: report.controller,
                start,
                end: Instant::now(),
                worker: worker_index(),
            })
        },
    );
    let end = Instant::now();
    let points = outcomes
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok((points, start, end))
}

/// The traced sweep: the figure's job list through the public `Pool::run`
/// with a timed closure around each point, at [`SWEEP_JOBS`] jobs and once
/// more at 1 job. Its rows must equal `untraced_rows`.
pub fn run_sweep(
    n_schemes: usize,
    untraced_rows: &[Vec<String>],
    trace: &mut Trace,
    ops: &mut Ops,
) -> Result<TracedSweepPass, String> {
    let schemes = sweep_schemes(n_schemes);
    let (points, start, end) = run_points(SWEEP_JOBS, &schemes)?;
    let root = trace.span("timed_region", None, start, end);
    let mut ctl = ControllerCounters::default();
    for p in &points {
        let id = trace.span("experiments.point", Some(root), p.start, p.end);
        trace.set_worker(id, p.worker);
        ctl.decisions += p.ctl.decisions;
        ctl.raises += p.ctl.raises;
        ctl.cuts += p.ctl.cuts;
        ctl.resets += p.ctl.resets;
    }
    let rows: Vec<&Vec<String>> = points.iter().map(|p| &p.row).collect();
    ops.check(rows.iter().copied().eq(untraced_rows.iter()), || {
        "traced sweep rows differ from the untraced table".to_owned()
    });
    let (_, start1, end1) = run_points(1, &schemes)?;
    Ok(TracedSweepPass {
        wall_s: (end - start).as_secs_f64(),
        jobs1_wall_s: (end1 - start1).as_secs_f64(),
        point_ms: points
            .iter()
            .map(|p| (p.end - p.start).as_secs_f64() * 1e3)
            .collect(),
        ctl,
    })
}
