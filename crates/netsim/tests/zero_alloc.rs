//! Proves the simulator's steady-state cycle pipeline is allocation-free.
//!
//! A counting global allocator wraps the system allocator; after a warmup
//! that lets every arena, slab and scratch buffer reach its high-water
//! capacity, thousands of saturated-traffic cycles (including regular
//! delivery drains) must perform **zero** heap allocations — in both
//! deadlock modes. The simulation is fully deterministic, so this test
//! either always passes or always fails for a given build: there is no
//! allocator-timing flakiness to mask a hot-path regression.
//!
//! Everything lives in one `#[test]` because the counter is process-global:
//! a second test running concurrently would pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use traffic::{Pattern, Phase, Process, Workload, WorkloadRunner};
use wormsim::{DeadlockMode, NetConfig, Network, NoControl, Offer};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// A saturating deterministic uniform-random source (every node offers a
/// packet most cycles). The closure captures only a `u64` seed: polling it
/// never allocates.
fn saturating_source(nodes: usize) -> impl FnMut(u64, usize) -> Option<usize> {
    let mut x = 0x5EED_0BAD_F00Du64;
    move |_now, node| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(node as u64 + 1);
        Some(((x >> 33) as usize) % nodes)
    }
}

/// The workload runner as a saturating source: 1 000-cycle phases
/// alternating a Bernoulli and a periodic process, so the measurement
/// window crosses phase entries (every deadline re-drawn, the wheel
/// rebuilt) as well as the wheel scan, the gap sampler and the re-file.
fn saturating_runner(nodes: usize) -> WorkloadRunner {
    let phases = (0..40)
        .map(|i| Phase {
            duration: 1_000,
            pattern: Pattern::UniformRandom,
            process: if i % 2 == 0 {
                Process::bernoulli(0.4)
            } else {
                Process::periodic(3)
            },
        })
        .collect();
    WorkloadRunner::new(&Workload::phased(phases), nodes, 0x5EED).expect("valid workload")
}

/// Warms `net` to its steady-state memory high-water, then runs `measure`
/// more cycles asserting not a single allocator call. Deliveries are
/// drained every 32 cycles during measurement — the drain itself must be
/// allocation-free too — and every 64 during warmup, so the delivery
/// ring's warmed capacity upper-bounds any measurement-window backlog.
/// `from_runner` steps through the batched arrival entry fed by a
/// [`WorkloadRunner`] (what `Simulation::step` does) instead of the
/// per-node closure.
fn assert_zero_alloc_steady_state(label: &str, cfg: NetConfig, shards: usize, from_runner: bool) {
    let nodes = cfg.node_count();
    let mut net = Network::new(cfg).expect("valid config");
    // Worker-pool spawn and the per-shard lists and pass copies are
    // one-time costs paid here, before the warmup; the sharded steady
    // state — claims, parallel passes, the wait for a pass's end,
    // park/unpark — must then be exactly as allocation-free as the inline
    // path.
    net.set_shards(shards);
    let mut src = saturating_source(nodes);
    let mut runner = saturating_runner(nodes);
    let mut cycle = |net: &mut Network| {
        if from_runner {
            let mut arrivals = |now: u64, offer: &mut Offer<'_>| runner.arrivals(now, offer);
            net.cycle_from(&mut arrivals, &mut NoControl);
        } else {
            net.cycle(&mut src, &mut NoControl);
        }
    };
    for c in 0..20_000u64 {
        cycle(&mut net);
        if c.is_multiple_of(64) {
            net.drain_deliveries().for_each(drop);
        }
    }
    net.drain_deliveries().for_each(drop);

    let before = alloc_calls();
    for c in 0..4_000u64 {
        cycle(&mut net);
        if c.is_multiple_of(32) {
            net.drain_deliveries().for_each(drop);
        }
    }
    let during = alloc_calls() - before;
    assert_eq!(
        during, 0,
        "{label}: {during} heap allocations in 4000 post-warmup cycles; \
         the hot path must not allocate"
    );
    // The network really was working, not idling through the measurement.
    assert!(
        net.counters().delivered_packets > 0,
        "{label}: no traffic delivered; the measurement is vacuous"
    );
}

#[test]
fn steady_state_cycles_never_allocate() {
    // Disha recovery: exercises timeout detection, the token queue, the
    // recovery drain and its recycled path scratch.
    assert_zero_alloc_steady_state(
        "recovery",
        NetConfig {
            source_queue_cap: 4,
            ..NetConfig::small(DeadlockMode::PAPER_RECOVERY)
        },
        1,
        false,
    );
    // Duato avoidance: exercises escape-channel allocation and the sticky
    // escape flags — stepped through the batched arrival entry
    // (`Network::cycle_from`) from the workload runner's arrival path, as
    // `Simulation::step` does.
    assert_zero_alloc_steady_state(
        "avoidance, runner arrivals",
        NetConfig {
            source_queue_cap: 4,
            ..NetConfig::small(DeadlockMode::Avoidance)
        },
        1,
        true,
    );
    // Sharded stepping (the `STCC_SHARDS=4` configuration): the persistent
    // worker pool's dispatch/claim/park cycle and the passes' suspect,
    // parked and delivered lists (preallocated per shard at one per input
    // VC, network port or node) must allocate nothing once the pool is up.
    assert_zero_alloc_steady_state(
        "recovery@shards=4",
        NetConfig {
            source_queue_cap: 4,
            ..NetConfig::small(DeadlockMode::PAPER_RECOVERY)
        },
        4,
        false,
    );
}
