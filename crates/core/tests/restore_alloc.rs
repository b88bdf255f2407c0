//! Proves a restore builds the simulation it returns and nothing beside it.
//!
//! A counting global allocator wraps the system allocator and keeps the
//! live heap and its high-water mark. A saturated paper-net run is
//! checkpointed and restored; the heap `Simulation::restore` holds at its
//! peak, above what was live before the call, must stay within
//! [`MAX_PEAK_OVER_KEPT`] of the heap the restored simulation keeps. A
//! restore that first builds an empty network and then decodes a second
//! set of arenas beside it (and a third switch plane) peaks at about 1.8×
//! what it keeps (1.78 measured on this test); decoding straight into the
//! network it returns peaks at 1.02×, the decoder's scratch above it. The
//! simulation is deterministic, so the ratio is the same on every run.
//!
//! Everything lives in one `#[test]` because the counters are
//! process-global: a second test running concurrently would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stcc::{Scheme, SimConfig, Simulation};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as the new block in before the old one goes out: a
            // moving realloc holds both.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The most a restore may hold at its peak, as a multiple of what the
/// restored simulation keeps.
const MAX_PEAK_OVER_KEPT: f64 = 1.25;

#[test]
fn a_restore_peaks_at_the_simulation_it_keeps() {
    // The paper net under the self-tuned throttle, offered past its
    // saturation point (the benchmark's `resume_storm` load).
    let cfg = SimConfig {
        net: NetConfig::paper(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.1)),
        scheme: Scheme::tuned_paper(),
        cycles: 10_000,
        warmup: 1_000,
        seed: 7,
    };
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    while sim.now() < 3_000 {
        sim.step();
    }
    assert!(
        sim.network().full_buffer_count() > 0,
        "vacuous: the network is not congested"
    );
    let bytes = sim.checkpoint();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let restored = Simulation::restore(cfg, None, &bytes).expect("a clean restore");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let kept = LIVE.load(Ordering::Relaxed) - before;

    assert_eq!(restored.checkpoint(), bytes, "the restore is not the run");
    let ratio = peak as f64 / kept as f64;
    assert!(
        ratio <= MAX_PEAK_OVER_KEPT,
        "a restore peaked at {peak} B above its caller's heap to keep {kept} B \
         ({ratio:.2}×, at most {MAX_PEAK_OVER_KEPT}× allowed)"
    );
}
