//! Proves a restore builds the simulation it returns and nothing beside it,
//! and pins the dense per-VC footprint of a fresh network.
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
//! A second phase builds a fresh 12-ary 3-cube `Network` (31 104 input
//! VCs) under each deadlock mode and counts the heap it keeps, less the
//! two arenas whose memory follows the traffic rather than the network's
//! size: the flit lines (a line of 8-byte slots per input VC, written only
//! as rings take lines) and the source queues' reserved entries (rows
//! written only as queues reach them). What is left is what every VC
//! costs whether or not a worm ever enters it: at most
//! [`MAX_DENSE_BYTES_PER_VC`] per input VC under recovery, and
//! [`MAX_AVOIDANCE_BYTES_PER_VC`] under avoidance, which reserves nothing
//! for the recovery machinery.
//!
//! Everything lives in one `#[test]` because the counters are
//! process-global: a second test running concurrently would pollute them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stcc::{Scheme, SimConfig, Simulation};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig, Network};

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

/// The most heap a fresh network may keep per input VC beside its flit
/// lines and source-queue entries; 48.8 B is kept. About 30 B of it is a
/// VC's own state: its ring cursor and its routing word (8 B each), its
/// switch-plane entry (8 B, and a 19th feeder's per 18 VCs), its
/// assignment (3 B), two flags and its share of the arbiter cursors (a
/// byte per output channel). Per-node words add ~6 B, and reservations
/// the pipeline writes only under recovery traffic add 12 B: the token
/// queue and the route pass's suspect and trip lists, 4 B per VC each.
/// Separate routing-cycle and blocked-count words, a 64-bit move cycle,
/// an output-slot table, a free-line array and word-wide cursors kept
/// 72.3 B.
const MAX_DENSE_BYTES_PER_VC: f64 = 52.0;

/// [`MAX_DENSE_BYTES_PER_VC`] under avoidance, which never suspects, trips
/// or queues a VC for the token and so reserves none of the 12 B those
/// lists take under recovery: 36.8 B is kept. Reserving them regardless
/// kept 48.8 B.
const MAX_AVOIDANCE_BYTES_PER_VC: f64 = 40.0;

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
    drop((restored, sim));

    // The dense footprint of a fresh 12-ary 3-cube in each mode.
    for (mode, bound) in [
        (DeadlockMode::PAPER_RECOVERY, MAX_DENSE_BYTES_PER_VC),
        (DeadlockMode::Avoidance, MAX_AVOIDANCE_BYTES_PER_VC),
    ] {
        let cube = NetConfig {
            radix: 12,
            dimensions: 3,
            ..NetConfig::paper(mode)
        };
        let before = LIVE.load(Ordering::Relaxed);
        let net = Network::new(cube).expect("valid config");
        let kept = LIVE.load(Ordering::Relaxed) - before;
        let vcs = net.flit_lines().total;
        assert_eq!(vcs, 31_104);
        let dense = kept
            .checked_sub(net.sparse_arena_bytes())
            .expect("the sparse arenas' reservations are part of the heap the network keeps");
        let per_vc = dense as f64 / vcs as f64;
        assert!(
            per_vc <= bound,
            "a fresh 12-ary 3-cube under {mode:?} keeps {kept} B, {dense} B of it beside \
             its flit lines and source queues: {per_vc:.1} B per input VC, at most \
             {bound} allowed"
        );
        drop(net);
    }
}
