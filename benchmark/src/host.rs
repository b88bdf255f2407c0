//! Readings of the host itself: a fixed spin that shows drift of a shared
//! machine, and the process's peak resident set.

use std::time::{Duration, Instant};
use traffic::SimRng;

/// Millions of `SimRng::next_u64` calls per second over a fixed 200 ms
/// spin. Not a property of the simulator: when it moves between two runs,
/// the host moved, and a timing difference of the same size is unresolved.
pub fn calib_mops() -> f64 {
    const BATCH: u64 = 1 << 16;
    let mut rng = SimRng::seed_from_u64(0x5eed);
    let mut acc = 0u64;
    let mut calls = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(200) {
        for _ in 0..BATCH {
            acc ^= rng.next_u64();
        }
        calls += BATCH;
    }
    std::hint::black_box(acc);
    calls as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// `VmHWM` of this process in MB (MiB), or `None` where `/proc` does not
/// provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
