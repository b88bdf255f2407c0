//! Stress and lifecycle gates for the persistent shard worker pool.
//!
//! Two properties ride here, serialized through one lock because both
//! probe process-global thread state:
//!
//! * **Barrier stress** — 10 000 audited cycles at eight shards on a
//!   64-node torus, interrupted by a mid-run checkpoint/restore, must land
//!   on the exact bytes of an uninterrupted single-shard run.
//! * **Teardown** — no worker thread outlives its pool: `set_shards`
//!   rebuilds the plan (joining the old workers first) and dropping the
//!   simulation joins the last pool, verified by counting the process's
//!   `stcc-shard-*` threads.

use std::sync::Mutex;

use stcc::{Scheme, SimConfig, Simulation};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn cfg(rate: f64) -> SimConfig {
    SimConfig {
        net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme: Scheme::Base,
        cycles: 10_000,
        warmup: 2_000,
        seed: 17,
    }
}

/// Ten thousand cycles at eight shards on the 64-node torus with the full
/// invariant audit every 64 cycles, a checkpoint taken mid-run, the
/// simulation (and with it the worker pool) destroyed, and the run resumed
/// from the snapshot — the final state must be byte-identical to an
/// uninterrupted single-shard run. This is the epoch barrier's endurance
/// test: ~20 000 dispatch/claim rounds with every audit in between.
#[test]
fn barrier_stress_audited_eight_shard_run_survives_interruption() {
    let _g = LOCK.lock().unwrap();
    let cfg = cfg(0.10);

    let mut golden = Simulation::new(cfg.clone()).unwrap();
    golden.set_shards(1);
    golden.set_audit_every(Some(64));
    golden.run_to_end();
    let golden_end = golden.checkpoint();

    let mut sharded = Simulation::new(cfg.clone()).unwrap();
    sharded.set_shards(8);
    sharded.set_audit_every(Some(64));
    while sharded.now() < 4_321 {
        sharded.step();
    }
    let snap = sharded.checkpoint();
    drop(sharded); // the simulated kill: pool and workers die here

    let mut resumed = Simulation::restore(cfg, None, &snap).unwrap();
    resumed.set_shards(8);
    resumed.set_audit_every(Some(64));
    resumed.run_to_end();
    assert_eq!(
        resumed.checkpoint(),
        golden_end,
        "interrupted eight-shard run diverged from the single-shard reference"
    );
}

/// Live shard-worker threads of this process: those the pool named
/// `stcc-shard-<n>`. (Counting every thread would count libtest's own,
/// which come and go underneath the probe.)
#[cfg(target_os = "linux")]
fn worker_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("stcc-shard"))
        .count()
}

/// Re-reads the worker count until it drops to zero (or a generous
/// deadline passes): joins are synchronous, but a joined thread's `/proc`
/// entry may outlive the join by a moment.
#[cfg(target_os = "linux")]
fn settled_worker_count() -> usize {
    let mut n = worker_count();
    for _ in 0..200 {
        if n == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        n = worker_count();
    }
    n
}

#[test]
#[cfg(target_os = "linux")]
fn no_worker_thread_outlives_the_simulation() {
    let _g = LOCK.lock().unwrap();
    assert_eq!(settled_worker_count(), 0, "workers alive before any pool");

    let mut sim = Simulation::new(cfg(0.05)).unwrap();
    sim.set_shards(4);
    for _ in 0..64 {
        sim.step();
    }
    assert_eq!(
        worker_count(),
        3,
        "four shards must spawn three persistent workers"
    );

    // Replacing the plan joins the old pool before anything else runs.
    sim.set_shards(1);
    assert_eq!(
        settled_worker_count(),
        0,
        "set_shards(1) left worker threads behind"
    );

    sim.set_shards(4);
    for _ in 0..64 {
        sim.step();
    }
    assert_eq!(worker_count(), 3);
    drop(sim);
    assert_eq!(
        settled_worker_count(),
        0,
        "dropping the simulation left worker threads behind"
    );
}
