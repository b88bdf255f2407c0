//! Stress, affinity and lifecycle gates for the persistent shard worker
//! pool.
//!
//! Three properties ride here, serialized through one lock because they
//! probe process-global thread state or need the host's cores to
//! themselves:
//!
//! * **Barrier stress** — 10 000 audited cycles at eight shards on a
//!   64-node torus, interrupted by a mid-run checkpoint/restore, must land
//!   on the exact bytes of an uninterrupted single-shard run.
//! * **Affinity** — on a host with a second core, a shard is claimed pass
//!   after pass by the participant it is home to.
//! * **Teardown and thread cap** — a pool never runs more threads than
//!   the host has cores, and no worker thread outlives its pool:
//!   `set_shards` rebuilds the plan (joining the old workers first) and
//!   dropping the simulation joins the last pool, verified by counting the
//!   process's `stcc-shard-*` threads.

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

/// Re-reads the worker count until it reads `want` (or a generous
/// deadline passes): joins are synchronous, but a joined thread's `/proc`
/// entry may outlive the join by a moment, and a spawned thread names
/// itself only once it first runs.
#[cfg(target_os = "linux")]
fn settled_worker_count(want: usize) -> usize {
    let mut n = worker_count();
    for _ in 0..200 {
        if n == want {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        n = worker_count();
    }
    n
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Home-first claiming keeps a shard on one thread: over 5 000 cycles at
/// two shards, at least 99 % of the claims (one claim runs a shard's whole
/// pass) are made by the shard's home participant. The rest are what the
/// coordinator sweeps up while the worker is off its core. That is the
/// host's doing, not the protocol's — a burst of other load, or a
/// scheduler that starts both threads on one core and takes its time to
/// part them (a KVM guest's idle vCPU looks preempted, so wake-ups stack
/// on the busy one) — so the run goes on, for up to `STRETCHES` stretches
/// of 5 000 cycles, until one of them passes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build audits the whole network on the coordinator's thread after every \
              cycle, long enough for the worker to fall asleep: not the steady state this \
              measures. Run with --release (scripts/ci.sh does)"
)]
fn claims_stay_home_when_there_is_a_core_per_participant() {
    const STRETCHES: u64 = 40;
    let _g = LOCK.lock().unwrap();
    if cores() < 2 {
        eprintln!(
            "=== !!! SKIPPED: claims_stay_home_when_there_is_a_core_per_participant — \
             this host has one core, so the coordinator claims every shard; \
             shard affinity is NOT checked here"
        );
        return;
    }
    // The paper's 256-node torus, saturated: a shard's pass takes long
    // enough that a worker a cache miss behind the coordinator still gets
    // to its home shard first. The first thousand cycles give the
    // scheduler time to put the two threads on a core each.
    let mut sim = Simulation::new(SimConfig {
        net: NetConfig::paper(DeadlockMode::PAPER_RECOVERY),
        cycles: 1_000 + STRETCHES * 5_000,
        warmup: 1_000,
        ..cfg(0.05)
    })
    .unwrap();
    sim.set_shards(2);
    let mut seen = Vec::new();
    for stretch in 1..=STRETCHES {
        while sim.now() < stretch * 5_000 - 4_000 {
            sim.step();
        }
        sim.set_phase_stats(true);
        while sim.now() < stretch * 5_000 + 1_000 {
            sim.step();
        }
        let stats = sim.phase_stats().unwrap();
        let claims = stats.home_claims + stats.stolen_claims;
        assert_eq!(
            claims,
            2 * 2 * 5_000,
            "two passes a cycle claim two shards each: {stats:?}"
        );
        seen.push(stats);
        if stats.home_claims * 100 >= claims * 99 {
            return;
        }
    }
    panic!("shards wandered between threads: {seen:#?}");
}

#[test]
#[cfg(target_os = "linux")]
fn no_worker_thread_outlives_the_simulation() {
    let _g = LOCK.lock().unwrap();
    assert_eq!(settled_worker_count(0), 0, "workers alive before any pool");

    let mut sim = Simulation::new(cfg(0.05)).unwrap();
    sim.set_shards(4);
    for _ in 0..64 {
        sim.step();
    }
    let workers = cores().min(4) - 1;
    assert_eq!(
        settled_worker_count(workers),
        workers,
        "four shards are stepped by the caller and a worker per further core, up to three"
    );

    // Replacing the plan joins the old pool before anything else runs.
    sim.set_shards(1);
    assert_eq!(
        settled_worker_count(0),
        0,
        "set_shards(1) left worker threads behind"
    );

    // More shards than cores buy no more threads than cores.
    sim.set_shards(8);
    for _ in 0..64 {
        sim.step();
    }
    let workers = cores().min(8) - 1;
    assert_eq!(settled_worker_count(workers), workers);
    drop(sim);
    assert_eq!(
        settled_worker_count(0),
        0,
        "dropping the simulation left worker threads behind"
    );
}
