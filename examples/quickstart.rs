//! Quickstart: run the paper's self-tuned congestion control on a small
//! wormhole torus and print what it delivered.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stcc::prelude::*;
use stcc::Simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-ary 2-cube (64 nodes) with Disha deadlock recovery, uniform
    // random traffic at 0.02 packets/node/cycle — comfortably beyond this
    // network's saturation point, where an uncontrolled network collapses.
    let cfg = SimConfig {
        net: NetConfig::small(DeadlockMode::PAPER_RECOVERY),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.02)),
        scheme: Scheme::tuned_paper(),
        cycles: 30_000,
        warmup: 5_000,
        seed: 42,
    };
    let mut sim = Simulation::new(cfg)?;
    sim.run_to_end();

    let s = sim.summary()?;
    println!("nodes                : {}", s.nodes);
    println!(
        "offered load         : {:.4} packets/node/cycle",
        s.offered_rate
    );
    println!(
        "delivered bandwidth  : {:.4} flits/node/cycle",
        s.throughput_flits()
    );
    println!("delivered packets    : {}", s.delivered_packets);
    println!(
        "mean network latency : {:.1} cycles",
        s.network_latency.mean().unwrap_or(f64::NAN)
    );
    println!("throttled injections : {}", s.throttled_injections);
    if let Some(t) = sim.tuned() {
        println!(
            "final threshold      : {:.0} full buffers (of {})",
            t.threshold().unwrap_or(f64::NAN),
            sim.network().total_vc_buffers()
        );
        println!("tuning decisions     : {}", t.counters().decisions);
    }
    Ok(())
}
