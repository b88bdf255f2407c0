//! Bursty adaptation: watch the self-tuned threshold move as the workload
//! alternates between quiet phases and heavy bursts of changing
//! communication patterns (the paper's Figures 6 and 7, in miniature).
//!
//! ```sh
//! cargo run --release --example bursty_adaptation
//! ```

use stcc::prelude::*;
use stcc::Simulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let phase = 6_000u64;
    let workload = Workload::bursty(phase, 1_500, 15);
    let cycles = 9 * phase;
    let net = NetConfig::small(DeadlockMode::PAPER_RECOVERY);
    let cfg = SimConfig {
        // The tuner's side-band gathers over the network it runs on.
        scheme: Scheme::Tuned(TuneConfig::for_net(&net)),
        net,
        workload: workload.clone(),
        cycles,
        warmup: phase / 2,
        seed: 99,
    };
    let mut sim = Simulation::new(cfg)?;

    println!(
        "{:>8} {:>18} {:>10} {:>12} {:>10}",
        "cycle", "pattern", "offered", "tput(flits)", "threshold"
    );
    let window = 2_000u64;
    let mut last_flits = 0u64;
    while sim.now() < cycles {
        sim.step();
        if sim.now() % window == 0 {
            let now = sim.now();
            let cum = sim.network().delivered_flits_cum();
            let tput = (cum - last_flits) as f64
                / (window as f64 * sim.network().torus().node_count() as f64);
            last_flits = cum;
            let (phase_idx, _) = workload.phase_at(now);
            let p = &workload.phases()[phase_idx];
            let threshold = sim
                .tuned()
                .and_then(stcc::SelfTuned::threshold)
                .unwrap_or(f64::NAN);
            println!(
                "{now:>8} {:>18} {:>10.4} {tput:>12.4} {threshold:>10.0}",
                p.pattern.name(),
                p.process.offered_rate(),
            );
        }
    }
    let s = sim.summary()?;
    println!(
        "\nmean latency {:.1} cycles over {} delivered packets",
        s.network_latency.mean().unwrap_or(f64::NAN),
        s.delivered_packets
    );
    Ok(())
}
