//! Custom workload on the raw simulator API: a hotspot pattern driven
//! through `wormsim::Network` directly, with the ALO and self-tuned
//! controllers plugged in via the `CongestionControl` trait.
//!
//! Demonstrates the substrate-level API (everything below the `Simulation`
//! facade): you provide a source closure and a controller, the network does
//! the rest.
//!
//! ```sh
//! cargo run --release --example custom_pattern
//! ```

use stcc::{AloControl, Controller, SelfTuned, TuneConfig};
use traffic::SimRng;
use wormsim::{CongestionControl, DeadlockMode, NetConfig, Network, NoControl};

/// 30% of packets target node 0; the rest go to uniformly random nodes.
fn hotspot_source(rng: &mut SimRng, nodes: usize, node: usize) -> Option<usize> {
    // ~0.03 packets/node/cycle offered.
    if rng.random() >= 0.03 {
        return None;
    }
    if rng.random() < 0.3 {
        Some(0)
    } else {
        let d = rng.random_index(0..nodes - 1);
        Some(if d >= node { d + 1 } else { d })
    }
}

fn net_config() -> NetConfig {
    NetConfig::small(DeadlockMode::PAPER_RECOVERY)
}

fn run(ctl: &mut dyn CongestionControl) -> (f64, u64) {
    let mut net = Network::new(net_config()).expect("valid small network");
    let nodes = net.torus().node_count();
    let mut rng = SimRng::seed_from_u64(0x407);
    let cycles = 30_000u64;
    let mut source = move |_now: u64, node: usize| hotspot_source(&mut rng, nodes, node);
    net.run(cycles, &mut source, ctl);
    let tput = net.counters().delivered_flits as f64 / (cycles as f64 * nodes as f64);
    (tput, net.counters().throttled_injections)
}

fn main() {
    println!("hotspot workload (30% of traffic to node 0), 8-ary 2-cube, recovery");
    println!(
        "{:<10} {:>14} {:>12}",
        "scheme", "tput (flits)", "throttled"
    );
    let (tput, thr) = run(&mut NoControl);
    println!("{:<10} {tput:>14.4} {thr:>12}", "base");
    let (tput, thr) = run(&mut AloControl::new());
    println!("{:<10} {tput:>14.4} {thr:>12}", "alo");
    // The tuner's side-band gathers over the network it runs on.
    let mut tuned = SelfTuned::new(TuneConfig::for_net(&net_config()));
    let (tput, thr) = run(&mut tuned);
    println!("{:<10} {tput:>14.4} {thr:>12}", "tune");
    println!(
        "\ntune finished with threshold {:.0} full buffers",
        tuned.threshold().unwrap_or(f64::NAN)
    );
}
