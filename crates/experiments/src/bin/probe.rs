//! Ad-hoc probe: windowed throughput over time for one configuration.
//! Usage: `probe <scheme> <rate> <recovery|avoidance> <cycles>`
use experiments::{Pool, RuntimeOptions, SweepCtx};
use stcc::{Scheme, SimConfig};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

/// Reports a usage/configuration error and exits (probe is ad-hoc tooling,
/// but it must fail with a message, not a panic backtrace).
fn bail(msg: &str) -> ! {
    eprintln!("probe: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scheme = match args.first().map(String::as_str) {
        None => Scheme::Base,
        Some(name) => match Scheme::by_name(name, &sideband::SidebandConfig::paper()) {
            Some(s) => s,
            None => bail(&format!(
                "unknown scheme '{name}' ({}|static-<N>)",
                Scheme::registry_names().join("|")
            )),
        },
    };
    let rate: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let deadlock = match args.get(2).map(String::as_str) {
        Some("avoidance") => DeadlockMode::Avoidance,
        _ => DeadlockMode::PAPER_RECOVERY,
    };
    let cycles: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let cfg = SimConfig {
        net: NetConfig::paper(deadlock),
        workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(rate)),
        scheme,
        cycles,
        warmup: cycles / 6,
        seed: 42,
    };
    let opts = RuntimeOptions::from_env().unwrap_or_else(|msg| bail(&msg));
    let ctx = SweepCtx::bare(Pool::new(1)).with_options(opts);
    let r = match ctx.try_run_series(cfg, 4000) {
        Ok(r) => r,
        Err(e) => bail(&format!("{e}")),
    };
    println!("t,tput_flits_node_cyc,full_buffers,threshold");
    let fb: Vec<_> = r.full_buffers.points().to_vec();
    let th: Vec<_> = r.threshold.points().to_vec();
    for (i, (t, v)) in r.tput.normalized(r.nodes).enumerate() {
        let f = fb.get(i).map_or(f64::NAN, |&(_, v)| v);
        let h = th.get(i).map_or(f64::NAN, |&(_, v)| v);
        println!("{t},{v:.4},{f},{h:.0}");
    }
    println!(
        "# latency={:.1} latency_total={:.1} recovered={}",
        r.latency, r.latency_total, r.recovered
    );
}
