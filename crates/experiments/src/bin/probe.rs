//! Ad-hoc probe: windowed throughput over time for one configuration on
//! the paper's network.
//! Usage: `probe [scheme] [rate] [recovery|avoidance] [cycles]` (defaults:
//! `base 0.05 recovery 100000`). Exit codes: 0 done, 2 a malformed argument
//! or `STCC_*` value or an invalid configuration.
use experiments::{Pool, RuntimeOptions, SweepCtx};
use stcc::{Scheme, SimConfig};
use traffic::{Pattern, Process, Workload};
use wormsim::{DeadlockMode, NetConfig};

const USAGE: &str = "usage: probe [scheme] [rate] [recovery|avoidance] [cycles]";

/// Reports a usage/configuration error and exits (probe is ad-hoc tooling,
/// but it must fail with a message, not a panic backtrace).
fn bail(msg: &str) -> ! {
    eprintln!("probe: {msg}");
    std::process::exit(2);
}

/// The positional arguments, each defaulted when absent and refused when
/// present but malformed.
fn parse(args: &[String]) -> Result<(Scheme, f64, DeadlockMode, u64), String> {
    if args.len() > 4 {
        return Err(format!("too many arguments ({USAGE})"));
    }
    let arg = |i: usize| args.get(i).map(String::as_str);
    let scheme = match arg(0) {
        None => Scheme::Base,
        Some(name) => {
            Scheme::by_name(name, &sideband::SidebandConfig::paper()).ok_or_else(|| {
                format!(
                    "unknown scheme '{name}' ({}|static-<N>)",
                    Scheme::registry_names().join("|")
                )
            })?
        }
    };
    let rate = match arg(1) {
        None => 0.05,
        Some(v) => v.parse().map_err(|_| format!("bad rate '{v}' ({USAGE})"))?,
    };
    let deadlock = match arg(2) {
        None | Some("recovery") => DeadlockMode::PAPER_RECOVERY,
        Some("avoidance") => DeadlockMode::Avoidance,
        Some(v) => return Err(format!("unknown mode '{v}' (recovery|avoidance)")),
    };
    let cycles = match arg(3) {
        None => 100_000,
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad cycle count '{v}' ({USAGE})"))?,
    };
    Ok((scheme, rate, deadlock, cycles))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scheme, rate, deadlock, cycles) = parse(&args).unwrap_or_else(|msg| bail(&msg));
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
