//! Machine-readable netsim performance baselines.
//!
//! Measures the simulator's headline numbers — idle and saturated
//! cycles/s, and checkpoint serialize/restore time — with the same
//! methodology as the `micro` bench, then either writes them as a flat
//! JSON baseline or gates the current build against a committed one:
//!
//! ```text
//! bench_netsim --out BENCH_netsim.json                       # paper preset
//! bench_netsim --gate BENCH_netsim.json                      # fail on >15% regression
//! bench_netsim --preset tiny --tolerance 0.5 --gate BENCH_netsim_tiny.json
//! ```
//!
//! The `paper` preset runs the 16-ary 2-cube (256 nodes); `tiny` runs the
//! 8-ary 2-cube (64 nodes) and is cheap enough that `scripts/ci.sh` gates
//! it unconditionally (with a generous tolerance — it only has to catch
//! order-of-magnitude cliffs on a shared 1-core host). The full paper
//! gate stays opt-in via `STCC_BENCH_GATE=1`. `big` is the 64-ary 3-cube
//! (262,144 nodes), routed from the same per-dimension rows as every
//! other preset; it exists for `--out` records, not for gating.
//!
//! One schema (v4), one parser. The gated rows are the idle and saturated
//! rates, the checkpoint codec times and `shard_overhead_ratio` — the
//! shards=2 / shards=1 saturated throughput ratio, which says whether the
//! persistent worker pool keeps a second shard affordable on this host —
//! each against the committed baseline with the one `--tolerance`. The
//! per-stage work shares of the saturated run, the shard-scaling rows
//! (`saturated_cycles_per_sec@shards=1/2/4`), the decide/apply/barrier
//! time split of a sharded cycle (`phase_*_ns_per_cycle@shards=2`) and the
//! worker pool's tallies over that split run (`pool_*@shards=2`: shards
//! claimed by their home participant or by another, worker parks and
//! unparks) are informational: `--gate` prints their drift but never
//! fails on them.
//! The JSON is hand-rolled and hand-parsed — one metric per line, no
//! dependencies — keeping the build hermetic.

use bench::harness::{BenchConfig, Group};
use std::hint::black_box;
use std::process::ExitCode;
use wormsim::{DeadlockMode, NetConfig, Network, NoControl};

/// Schema tag of a baseline file: the one `--out` writes and the only one
/// `--gate` reads.
const SCHEMA_V4: &str = "stcc-bench-netsim-v4";

/// Largest tolerated regression per metric (fraction; `--tolerance`
/// overrides).
const DEFAULT_TOLERANCE: f64 = 0.15;

/// Which network the baseline measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Preset {
    /// The paper's 16-ary 2-cube (256 nodes).
    Paper,
    /// An 8-ary 2-cube (64 nodes) — fast enough for an always-on CI gate.
    Tiny,
    /// A 64-ary 3-cube (262,144 nodes). One VC and short packets keep the
    /// arenas in memory; measurements use fewer, shorter samples and skip
    /// the checkpoint metrics.
    Big,
}

impl Preset {
    fn parse(s: &str) -> Option<Preset> {
        match s {
            "paper" => Some(Preset::Paper),
            "tiny" => Some(Preset::Tiny),
            "big" => Some(Preset::Big),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Preset::Paper => "paper",
            Preset::Tiny => "tiny",
            Preset::Big => "big",
        }
    }

    fn net(self, deadlock: DeadlockMode) -> NetConfig {
        match self {
            Preset::Paper => NetConfig::paper(deadlock),
            Preset::Tiny => NetConfig::small(deadlock),
            Preset::Big => NetConfig {
                radix: 64,
                dimensions: 3,
                vcs: 1,
                buf_depth: 4,
                packet_len: 4,
                ..NetConfig::paper(deadlock)
            },
        }
    }

    /// Side-band radix matching the torus (the gather tree must cover it).
    fn sideband_radix(self) -> usize {
        match self {
            Preset::Paper => 16,
            Preset::Tiny => 8,
            Preset::Big => 64,
        }
    }
}

/// One measured metric: name, value, and whether bigger is better
/// (throughputs) or worse (latencies). Informational metrics (the stage
/// shares, the phase split) are written to baselines but never gated.
struct Metric {
    name: &'static str,
    value: f64,
    higher_is_better: bool,
    informational: bool,
}

fn measure(preset: Preset) -> Vec<Metric> {
    // The big preset has three orders of magnitude more nodes than tiny:
    // fewer, shorter samples keep a full measurement in the minutes while
    // still stepping hundreds of saturated cycles.
    let (samples, cycles_per_iter, warm_cycles) = match preset {
        Preset::Big => (3, 200u64, 300u64),
        _ => (10, 1_000, 5_000),
    };
    let mut g = Group::new(
        "netsim baseline",
        BenchConfig {
            samples,
            iters_per_sample: 1,
            warmup_iters: 1,
        },
    );

    // Idle torus: the floor cost of one cycle with no live flits.
    {
        let mut net = Network::new(preset.net(DeadlockMode::PAPER_RECOVERY)).unwrap();
        let mut src = |_: u64, _: usize| None;
        g.bench_units("idle", cycles_per_iter as f64, || {
            net.run(cycles_per_iter, &mut src, &mut NoControl);
            black_box(net.now())
        });
    }

    // Saturated: worst-case per-cycle cost (pre-warmed network). Also the
    // run whose stage-visit counters become the v2 share breakdown, and —
    // re-partitioned in place — the v3 shard-scaling rows. The unsharded
    // measurement doubles as the `@shards=1` row; results are bit-identical
    // at every shard count, so the rows differ only in wall-clock.
    let (stages, phase_split, pool_tallies) = {
        let mut net = Network::new(preset.net(DeadlockMode::PAPER_RECOVERY)).unwrap();
        let nodes = net.torus().node_count();
        let mut x = 0usize;
        let mut src = move |_: u64, node: usize| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(node + 1);
            Some((x >> 33) % nodes)
        };
        net.run(warm_cycles, &mut src, &mut NoControl); // warm into saturation
        g.bench_units("saturated", cycles_per_iter as f64, || {
            net.run(cycles_per_iter, &mut src, &mut NoControl);
            black_box(net.counters().delivered_flits)
        });
        for (shards, label) in [(2, "saturated@shards=2"), (4, "saturated@shards=4")] {
            net.set_shards(shards);
            g.bench_units(label, cycles_per_iter as f64, || {
                net.run(cycles_per_iter, &mut src, &mut NoControl);
                black_box(net.counters().delivered_flits)
            });
        }
        // v4 phase split: where a two-shard saturated cycle spends its
        // time — parallel decide, parallel apply + sequential handoff
        // tail, or in the claim protocol and its barriers. Timed outside the
        // benchmark samples above so the instrumentation (two `Instant`
        // reads per phase) never pollutes the throughput rows.
        net.set_shards(2);
        net.set_phase_stats(true);
        let split_cycles = cycles_per_iter * 2;
        net.run(split_cycles, &mut src, &mut NoControl);
        let ps = net
            .phase_stats()
            .expect("phase stats were enabled for the split run");
        net.set_phase_stats(false);
        let per_cycle = |ns: u64| ns as f64 / split_cycles as f64;
        (
            net.counters().stage_cycles(),
            [
                per_cycle(ps.decide_ns),
                per_cycle(ps.apply_ns),
                per_cycle(ps.barrier_ns),
            ],
            // The pool's tallies over the split run: who claimed the
            // shards, and how often a worker slept and was woken.
            [ps.home_claims, ps.stolen_claims, ps.parks, ps.unparks],
        )
    };

    // Checkpoint codec cost on a warmed tuned simulation (skipped on the
    // big preset: a quarter-million-node tuned simulation is not what the
    // checkpoint codec numbers are for).
    if preset != Preset::Big {
        use sideband::SidebandConfig;
        use stcc::{Scheme, SimConfig, Simulation, TuneConfig};
        use traffic::{Pattern, Process, Workload};
        let cfg = SimConfig {
            net: preset.net(DeadlockMode::PAPER_RECOVERY),
            workload: Workload::steady(Pattern::UniformRandom, Process::bernoulli(0.014)),
            scheme: Scheme::Tuned(TuneConfig {
                sideband: SidebandConfig {
                    radix: preset.sideband_radix(),
                    ..SidebandConfig::paper()
                },
                ..TuneConfig::paper()
            }),
            cycles: 1 << 40,
            warmup: 1_000,
            seed: 0xBE7C4,
        };
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        for _ in 0..2_000 {
            sim.step();
        }
        g.bench("ckpt_serialize", || black_box(sim.checkpoint().len()));
        let snap = sim.checkpoint();
        g.bench("ckpt_restore", || {
            let restored = Simulation::restore(cfg.clone(), None, &snap).unwrap();
            black_box(restored.now())
        });
    }

    let r = g.results();
    let by_name = |name: &str| {
        r.iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no bench named {name}"))
    };
    let total = stages.total().max(1) as f64;
    let share = |v: u64| 100.0 * (v as f64) / total;
    let saturated = by_name("saturated").units_per_second().unwrap();
    let saturated_s2 = by_name("saturated@shards=2").units_per_second().unwrap();
    let mut metrics = vec![
        Metric {
            name: "idle_cycles_per_sec",
            value: by_name("idle").units_per_second().unwrap(),
            higher_is_better: true,
            informational: false,
        },
        Metric {
            name: "saturated_cycles_per_sec",
            value: saturated,
            higher_is_better: true,
            informational: false,
        },
    ];
    if preset != Preset::Big {
        metrics.push(Metric {
            name: "ckpt_serialize_ns",
            value: by_name("ckpt_serialize").median_ns,
            higher_is_better: false,
            informational: false,
        });
        metrics.push(Metric {
            name: "ckpt_restore_ns",
            value: by_name("ckpt_restore").median_ns,
            higher_is_better: false,
            informational: false,
        });
    }
    metrics.push(Metric {
        name: "shard_overhead_ratio",
        value: saturated_s2 / saturated,
        higher_is_better: true,
        informational: false,
    });
    metrics.extend([
        Metric {
            name: "saturated_cycles_per_sec@shards=1",
            value: saturated,
            higher_is_better: true,
            informational: true,
        },
        Metric {
            name: "saturated_cycles_per_sec@shards=2",
            value: saturated_s2,
            higher_is_better: true,
            informational: true,
        },
        Metric {
            name: "saturated_cycles_per_sec@shards=4",
            value: by_name("saturated@shards=4").units_per_second().unwrap(),
            higher_is_better: true,
            informational: true,
        },
        Metric {
            name: "stage_share_inject_pct",
            value: share(stages.inject),
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "stage_share_route_pct",
            value: share(stages.route),
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "stage_share_starvation_pct",
            value: share(stages.starvation),
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "stage_share_switch_pct",
            value: share(stages.switch),
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "stage_share_drain_pct",
            value: share(stages.drain),
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "phase_decide_ns_per_cycle@shards=2",
            value: phase_split[0],
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "phase_apply_ns_per_cycle@shards=2",
            value: phase_split[1],
            higher_is_better: false,
            informational: true,
        },
        Metric {
            name: "phase_barrier_ns_per_cycle@shards=2",
            value: phase_split[2],
            higher_is_better: false,
            informational: true,
        },
    ]);
    let [home, stolen, parks, unparks] = pool_tallies;
    for (name, tally, higher_is_better) in [
        ("pool_home_claims@shards=2", home, true),
        ("pool_stolen_claims@shards=2", stolen, false),
        ("pool_parks@shards=2", parks, false),
        ("pool_unparks@shards=2", unparks, false),
    ] {
        metrics.push(Metric {
            name,
            value: tally as f64,
            higher_is_better,
            informational: true,
        });
    }
    metrics
}

/// Renders the baseline as flat JSON, one metric per line.
fn render_json(preset: Preset, metrics: &[Metric]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA_V4}\",\n"));
    out.push_str(&format!("  \"preset\": \"{}\",\n", preset.label()));
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        // Three decimals: enough for the ratio metrics that live near 1.0
        // without turning the throughput rows into noise.
        out.push_str(&format!("  \"{}\": {:.3}{comma}\n", m.name, m.value));
    }
    out.push_str("}\n");
    out
}

/// Extracts `"key": <number>` from the flat baseline format. Returns `None`
/// when the key is absent or its value does not parse.
fn parse_metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "<string>"` from the flat baseline format.
fn parse_string<'j>(json: &'j str, key: &str) -> Option<&'j str> {
    let needle = format!("\"{key}\": \"");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    Some(&rest[..rest.find('"')?])
}

/// Compares a fresh measurement against a baseline value; returns an error
/// line when it regressed beyond `tolerance`.
fn check(m: &Metric, baseline: f64, tolerance: f64) -> Result<String, String> {
    let ratio = m.value / baseline;
    let line = format!(
        "{:<36} baseline {:>14.3}  now {:>14.3}  ({:+.1}%)",
        m.name,
        baseline,
        m.value,
        (ratio - 1.0) * 100.0
    );
    let (regressed, direction) = if m.higher_is_better {
        (ratio < 1.0 - tolerance, "slower")
    } else {
        (ratio > 1.0 + tolerance, "costlier")
    };
    if regressed {
        Err(format!(
            "{line}  REGRESSED: >{:.0}% {direction}",
            tolerance * 100.0
        ))
    } else {
        Ok(line)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_netsim [--preset paper|tiny|big] [--tolerance FRAC] \
         (--out <file.json> | --gate <baseline.json>)"
    );
    ExitCode::FAILURE
}

/// Parsed command line: mode (`--out`/`--gate`), path, preset, tolerance.
struct Cli {
    mode: &'static str,
    path: String,
    preset: Preset,
    tolerance: f64,
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut mode = None;
    let mut path = None;
    let mut preset = Preset::Paper;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" | "--gate" => {
                mode = Some(if arg == "--out" { "--out" } else { "--gate" });
                path = Some(it.next()?.clone());
            }
            "--preset" => preset = Preset::parse(it.next()?)?,
            "--tolerance" => {
                tolerance = it.next()?.parse().ok()?;
                if !(tolerance > 0.0 && tolerance.is_finite()) {
                    return None;
                }
            }
            _ => return None,
        }
    }
    Some(Cli {
        mode: mode?,
        path: path?,
        preset,
        tolerance,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cli) = parse_cli(&args) else {
        return usage();
    };
    match cli.mode {
        "--out" => {
            let metrics = measure(cli.preset);
            let json = render_json(cli.preset, &metrics);
            if let Err(e) = std::fs::write(&cli.path, &json) {
                eprintln!("bench_netsim: cannot write {}: {e}", cli.path);
                return ExitCode::FAILURE;
            }
            println!("\nwrote {}:\n{json}", cli.path);
            ExitCode::SUCCESS
        }
        "--gate" => {
            let path = &cli.path;
            let baseline = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bench_netsim: cannot read baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let schema = parse_string(&baseline, "schema").unwrap_or("");
            if schema != SCHEMA_V4 {
                eprintln!(
                    "bench_netsim: {path} is not a {SCHEMA_V4} baseline; regenerate it with --out"
                );
                return ExitCode::FAILURE;
            }
            let base_preset = parse_string(&baseline, "preset").unwrap_or("");
            if base_preset != cli.preset.label() {
                eprintln!(
                    "bench_netsim: {path} was measured on preset '{base_preset}', \
                     but this gate runs '{}'",
                    cli.preset.label()
                );
                return ExitCode::FAILURE;
            }
            let metrics = measure(cli.preset);
            println!(
                "\n== gate vs {path} (preset {}, tolerance {:.0}%) ==",
                cli.preset.label(),
                cli.tolerance * 100.0
            );
            let mut failed = false;
            for m in &metrics {
                let base = parse_metric(&baseline, m.name);
                if m.informational {
                    // Stage shares drift with the measured workload; show
                    // them, never fail on them.
                    match base {
                        Some(b) => println!(
                            "{:<36} baseline {:>14.3}  now {:>14.3}  (informational)",
                            m.name, b, m.value
                        ),
                        None => println!(
                            "{:<36} {:>23} now {:>14.3}  (informational)",
                            m.name, "-", m.value
                        ),
                    }
                    continue;
                }
                let Some(base) = base else {
                    eprintln!("{:<36} missing from baseline", m.name);
                    failed = true;
                    continue;
                };
                match check(m, base, cli.tolerance) {
                    Ok(line) => println!("{line}"),
                    Err(line) => {
                        eprintln!("{line}");
                        failed = true;
                    }
                }
            }
            if failed {
                eprintln!("bench gate FAILED");
                ExitCode::FAILURE
            } else {
                println!("bench gate passed");
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &'static str, value: f64, higher_is_better: bool) -> Metric {
        Metric {
            name,
            value,
            higher_is_better,
            informational: false,
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let metrics = vec![
            metric("idle_cycles_per_sec", 627_690.4, true),
            metric("ckpt_serialize_ns", 1_151_000.0, false),
        ];
        let json = render_json(Preset::Paper, &metrics);
        assert!(json.contains("\"schema\": \"stcc-bench-netsim-v4\""));
        assert_eq!(parse_string(&json, "schema"), Some(SCHEMA_V4));
        assert_eq!(parse_string(&json, "preset"), Some("paper"));
        assert_eq!(parse_metric(&json, "idle_cycles_per_sec"), Some(627_690.4));
        assert_eq!(parse_metric(&json, "ckpt_serialize_ns"), Some(1_151_000.0));
        assert_eq!(parse_metric(&json, "no_such_metric"), None);
        // The shard-row keys carry '@' and '=': they must survive the
        // flat format's quoting and lookup unchanged.
        let json = render_json(
            Preset::Big,
            &[metric("saturated_cycles_per_sec@shards=4", 123_456.7, true)],
        );
        assert_eq!(parse_string(&json, "preset"), Some("big"));
        assert_eq!(
            parse_metric(&json, "saturated_cycles_per_sec@shards=4"),
            Some(123_456.7)
        );
    }

    #[test]
    fn gate_tolerates_noise_but_fails_real_regressions() {
        // Throughput: 10% slower passes, 20% slower fails, faster passes.
        let base = 1_000.0;
        let tol = DEFAULT_TOLERANCE;
        assert!(check(&metric("t", 900.0, true), base, tol).is_ok());
        assert!(check(&metric("t", 800.0, true), base, tol).is_err());
        assert!(check(&metric("t", 2_000.0, true), base, tol).is_ok());
        // Latency: 10% costlier passes, 20% costlier fails, cheaper passes.
        assert!(check(&metric("l", 1_100.0, false), base, tol).is_ok());
        assert!(check(&metric("l", 1_200.0, false), base, tol).is_err());
        assert!(check(&metric("l", 500.0, false), base, tol).is_ok());
        // A looser tolerance admits what the default rejects.
        assert!(check(&metric("t", 800.0, true), base, 0.5).is_ok());
        // The shard-overhead ratio is a row like any other: judged against
        // the host's own recorded ratio, not an absolute bar.
        let ratio = |v| metric("shard_overhead_ratio", v, true);
        assert!(check(&ratio(0.55), 0.564, tol).is_ok());
        assert!(check(&ratio(0.95), 1.2, tol).is_err());
    }

    #[test]
    fn cli_parses_presets_tolerance_and_modes() {
        let args = |s: &[&str]| s.iter().map(|a| (*a).to_string()).collect::<Vec<_>>();
        let c = parse_cli(&args(&["--out", "x.json"])).unwrap();
        assert_eq!((c.mode, c.preset), ("--out", Preset::Paper));
        assert!((c.tolerance - DEFAULT_TOLERANCE).abs() < 1e-12);
        let c = parse_cli(&args(&[
            "--preset",
            "tiny",
            "--tolerance",
            "0.5",
            "--gate",
            "b.json",
        ]))
        .unwrap();
        assert_eq!((c.mode, c.preset), ("--gate", Preset::Tiny));
        assert!((c.tolerance - 0.5).abs() < 1e-12);
        let c = parse_cli(&args(&["--preset", "big", "--out", "x.json"])).unwrap();
        assert_eq!(c.preset, Preset::Big);
        assert!(parse_cli(&args(&["--gate"])).is_none());
        assert!(parse_cli(&args(&["--preset", "huge", "--out", "x"])).is_none());
        assert!(parse_cli(&args(&["--tolerance", "-1", "--out", "x"])).is_none());
        assert!(parse_cli(&args(&["x.json"])).is_none());
    }
}
