//! Every workload in one command: repetitions interleaved round-robin over
//! the workloads, each in a fresh child process (so `peak_rss_mb` is that
//! workload's alone and one workload's allocator state cannot leak into the
//! next), one traced pass last, every verification on.

use crate::json::Json;
use crate::spec::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{compare, iqr_share, Summary};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

#[derive(Debug, Clone)]
pub struct Options {
    pub reps: usize,
    /// Cycles ÷ 10, one repetition: the < 30 s smoke run.
    pub quick: bool,
    /// Two full sets on one build, which must agree within the bounds.
    pub check_repeat: bool,
    /// Ten seeds per workload instead of the sets: the across-seed spread
    /// of every end-to-end metric against its bound.
    pub check_spread: bool,
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            reps: 3,
            quick: false,
            check_repeat: false,
            check_spread: false,
            seed: crate::DEFAULT_SEED,
        }
    }
}

/// What one child run printed.
#[derive(Debug, Default)]
struct ChildRun {
    metrics: BTreeMap<String, Option<f64>>,
    fingerprints: BTreeMap<String, String>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn parse_child(stdout: &str) -> Option<ChildRun> {
    let mut run = ChildRun::default();
    let mut saw_ops = false;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let name = words.next()?.to_owned();
                run.metrics.insert(name, words.next()?.parse().ok());
            }
            Some("fingerprint") => {
                run.fingerprints
                    .insert(words.next()?.to_owned(), words.next()?.to_owned());
            }
            Some("fail") => run.failures.push(line["fail".len()..].trim().to_owned()),
            Some("ops") => {
                run.attempted = words.next()?.parse().ok()?;
                run.failed = words.next()?.parse().ok()?;
                saw_ops = true;
            }
            _ => {}
        }
    }
    saw_ops.then_some(run)
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match parse_child(&stdout) {
        Some(run) if output.status.success() => Ok(run),
        _ => Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// Values of end-to-end metrics, keyed by (workload, metric).
type Values = BTreeMap<(&'static str, &'static str), Vec<f64>>;

/// Files the end-to-end metrics one untraced run printed under `workload`.
fn collect_end_to_end(values: &mut Values, workload: &'static str, run: &ChildRun) {
    for m in END_TO_END {
        if let Some(Some(v)) = run.metrics.get(m.name) {
            values.entry((workload, m.name)).or_default().push(*v);
        }
    }
}

/// One full set: `reps` untraced runs and one traced run per workload.
#[derive(Debug, Default)]
struct Set {
    /// Per (workload, end-to-end metric): one value per repetition.
    end_to_end: Values,
    /// Per (workload, per-layer metric); absent = not applicable.
    per_layer: BTreeMap<(&'static str, &'static str), f64>,
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<&'static str, u64>,
    calib: Vec<f64>,
    failures: Vec<String>,
}

impl Set {
    fn account(&mut self, workload: &'static str, what: &str, run: &ChildRun) {
        *self.attempted.entry(workload).or_default() += run.attempted;
        *self.failed.entry(workload).or_default() += run.failed;
        for failure in &run.failures {
            self.failures
                .push(format!("{workload} ({what}): {failure}"));
        }
        if let Some(Some(mops)) = run.metrics.get("host.calib_mops") {
            self.calib.push(*mops);
        }
    }

    /// A run that produced no result counts as one failed operation.
    fn lost(&mut self, workload: &'static str, what: &str, why: &str) {
        *self.attempted.entry(workload).or_default() += 1;
        *self.failed.entry(workload).or_default() += 1;
        self.failures.push(format!("{workload} ({what}): {why}"));
    }

    fn summary(&self, workload: &'static str, metric: &'static str) -> Option<Summary> {
        self.end_to_end
            .get(&(workload, metric))
            .map(|values| Summary::of(values))
    }
}

fn run_set(opts: &Options, seconds: f64, reps: usize, label: &str) -> Set {
    let mut set = Set::default();
    let mut prints: BTreeMap<&'static str, BTreeMap<String, String>> = BTreeMap::new();
    for rep in 0..reps {
        for w in WORKLOADS {
            eprintln!("[{label} rep {}/{reps}] {}", rep + 1, w.name);
            let what = format!("rep {}", rep + 1);
            let run = match child(w.name, opts.seed, seconds, false) {
                Ok(run) => run,
                Err(why) => {
                    set.lost(w.name, &what, &why);
                    continue;
                }
            };
            set.account(w.name, &what, &run);
            collect_end_to_end(&mut set.end_to_end, w.name, &run);
            // Same build, same seed: the final state must be the same bytes.
            let first = prints
                .entry(w.name)
                .or_insert_with(|| run.fingerprints.clone());
            if *first != run.fingerprints {
                set.lost(
                    w.name,
                    &what,
                    &format!(
                        "fingerprints {:?} differ from rep 1's {first:?}",
                        run.fingerprints
                    ),
                );
            }
        }
    }
    for w in WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.simulated) {
            if set.summary(w.name, m.name).is_some_and(|s| !s.exact()) {
                set.lost(
                    w.name,
                    "reps",
                    &format!("{} did not repeat exactly", m.name),
                );
            }
        }
    }
    for w in WORKLOADS {
        eprintln!("[{label} traced] {}", w.name);
        match child(w.name, opts.seed, seconds, true) {
            Ok(run) => {
                set.account(w.name, "traced", &run);
                for m in PER_LAYER {
                    if let Some(Some(v)) = run.metrics.get(m.name) {
                        set.per_layer.insert((w.name, m.name), *v);
                    }
                }
            }
            Err(why) => set.lost(w.name, "traced", &why),
        }
    }
    set
}

fn fmt(v: f64) -> String {
    let a = v.abs();
    if v.fract() == 0.0 || a >= 1e6 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn print_set(set: &Set, label: &str) {
    println!("== {label}: end-to-end (untraced; median [min .. max] n) ==");
    for w in WORKLOADS {
        println!("{}", w.name);
        for m in END_TO_END {
            match set.summary(w.name, m.name) {
                Some(s) => println!(
                    "  {:<32} {:>14} [{} .. {}] n={} {} ({} is better, {})",
                    m.name,
                    fmt(s.median),
                    fmt(s.min),
                    fmt(s.max),
                    s.n,
                    m.unit,
                    m.better.label(),
                    if m.simulated { "simulated" } else { "host" },
                ),
                None => println!("  {:<32} {:>14}", m.name, "missing"),
            }
        }
        let attempted = set.attempted.get(w.name).copied().unwrap_or(0);
        let failed = set.failed.get(w.name).copied().unwrap_or(0);
        println!(
            "  {:<32} {:>14} ({failed} of {attempted} operations) ratio (lower is better, must be 0)",
            "failed_ops_share",
            fmt(failed as f64 / attempted.max(1) as f64),
        );
    }
    println!("== {label}: per-layer (traced pass; n/a = layer not exercised) ==");
    print!("{:<36}", "metric [unit]");
    for w in WORKLOADS {
        print!(" {:>15}", w.name);
    }
    println!();
    for m in PER_LAYER {
        print!("{:<36}", format!("{} [{}]", m.name, m.unit));
        for w in WORKLOADS {
            let cell = set.per_layer.get(&(w.name, m.name));
            print!(" {:>15}", cell.map_or("n/a".to_owned(), |v| fmt(*v)));
        }
        println!();
    }
    if !set.calib.is_empty() {
        let s = Summary::of(&set.calib);
        println!(
            "host.calib_mops over all runs: median {} [{} .. {}] Mops/s — a spread here is host drift, not the simulator",
            fmt(s.median),
            fmt(s.min),
            fmt(s.max)
        );
    }
}

/// The repeatability self-check: every end-to-end metric of every workload
/// of the second set within its bound of the first (simulated ones equal).
fn check_repeat(first: &Set, second: &Set) -> Vec<String> {
    let mut problems = Vec::new();
    println!("== repeatability: set 2 against set 1 ==");
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (
                first.summary(w.name, m.name),
                second.summary(w.name, m.name),
            ) else {
                problems.push(format!("{} {}: missing", w.name, m.name));
                continue;
            };
            let verdict = compare(m, a.median, b.median);
            println!(
                "  {:<16} {:<32} {:>14} -> {:>14} {:+.2}% worse (bound {}) {}",
                w.name,
                m.name,
                fmt(a.median),
                fmt(b.median),
                verdict.worsening * 100.0,
                bound_label(m),
                if verdict.within { "ok" } else { "FAIL" },
            );
            if !verdict.within {
                problems.push(format!("{} {} not repeatable", w.name, m.name));
            }
        }
    }
    problems
}

/// The driver's acceptance rule, run here first: over ten runs with ten
/// seeds, the distance between the quartiles of each end-to-end metric as a
/// share of its median must stay within the metric's bound (`setup_s`
/// excepted), and should stay under a third of it.
fn check_spread(opts: &Options, seconds: f64) -> Vec<String> {
    const SEEDS: u64 = 10;
    let mut values = Values::new();
    let mut problems = Vec::new();
    for seed in (opts.seed + 1)..=(opts.seed + SEEDS) {
        for w in WORKLOADS {
            eprintln!("[spread seed {seed}] {}", w.name);
            match child(w.name, seed, seconds, false) {
                Ok(run) => {
                    problems.extend(
                        run.failures
                            .iter()
                            .map(|f| format!("{} seed {seed}: {f}", w.name)),
                    );
                    collect_end_to_end(&mut values, w.name, &run);
                }
                Err(why) => problems.push(format!("{} seed {seed}: {why}", w.name)),
            }
        }
    }
    println!("== spread over {SEEDS} seeds: (q3 - q1) / median against the bound ==");
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(v) = values.get(&(w.name, m.name)).filter(|v| v.len() >= 2) else {
                problems.push(format!("{} {}: missing", w.name, m.name));
                continue;
            };
            let (spread, bound) = (iqr_share(v), m.bound.unwrap_or(0.0));
            let word = if spread <= bound / 3.0 {
                "ok"
            } else if spread <= bound || m.name == "setup_s" {
                "wide (over a third of the bound)"
            } else {
                problems.push(format!(
                    "{} {} spread {:.1}% over its bound",
                    w.name,
                    m.name,
                    spread * 100.0
                ));
                "FAIL"
            };
            println!(
                "  {:<16} {:<32} median {:>14} spread {:>6.2}% bound {:>4}% {word}",
                w.name,
                m.name,
                fmt(Summary::of(v).median),
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    problems
}

fn bound_label(m: &Metric) -> String {
    if m.simulated {
        "exact".to_owned()
    } else {
        format!("{}%", m.bound.unwrap_or(0.0) * 100.0)
    }
}

fn results_json(sets: &[Set]) -> Json {
    let set_json = |set: &Set| {
        Json::Obj(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut fields = Vec::new();
                    for m in END_TO_END {
                        if let Some(s) = set.summary(w.name, m.name) {
                            fields.push((
                                m.name,
                                Json::obj(vec![
                                    ("median", Json::Num(s.median)),
                                    ("min", Json::Num(s.min)),
                                    ("max", Json::Num(s.max)),
                                    ("n", Json::Int(s.n as u64)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            ));
                        }
                    }
                    for m in PER_LAYER {
                        let v = set.per_layer.get(&(w.name, m.name));
                        fields.push((m.name, v.map_or(Json::Null, |v| Json::Num(*v))));
                    }
                    (w.name.to_owned(), Json::obj(fields))
                })
                .collect(),
        )
    };
    Json::Arr(sets.iter().map(set_json).collect())
}

/// The sets: runs them, prints them, checks them against each other, and
/// writes the numbers and the manifest.
fn run_sets(opts: &Options, seconds: f64, reps: usize) -> Vec<String> {
    let labels: &[&str] = if opts.check_repeat {
        &["set 1", "set 2"]
    } else {
        &["set 1"]
    };
    let sets: Vec<Set> = labels
        .iter()
        .map(|label| run_set(opts, seconds, reps, label))
        .collect();
    let mut problems = Vec::new();
    for (set, label) in sets.iter().zip(labels) {
        print_set(set, label);
        problems.extend(set.failures.iter().cloned());
    }
    if let [first, second] = &sets[..] {
        problems.extend(check_repeat(first, second));
    }

    let mut results = results_json(&sets).pretty();
    results.push('\n');
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write("benchmark/out/results.json", results))
        .and_then(|()| std::fs::write("BENCHMARK.json", spec::manifest()));
    if let Err(e) = written {
        problems.push(format!(
            "writing results: {e} (run from the repository root)"
        ));
    }
    problems
}

pub fn run(opts: &Options) -> ExitCode {
    let (seconds, reps) = if opts.quick {
        (spec::RUN_SECONDS as f64 / 10.0, 1)
    } else {
        (spec::RUN_SECONDS as f64, opts.reps)
    };
    let host = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "stcc-benchmark: {} workloads, {seconds} s timed region, seed {}, {host} cpus",
        WORKLOADS.len(),
        opts.seed
    );
    let problems = if opts.check_spread {
        check_spread(opts, seconds)
    } else {
        run_sets(opts, seconds, reps)
    };
    for p in &problems {
        println!("FAILED: {p}");
    }
    if problems.is_empty() {
        println!("all verifications passed; outputs in benchmark/out/");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_metrics_prints_failures_and_ops() {
        let out = "metric setup_s 0.5 s\nmetric netsim.shard_speedup_x n/a x\n\
                   fingerprint final_checkpoint 00ff\nfail restore at cycle 250: bad\n\
                   ops 200 1\n{\"correct\": false}\n";
        let run = parse_child(out).unwrap();
        assert_eq!(run.metrics["setup_s"], Some(0.5));
        assert_eq!(run.metrics["netsim.shard_speedup_x"], None);
        assert_eq!(run.fingerprints["final_checkpoint"], "00ff");
        assert_eq!(run.failures, ["restore at cycle 250: bad"]);
        assert_eq!((run.attempted, run.failed), (200, 1));
        assert!(
            parse_child("metric setup_s 0.5 s\n").is_none(),
            "no ops line"
        );
    }

    #[test]
    fn repeat_check_flags_host_drift_and_simulated_change() {
        let set = |speed: f64, accepted: f64| {
            let mut s = Set::default();
            for w in WORKLOADS {
                for m in END_TO_END {
                    let v = match m.name {
                        "sim_cycles_per_s" => speed,
                        "accepted_flits_per_node_cycle" => accepted,
                        _ => 1.0,
                    };
                    s.end_to_end.insert((w.name, m.name), vec![v, v, v]);
                }
            }
            s
        };
        assert!(check_repeat(&set(1000.0, 0.5), &set(900.0, 0.5)).is_empty());
        let slow = check_repeat(&set(1000.0, 0.5), &set(700.0, 0.5));
        assert_eq!(slow.len(), WORKLOADS.len());
        let moved = check_repeat(&set(1000.0, 0.5), &set(1000.0, 0.51));
        assert_eq!(moved.len(), WORKLOADS.len());
    }
}
