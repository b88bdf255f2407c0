//! Architecture rules: properties of the source tree that no simulator test
//! can see — where the process environment is read and a resumable run
//! opens its journal, which bench stack exists, where the side-band
//! watchdog lives, how a stepping loop reaches the traffic sources, what
//! math the traffic stream may call and whether every test fixture still
//! has a reader. Each rule documents the files it
//! reads, what it forbids and why, and reports every offending line as
//! `path:line: text` (an orphan fixture as `path: ...`). Each runs twice:
//! on the tree as it stands, and on a synthetic violation it must report
//! (so a rule that silently matches nothing fails too).
//!
//! The tree is read with `std` alone, no git: every file below the
//! repository root except `.git/`, any `target/`, the paths the root
//! `.gitignore` lists and files holding a NUL byte (checkpoint fixtures and
//! other binaries).

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// A text file: its path from the tree's root, `/`-separated, and its text.
struct File {
    path: String,
    text: String,
}

fn file(path: &str, text: &str) -> File {
    File {
        path: path.to_string(),
        text: text.to_string(),
    }
}

/// A root `.gitignore` line: a plain name, matched at any depth, or a path
/// (a leading or inner `/`), matched from the root; a trailing `/` limits it
/// to directories.
struct Ignored {
    pattern: String,
    anchored: bool,
    dir_only: bool,
}

impl Ignored {
    fn parse(gitignore: &str) -> Vec<Ignored> {
        gitignore
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                // Globs, negations and escapes would need a real matcher;
                // refuse them rather than scan what git would skip.
                assert!(
                    !l.contains(['*', '?', '[', '!', '\\']),
                    ".gitignore pattern '{l}' is not a plain name; teach tests/architecture.rs \
                     to match it"
                );
                let dir_only = l.ends_with('/');
                let pattern = l.trim_end_matches('/');
                Ignored {
                    anchored: pattern.contains('/'),
                    pattern: pattern.trim_start_matches('/').to_string(),
                    dir_only,
                }
            })
            .collect()
    }

    fn matches(&self, path: &str, name: &str, is_dir: bool) -> bool {
        (is_dir || !self.dir_only)
            && if self.anchored {
                path == self.pattern
            } else {
                name == self.pattern
            }
    }
}

/// Every text file below `root` that the rules read, sorted by path.
fn walk(root: &Path) -> Vec<File> {
    let ignored = Ignored::parse(&fs::read_to_string(root.join(".gitignore")).unwrap_or_default());
    let mut files = Vec::new();
    let mut dirs = vec![String::new()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(root.join(&dir)).expect("readable directory") {
            let entry = entry.expect("readable directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if dir.is_empty() {
                name.clone()
            } else {
                format!("{dir}/{name}")
            };
            let kind = entry.file_type().expect("file type");
            if name == ".git"
                || name == "target"
                || ignored
                    .iter()
                    .any(|i| i.matches(&path, &name, kind.is_dir()))
            {
                continue;
            }
            if kind.is_dir() {
                dirs.push(path);
            } else if kind.is_file() {
                let bytes = fs::read(entry.path()).expect("readable file");
                if !bytes.contains(&0) {
                    let text = String::from_utf8_lossy(&bytes).into_owned();
                    files.push(File { path, text });
                }
            }
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
}

/// The repository this test belongs to, read once per test binary.
fn repo() -> &'static [File] {
    static TREE: OnceLock<Vec<File>> = OnceLock::new();
    TREE.get_or_init(|| walk(Path::new(env!("CARGO_MANIFEST_DIR"))))
}

/// `path:line: text` for every line of `text` that `hit` matches.
fn scan(path: &str, text: &str, hit: impl Fn(&str) -> bool) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| hit(line))
        .map(|(i, line)| format!("{path}:{}: {}", i + 1, line.trim()))
        .collect()
}

/// Lines of the files `in_scope` admits that `hit` matches.
fn scan_tree(
    tree: &[File],
    in_scope: impl Fn(&str) -> bool,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    tree.iter()
        .filter(|f| in_scope(&f.path))
        .flat_map(|f| scan(&f.path, &f.text, &hit))
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` contains any of `needles`.
fn any_of<'a>(needles: &'a [&str]) -> impl Fn(&str) -> bool + 'a {
    move |line| needles.iter().any(|n| line.contains(n))
}

/// Whether `word` occurs in `line` with no identifier character either side.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[..at].ends_with(is_ident) && !line[at + word.len()..].starts_with(is_ident)
    })
}

/// Whether `needle` occurs in `line` with no identifier character before it
/// (`resets +=` in `self.resets += 1`, not in `consecutive_resets += 1`).
fn starts_word(line: &str, needle: &str) -> bool {
    line.match_indices(needle)
        .any(|(at, _)| !line[..at].ends_with(is_ident))
}

/// `.rs` files directly in `dir` (no subdirectories).
fn rs_in(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir)
        .is_some_and(|rest| !rest.contains('/') && rest.ends_with(".rs"))
}

/// The part of a source file above its `#[cfg(test)]` module.
fn above_tests(text: &str) -> &str {
    text.find("\n#[cfg(test)]").map_or(text, |at| &text[..at])
}

/// The one non-test source file that reads the process environment.
const FRONT_DOOR: &str = "crates/experiments/src/options.rs";
// Spelled in pieces so the writer check does not flag this file.
const SET_VAR: &str = concat!("set", "_var");
const REMOVE_VAR: &str = concat!("remove", "_var");

/// The one non-test source file a resumable run enters through.
const RUN_DOOR: &str = "crates/experiments/src/sweep.rs";

/// One front door. A run's configuration is a value, `RuntimeOptions`,
/// resolved once from argv and the `STCC_*` variables and passed down, so:
/// - the environment is read (`env::var`, `vars`, `var_os`, `vars_os`) in
///   no source file of `crates/*/src` or `src` but [`FRONT_DOOR`];
/// - it is written nowhere in `crates`, `src` or `tests` — not in tests
///   either, which run on parallel threads;
/// - `crates/core` never names `std::env` at all: a simulation reads only
///   what its caller passes.
///
/// A resumable run (`fig`, `campaign`, `chaos`) enters through one door
/// too, `FrontDoor::run`: above its tests, no source file of
/// `crates/*/src` or `src` but [`RUN_DOOR`] opens a journal
/// (`Journal::begin(`) or installs the SIGINT handler
/// (`sigint::install(`), so no tool grows its own replay loop, resume
/// banner or exit path again.
///
/// `benchmark/` is its own workspace and keeps its own scrub.
fn one_front_door(tree: &[File]) -> Vec<String> {
    let crate_src = |p: &str| {
        let mut parts = p.split('/');
        parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
    };
    let reads = |line: &str| {
        line.match_indices("env::").any(|(at, m)| {
            let rest = &line[at + m.len()..];
            let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            matches!(name, "var" | "vars" | "var_os" | "vars_os")
        })
    };
    let mut found = scan_tree(
        tree,
        |p| (crate_src(p) || p.starts_with("src/")) && p != FRONT_DOOR,
        reads,
    );
    found.extend(scan_tree(
        tree,
        |p| p.starts_with("crates/") || p.starts_with("src/") || p.starts_with("tests/"),
        |l| has_word(l, SET_VAR) || has_word(l, REMOVE_VAR),
    ));
    found.extend(scan_tree(
        tree,
        |p| p.starts_with("crates/core/src/"),
        any_of(&["std::env", "env::"]),
    ));
    let doors = any_of(&["Journal::begin(", "sigint::install("]);
    found.extend(
        tree.iter()
            .filter(|f| (crate_src(&f.path) || f.path.starts_with("src/")) && f.path != RUN_DOOR)
            .flat_map(|f| scan(&f.path, above_tests(&f.text), &doors)),
    );
    found
}

/// The names of the deleted second bench stack: its crate, its binary and
/// baseline files, its opt-in gate variable and the `cargo` subcommand it
/// ran under. Spelled in pieces so this file does not match itself.
const DELETED_BENCH_NAMES: [&str; 5] = [
    concat!("bench", "_netsim"),
    concat!("BENCH", "_netsim"),
    concat!("STCC", "_BENCH_GATE"),
    concat!("cargo ", "bench"),
    concat!("crates/", "bench"),
];

/// One measurement system. `benchmark/` (`BENCHMARK.json`) is the only
/// bench stack and its same-host parent/change pairs, run by
/// `scripts/ci.sh`, the only perf gate, so no name in
/// [`DELETED_BENCH_NAMES`] may come back anywhere in the tree.
/// `CHANGES.md` keeps the history and `benchmark/` belongs to its own
/// changes.
fn one_measurement_system(tree: &[File]) -> Vec<String> {
    scan_tree(
        tree,
        |p| p != "CHANGES.md" && !p.starts_with("benchmark/"),
        any_of(&DELETED_BENCH_NAMES),
    )
}

/// One scaffold. The side-band staleness watchdog and its counters, the
/// tuning period (its accumulators and the previous period's throughput)
/// and the decision tallies are written once, in
/// `crates/core/src/scaffold.rs`, for every law: a law maps a `Period` to
/// an `Action` and the scaffold counts it. A law file that grows its own
/// copy reopens the drift between copies the scaffold removed (DESIGN.md
/// §6). The needles are the scaffold's period vocabulary (and the names it
/// replaced) written to, not read: a law's tests may build a `Period`
/// literal. A needle counts only at the start of a name, so a law's own
/// `consecutive_resets` is not a tally.
fn one_scaffold(tree: &[File]) -> Vec<String> {
    const NEEDLES: [&str; 14] = [
        "gathers_overdue(",
        "watchdog_trips +=",
        "watchdog_rearms +=",
        "prev_period",
        "snaps_in_period",
        "period_tput",
        "prev_delivered =",
        "closed_cycles +=",
        "census_sum +=",
        "gathers +=",
        "decisions +=",
        "raises +=",
        "cuts +=",
        "resets +=",
    ];
    scan_tree(
        tree,
        |p| rs_in(p, "crates/core/src/") && p != "crates/core/src/scaffold.rs",
        |l| NEEDLES.iter().any(|n| starts_word(l, n)),
    )
}

/// No per-node poll in a stepping loop. `Simulation::step` and every
/// experiment driver reach the sources through `Network::cycle_from` and the
/// batched `WorkloadRunner::arrivals`, which cost a cycle's arrivals; a
/// `.poll(` per node costs the node count (DESIGN.md §4c). Tests and the
/// `Network::cycle` adapter are where `.poll(` belongs.
fn no_per_node_poll(tree: &[File]) -> Vec<String> {
    scan_tree(
        tree,
        |p| p == "crates/core/src/sim.rs" || p.starts_with("crates/experiments/src/"),
        |l| l.contains(".poll("),
    )
}

/// No libm on the stream. Goldens must be bit-identical on every platform
/// and libm's transcendentals are not correctly rounded, so none may appear
/// above a file's `#[cfg(test)]` module in the crates a simulation's
/// outputs flow through: the traffic stream (`crates/traffic/src`; its
/// tests check the integer gap sampler *against* `powf`, and `offered_rate`
/// and the like only divide), the controllers (`crates/core/src`), the
/// side-band (`crates/sideband/src`) and the network (`crates/netsim/src`).
/// A controller that needs a root (CUBIC's cube root) computes it exactly,
/// on integers.
fn no_libm_on_the_stream(tree: &[File]) -> Vec<String> {
    const DIRS: [&str; 4] = [
        "crates/traffic/src/",
        "crates/core/src/",
        "crates/sideband/src/",
        "crates/netsim/src/",
    ];
    tree.iter()
        .filter(|f| DIRS.iter().any(|d| rs_in(&f.path, d)))
        .flat_map(|f| {
            let libm = any_of(&[".ln(", ".exp(", ".powf(", ".powi(", ".log"]);
            scan(&f.path, above_tests(&f.text), libm)
        })
        .collect()
}

/// No orphan fixtures. Every file in a `crates/*/tests/fixtures/` directory
/// is named by an `include_bytes!` of its own crate (a line holding
/// `include_bytes!(` and `fixtures/<name>"`), so a fixture a format change
/// supersedes leaves with its last reader instead of piling up. The walk
/// skips binaries — every checkpoint fixture — so the rule lists the
/// fixture directories below `root` itself.
fn no_orphan_fixtures(root: &Path, tree: &[File]) -> Vec<String> {
    let mut orphans = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("readable crates/") {
        let krate = format!(
            "crates/{}/",
            krate.expect("readable entry").file_name().display()
        );
        let Ok(fixtures) = fs::read_dir(root.join(&krate).join("tests/fixtures")) else {
            continue;
        };
        for fixture in fixtures {
            let name = fixture.expect("readable fixture entry").file_name();
            let needle = format!("fixtures/{}\"", name.display());
            let named = tree.iter().filter(|f| f.path.starts_with(&krate)).any(|f| {
                let reads = |l: &str| l.contains("include_bytes!(") && l.contains(&needle);
                f.text.lines().any(reads)
            });
            if !named {
                let path = format!("{krate}tests/fixtures/{}", name.display());
                orphans.push(format!("{path}: named by no include_bytes!"));
            }
        }
    }
    orphans.sort();
    orphans
}

fn assert_clean(found: Vec<String>, rule: &str) {
    assert!(
        found.is_empty(),
        "{rule} is broken (its doc comment in tests/architecture.rs says why):\n{}",
        found.join("\n")
    );
}

/// The paths of reported lines, in report order.
fn paths(found: &[String]) -> Vec<&str> {
    found.iter().map(|f| &f[..f.find(':').unwrap()]).collect()
}

#[test]
fn the_tree_has_one_front_door() {
    assert_clean(one_front_door(repo()), "one front door");
}

#[test]
fn the_tree_has_one_measurement_system() {
    assert_clean(one_measurement_system(repo()), "one measurement system");
}

#[test]
fn the_tree_has_one_scaffold() {
    assert_clean(one_scaffold(repo()), "one scaffold");
}

#[test]
fn the_tree_has_no_per_node_poll_in_a_stepping_loop() {
    assert_clean(no_per_node_poll(repo()), "no per-node poll");
}

#[test]
fn the_tree_has_no_libm_on_the_traffic_stream() {
    assert_clean(no_libm_on_the_stream(repo()), "no libm on the stream");
}

#[test]
fn the_tree_has_no_orphan_fixtures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_clean(no_orphan_fixtures(root, repo()), "no orphan fixtures");
}

#[test]
fn front_door_reports_a_second_reader_a_writer_and_env_in_core() {
    let read = "let v = std::env::var_os(\"STCC_JOBS\");";
    let write = format!("std::env::{SET_VAR}(\"STCC_JOBS\", \"2\");");
    let unset = format!("std::env::{REMOVE_VAR}(\"STCC_JOBS\");");
    let tree = [
        file(FRONT_DOOR, read),
        file("crates/experiments/src/run.rs", read),
        file("src/lib.rs", "for (k, v) in env::vars() {}"),
        file(
            "crates/experiments/src/bin/fig.rs",
            "let a = std::env::args(); cmd.env_remove(\"STCC_JOBS\"); let t = env::variant;",
        ),
        file("crates/experiments/tests/resume.rs", &write),
        file("tests/faults.rs", &unset),
        file("crates/core/src/sim.rs", "use std::env;"),
        file("benchmark/src/run.rs", &write),
    ];
    assert_eq!(
        paths(&one_front_door(&tree)),
        [
            "crates/experiments/src/run.rs",
            "src/lib.rs",
            "crates/experiments/tests/resume.rs",
            "tests/faults.rs",
            "crates/core/src/sim.rs",
        ]
    );
}

#[test]
fn front_door_reports_a_second_journal_loop_and_signal_handler() {
    let begin = "let (journal, load) = Journal::begin(&path, fp, resume)?;";
    let install = "experiments::sigint::install();";
    let tests_only = format!("pub fn begin() {{}}\n\n#[cfg(test)]\nmod tests {{\n    {begin}\n}}");
    let tree = [
        file(RUN_DOOR, &format!("{begin}\n{install}")),
        file("crates/experiments/src/campaign/mod.rs", begin),
        file("crates/experiments/src/bin/chaos.rs", install),
        file("src/main.rs", begin),
        file("crates/experiments/src/journal.rs", &tests_only),
        file("crates/experiments/tests/resume.rs", begin),
    ];
    assert_eq!(
        paths(&one_front_door(&tree)),
        [
            "crates/experiments/src/campaign/mod.rs",
            "crates/experiments/src/bin/chaos.rs",
            "src/main.rs",
        ]
    );
}

#[test]
fn measurement_rule_reports_every_deleted_name_but_not_its_own_source() {
    let mut tree: Vec<File> = DELETED_BENCH_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| file(&format!("docs/{i}.md"), &format!("run `{name}` first")))
        .collect();
    let all = DELETED_BENCH_NAMES.join(" ");
    for exempt in ["CHANGES.md", "benchmark/README.md"] {
        tree.push(file(exempt, &all));
    }
    tree.push(file(
        "tests/architecture.rs",
        include_str!("architecture.rs"),
    ));
    assert_eq!(
        paths(&one_measurement_system(&tree)),
        [
            "docs/0.md",
            "docs/1.md",
            "docs/2.md",
            "docs/3.md",
            "docs/4.md"
        ]
    );
}

#[test]
fn scaffold_rule_reports_a_watchdog_in_a_law_file() {
    let watchdog = "if self.sideband.gathers_overdue(now) > 2 { f.watchdog_trips += 1; }";
    let tree = [
        file("crates/core/src/scaffold.rs", watchdog),
        file("crates/core/src/aimd.rs", "f.watchdog_rearms += 1;"),
        file("crates/core/src/bbr.rs", watchdog),
        file("crates/core/src/decbit.rs", "self.raises += 1;"),
        file("crates/core/src/tuned.rs", "self.prev_period_tput = None;"),
        file(
            "crates/core/src/statik.rs",
            "self.consecutive_resets += 1;\nlet p = Period { prev_delivered: None, ..p };",
        ),
        file(
            "crates/core/src/cubic.rs",
            "self.closed_cycles += u64::from(shut);",
        ),
        file("crates/core/tests/controller_conformance.rs", watchdog),
    ];
    assert_eq!(
        paths(&one_scaffold(&tree)),
        [
            "crates/core/src/aimd.rs",
            "crates/core/src/bbr.rs",
            "crates/core/src/decbit.rs",
            "crates/core/src/tuned.rs",
            "crates/core/src/cubic.rs"
        ]
    );
}

#[test]
fn poll_rule_reports_a_stepping_loop_that_polls_per_node() {
    let poll = "for n in 0..nodes { runner.poll(now, n); }";
    let tree = [
        file("crates/core/src/sim.rs", poll),
        file("crates/experiments/src/figures/fig2.rs", poll),
        file("crates/traffic/src/workload.rs", poll),
        file("crates/netsim/src/network.rs", poll),
    ];
    assert_eq!(
        paths(&no_per_node_poll(&tree)),
        [
            "crates/core/src/sim.rs",
            "crates/experiments/src/figures/fig2.rs"
        ]
    );
}

#[test]
fn libm_rule_reports_a_transcendental_above_the_tests() {
    let tree = [
        file(
            "crates/traffic/src/gaps.rs",
            "let g = (u.ln() / q.ln()).ceil();\n\n#[cfg(test)]\nmod tests {\n    fn f() { 0.5f64.powf(2.0); }\n}",
        ),
        file("crates/traffic/src/pattern.rs", "let bits = x.log2();"),
        file("crates/traffic/src/workload.rs", "let r = x.expect(\"rate\") / n as f64;"),
        file("crates/traffic/src/sub/extra.rs", "x.exp()"),
        file("crates/core/src/cubic.rs", "let k = (w / c).powf(1.0 / 3.0);"),
        file("crates/sideband/src/gather.rs", "let e = (-t).exp();"),
        file("crates/netsim/src/network.rs", "let b = n.log2();"),
        file("crates/experiments/src/figures/fig2.rs", "let y = x.ln();"),
    ];
    let found = no_libm_on_the_stream(&tree);
    assert_eq!(
        paths(&found),
        [
            "crates/traffic/src/gaps.rs",
            "crates/traffic/src/pattern.rs",
            "crates/core/src/cubic.rs",
            "crates/sideband/src/gather.rs",
            "crates/netsim/src/network.rs"
        ]
    );
    assert!(found[0].starts_with("crates/traffic/src/gaps.rs:1: "));
}

/// Fixtures on disk: one included from its crate's tests, one from its
/// crate's `src` through `..`, one whose name only a comment mentions and
/// one included only by a file of another crate, which resolves elsewhere.
#[test]
fn fixture_rule_reports_a_fixture_no_include_names() {
    let root = std::env::temp_dir().join("stcc-architecture-fixtures");
    let _ = fs::remove_dir_all(&root);
    for (path, bytes) in [
        ("crates/a/tests/fixtures/kept.v4.ckpt", &b"\0"[..]),
        ("crates/a/tests/fixtures/old.v3.ckpt", b"\0"),
        ("crates/b/tests/fixtures/seed.bin", b"\0"),
        ("crates/c/tests/fixtures/stray.ckpt", b"\0"),
        (
            "crates/a/tests/compat.rs",
            b"// old.v3.ckpt was superseded\nconst K: &[u8] = include_bytes!(\"fixtures/kept.v4.ckpt\");",
        ),
        (
            "crates/b/src/lib.rs",
            b"const S: &[u8] = include_bytes!(\"../tests/fixtures/seed.bin\");",
        ),
        (
            "crates/b/tests/x.rs",
            b"const T: &[u8] = include_bytes!(\"fixtures/stray.ckpt\");",
        ),
    ] {
        let p = root.join(path);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, bytes).unwrap();
    }
    let found = no_orphan_fixtures(&root, &walk(&root));
    let _ = fs::remove_dir_all(&root);
    assert_eq!(
        paths(&found),
        [
            "crates/a/tests/fixtures/old.v3.ckpt",
            "crates/c/tests/fixtures/stray.ckpt"
        ]
    );
}

#[test]
fn walk_skips_git_targets_ignored_paths_and_binaries() {
    let root = std::env::temp_dir().join("stcc-architecture-walk");
    let _ = fs::remove_dir_all(&root);
    for (path, bytes) in [
        (
            ".gitignore",
            &b"# comment\nout/\n/anchored/\nnotes.txt\n"[..],
        ),
        ("a.rs", b"kept"),
        (
            "sub/anchored/b.rs",
            b"kept: only the root's anchored/ is ignored",
        ),
        ("file/out", b"kept: out/ names directories only"),
        (".git/HEAD", b"skipped"),
        ("target/debug/x.rs", b"skipped"),
        ("sub/target/y.rs", b"skipped"),
        ("out/z.rs", b"skipped"),
        ("sub/out/z.rs", b"skipped"),
        ("anchored/c.rs", b"skipped"),
        ("sub/notes.txt", b"skipped"),
        ("fixture.ckpt", b"skipped\0binary"),
    ] {
        let p = root.join(path);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, bytes).unwrap();
    }
    let walked = walk(&root);
    let _ = fs::remove_dir_all(&root);
    let walked: Vec<&str> = walked.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(
        walked,
        [".gitignore", "a.rs", "file/out", "sub/anchored/b.rs"]
    );
}
