//! Architecture rules: properties of the source tree that no simulator test
//! can see — where the process environment is read and a resumable run
//! opens its journal, which bench stack exists, where the side-band
//! watchdog lives, how a stepping loop reaches the traffic sources, what
//! math the traffic stream may call, whether every test fixture still
//! has a reader, where `unsafe` may appear, whether a tool spawns a
//! child process, whether every perf record names every benchmark
//! workload, whether a checkpoint is written in one walk and where a
//! route is computed. Each rule
//! documents the files it
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

/// Whether `path` is library or binary source: below `crates/*/src` or
/// `src`.
fn is_source(path: &str) -> bool {
    let mut parts = path.split('/');
    match parts.next() {
        Some("src") => true,
        Some("crates") => parts.next().is_some() && parts.next() == Some("src"),
        _ => false,
    }
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
    let reads = |line: &str| {
        line.match_indices("env::").any(|(at, m)| {
            let rest = &line[at + m.len()..];
            let name = &rest[..rest.find(|c| !is_ident(c)).unwrap_or(rest.len())];
            matches!(name, "var" | "vars" | "var_os" | "vars_os")
        })
    };
    let mut found = scan_tree(tree, |p| is_source(p) && p != FRONT_DOOR, reads);
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
            .filter(|f| is_source(&f.path) && f.path != RUN_DOOR)
            .flat_map(|f| scan(&f.path, above_tests(&f.text), &doors)),
    );
    found
}

/// No supervisor. Every job a tool runs is a deterministic simulation, so a
/// retry fails the same way and a child process per job buys nothing:
/// `fig`, `campaign` and `chaos` run their jobs in-process on the `--jobs`
/// pool, where `runner::contain` turns a panic into a typed failure. So
/// above its tests no source file of `crates/*/src` or `src` spawns a
/// child process (`Command::new`, `current_exe`); a test may, to drive a
/// binary as a user would.
fn no_child_processes(tree: &[File]) -> Vec<String> {
    let spawns = any_of(&["Command::new", "current_exe"]);
    tree.iter()
        .filter(|f| is_source(&f.path))
        .flat_map(|f| scan(&f.path, above_tests(&f.text), &spawns))
        .collect()
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

/// One codec walk. A checkpoint section is written by its `save_state`
/// and read by its `restore_state`; the encoder appends to the buffer
/// `checkpoint::seal_with` hands it, which grows as a `Vec` does. A third
/// walk that predicts each field's width to pre-size that buffer has to
/// change in step with every layout change and measurably bought nothing
/// (DESIGN.md §4e, "One buffer"), so no file below `crates/*/src`, above
/// its tests, defines or calls one. The needles are the names the deleted
/// size oracle was built on: `len_bound` and `varint_len` anywhere in a
/// name (`state_len_bound`, `flits_len_bound`), `ENCODED_LEN` only at the
/// start of one, because a decoder's allocation guard against a hostile
/// count (`MIN_ENCODED_LEN`) is not a prediction.
fn one_codec_walk(tree: &[File]) -> Vec<String> {
    let oracle = |l: &str| any_of(&["len_bound", "varint_len"])(l) || starts_word(l, "ENCODED_LEN");
    tree.iter()
        .filter(|f| f.path.starts_with("crates/") && is_source(&f.path))
        .filter(|f| f.path.ends_with(".rs"))
        .flat_map(|f| scan(&f.path, above_tests(&f.text), oracle))
        .collect()
}

/// The one file that computes a route.
const ROUTING: &str = "crates/netsim/src/routing.rs";

/// The routing items `kncube` and `routing.rs` no longer have: the
/// coordinate type, the per-dimension route and hop-set types, the torus's
/// hop functions and the coordinate functions that filled the route tables, whole
/// names; and calls of the deleted `Torus` methods that decomposed a node
/// or named a neighbour. Spelled in pieces so this file does not match
/// itself.
const DELETED_ROUTING_NAMES: [&str; 7] = [
    concat!("Coo", "rds"),
    concat!("Dim", "Route"),
    concat!("Hop", "Set"),
    concat!("productive", "_hops"),
    concat!("dimension_order", "_hop"),
    concat!("productive_mask", "_dyn"),
    concat!("mesh_dor_hop", "_dyn"),
];
const DELETED_ROUTING_CALLS: [&str; 5] = [
    concat!(".coo", "rds("),
    concat!("torus.neigh", "bor("),
    concat!("torus().neigh", "bor("),
    concat!("torus.no", "de("),
    concat!("torus().no", "de("),
];

/// One routing authority. A route — a minimal direction, a
/// dimension-order hop, a node's neighbour on a port — is computed in
/// [`ROUTING`] alone, once, into the route tables the adaptive router, the
/// ALO baseline's useful channels (`Network::productive_ports`), the
/// Disha drain path, the shard plan and the switch plane all read
/// (DESIGN.md §4b). `kncube` keeps only the torus's shape. A second
/// implementation of the ring rule is one a static deadlock walk over the
/// tables would not see, so above its tests no Rust file but [`ROUTING`]
/// names a routing item that was deleted for it
/// ([`DELETED_ROUTING_NAMES`], [`DELETED_ROUTING_CALLS`]).
fn one_routing_authority(tree: &[File]) -> Vec<String> {
    let names = |l: &str| {
        DELETED_ROUTING_NAMES.iter().any(|n| has_word(l, n)) || any_of(&DELETED_ROUTING_CALLS)(l)
    };
    tree.iter()
        .filter(|f| f.path.ends_with(".rs") && f.path != ROUTING)
        .flat_map(|f| scan(&f.path, above_tests(&f.text), names))
        .collect()
}

/// The one file allowed the per-node adapter: the repo benchmark's traced
/// pass, until it steps through `Network::cycle_from` too.
const TRACED_PASS: &str = "benchmark/src/traced.rs";

/// One stepping path. `Simulation::step`, every experiment driver, test
/// and example reach the network through `Network::cycle_from` and a
/// batched arrival source — `WorkloadRunner::arrivals`, or a closure that
/// offers exactly its packets — which costs a cycle's arrivals; a per-node
/// `WorkloadRunner::poll` costs the node count (DESIGN.md §4c). So no Rust
/// file in the tree calls `poll` or the per-node adapter `Network::cycle`,
/// save [`TRACED_PASS`] and the test module of
/// `crates/traffic/src/workload.rs`, where `poll` is the reference
/// `arrivals` is checked against. The needles are spelled in pieces so
/// this file's own test inputs do not match.
fn no_per_node_poll(tree: &[File]) -> Vec<String> {
    let needles = [concat!(".poll", "("), concat!(".cycle", "(&mut")];
    tree.iter()
        .filter(|f| f.path.ends_with(".rs") && f.path != TRACED_PASS)
        .flat_map(|f| {
            let text = if f.path == "crates/traffic/src/workload.rs" {
                above_tests(&f.text)
            } else {
                &f.text
            };
            scan(&f.path, text, any_of(&needles))
        })
        .collect()
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

// Spelled in pieces so the synthetic violations below do not flag this file.
const UNSAFE: &str = concat!("un", "safe");
/// The one module of `wormsim` allowed `unsafe`.
const UNSAFE_MODULE: &str = "crates/netsim/src/shard.rs";
/// Code lines of [`UNSAFE_MODULE`], above its tests, that may say `unsafe`.
const UNSAFE_LINES: usize = 5;

/// `unsafe` small enough to argue about. Outside comments, the word
/// appears in four `.rs` files only:
/// - [`UNSAFE_MODULE`], on at most [`UNSAFE_LINES`] lines above its test
///   module — the two checked-cell primitives, the packet-field
///   projection, the worker pool's one detach of a shard's view and the
///   `Send` that detach needs, all resting on one stated argument — and on
///   none inside it, where views come from the safe `narrow`;
/// - `crates/experiments/src/sigint.rs`, the signal handler;
/// - `crates/netsim/tests/zero_alloc.rs` and
///   `crates/core/tests/restore_alloc.rs`, the counting allocators (a
///   `#[global_allocator]` is an `unsafe impl` calling the system's).
///
/// The compiler already forbids `unsafe_code` in every other crate and
/// denies it in every other `wormsim` module; this rule keeps the count. A
/// line's comment starts at its first `//`.
fn unsafe_stays_small(tree: &[File]) -> Vec<String> {
    let code = |line: &str| has_word(line.split("//").next().unwrap_or_default(), UNSAFE);
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| f.path.ends_with(".rs")) {
        let lines = scan(&f.path, &f.text, code);
        match f.path.as_str() {
            "crates/experiments/src/sigint.rs"
            | "crates/netsim/tests/zero_alloc.rs"
            | "crates/core/tests/restore_alloc.rs" => {}
            UNSAFE_MODULE => {
                let above = scan(&f.path, above_tests(&f.text), code).len();
                found.extend(lines.iter().take(above).skip(UNSAFE_LINES).cloned());
                found.extend(lines.into_iter().skip(above));
            }
            _ => found.extend(lines),
        }
    }
    found
}

/// The file that parses the `fig` command line.
const CLI: &str = "crates/experiments/src/cli.rs";
/// The documents that may name an `STCC_*` variable; README.md holds the
/// table.
const OPTION_DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
];

/// The `STCC_*` names in `line`: `STCC_` and at least one more uppercase
/// letter, digit or `_`, with no identifier character before it.
fn stcc_names(line: &str) -> Vec<&str> {
    let name_char = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
    line.match_indices("STCC_")
        .filter(|(at, _)| !line[..*at].ends_with(is_ident))
        .map(|(at, _)| {
            let rest = &line[at..];
            &rest[..rest.find(|c| !name_char(c)).unwrap_or(rest.len())]
        })
        .filter(|name| name.len() > "STCC_".len())
        .collect()
}

/// The `--flag` words in `line`.
fn flags(line: &str) -> Vec<&str> {
    let flag_char = |c: char| c.is_ascii_lowercase() || c == '-';
    line.match_indices("--")
        .filter(|(at, _)| {
            !line[..*at].ends_with(|c| is_ident(c) || c == '-')
                && line[at + 2..].starts_with(|c: char| c.is_ascii_lowercase())
        })
        .map(|(at, _)| {
            let rest = &line[at + 2..];
            &line[at..at + 2 + rest.find(|c| !flag_char(c)).unwrap_or(rest.len())]
        })
        .collect()
}

/// Options and their docs cannot drift. README.md's "Runtime options"
/// section is where a runtime option is documented, so:
/// - every `STCC_*` name [`FRONT_DOOR`] reads (a string literal above its
///   tests) is a row of the section's table;
/// - no other `STCC_*` name appears in any of [`OPTION_DOCS`], so a
///   deleted variable leaves the docs with its reader;
/// - every flag `Cli` parses (a match arm of [`CLI`] above its tests) is
///   named in the section — in the table if it steers how a run executes,
///   in the sentence after it if it chooses what is computed — and the
///   section names no flag `Cli` does not parse.
///
/// `benchmark/` (its own workspace, which may clear names it never sets)
/// and `CHANGES.md` (the history) are not read.
fn options_match_their_docs(tree: &[File]) -> Vec<String> {
    let text = |path: &str| {
        tree.iter()
            .find(|f| f.path == path)
            .map_or("", |f| f.text.as_str())
    };
    let door = above_tests(text(FRONT_DOOR));
    let mut read: Vec<&str> = stcc_names(door)
        .into_iter()
        .filter(|name| door.contains(&format!("\"{name}\"")))
        .collect();
    read.sort_unstable();
    read.dedup();
    let parsed: Vec<&str> = above_tests(text(CLI))
        .lines()
        .filter_map(|line| line.trim().strip_prefix('"'))
        .filter(|arm| arm.starts_with("--") && arm.contains("=>"))
        .map(|arm| &arm[..arm.find('"').unwrap_or(arm.len())])
        .collect();
    let readme = text("README.md");
    let heading = |l: &str| l.starts_with("## ") || l.starts_with("### ");
    let section: Vec<(usize, &str)> = readme
        .lines()
        .enumerate()
        .skip_while(|(_, l)| *l != "### Runtime options")
        .skip(1)
        .take_while(|(_, l)| !heading(l))
        .collect();

    let mut found = Vec::new();
    for name in &read {
        let row = |l: &&str| l.starts_with('|') && stcc_names(l).contains(name);
        if !section.iter().map(|(_, l)| l).any(row) {
            found.push(format!("README.md: no \"Runtime options\" row for {name}"));
        }
    }
    found.extend(scan_tree(
        tree,
        |p| OPTION_DOCS.contains(&p),
        |l| stcc_names(l).iter().any(|name| !read.contains(name)),
    ));
    for flag in &parsed {
        if !section.iter().any(|(_, l)| flags(l).contains(flag)) {
            found.push(format!(
                "README.md: \"Runtime options\" does not name {flag}"
            ));
        }
    }
    found.extend(
        section
            .iter()
            .filter(|(_, l)| flags(l).iter().any(|flag| !parsed.contains(flag)))
            .map(|(i, l)| format!("README.md:{}: {}", i + 1, l.trim())),
    );
    found
}

/// A JSON value, parsed just far enough for the perf-record rule: strings
/// keep their escapes raw, and numbers and literals are checked, not kept.
enum Json {
    Scalar,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON value, or says where it stops being one.
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        match p.at == p.s.len() {
            true => Ok(v),
            false => p.fail("text after the value"),
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    at: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    /// Skips whitespace, then `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    /// The items of an array or object after its opening bracket, up to
    /// `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return self.fail("expected a comma");
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return self.fail("expected a string");
        }
        let start = self.at;
        while let Some(&c) = self.s.get(self.at) {
            self.at += 1;
            match c {
                b'"' => return Ok(String::from_utf8_lossy(&self.s[start..self.at - 1]).into()),
                b'\\' => self.at += 1,
                _ => {}
            }
        }
        self.fail("unterminated string")
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let fields = self.items(b'}', |p| {
                    let key = p.string()?;
                    match p.eat(b':') {
                        true => Ok((key, p.value()?)),
                        false => p.fail("expected a colon"),
                    }
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.at += 1;
                Ok(Json::Arr(self.items(b']', Self::value)?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            _ => {
                let start = self.at;
                let scalar = |c: &u8| c.is_ascii_alphanumeric() || b"+-.".contains(c);
                while self.s.get(self.at).is_some_and(scalar) {
                    self.at += 1;
                }
                let word = std::str::from_utf8(&self.s[start..self.at]).unwrap_or("");
                match ["true", "false", "null"].contains(&word) || word.parse::<f64>().is_ok() {
                    true => Ok(Json::Scalar),
                    false => self.fail("expected a value"),
                }
            }
        }
    }
}

/// Whether `path` is a perf record: `BENCH_<n>.json` at the root.
fn is_perf_record(path: &str) -> bool {
    path.starts_with("BENCH_") && path.ends_with(".json") && !path.contains('/')
}

/// Every perf record names every workload. `scripts/bench_record.sh`
/// writes `BENCH_<n>.json` at the root: the benchmark's results, an object
/// per workload under `benchmark`, and the paper figures' walls under
/// `figures`. A record must parse as JSON and hold every workload
/// `BENCHMARK.json` names and a non-empty `figures.wall_s`, so a broken or
/// partial record fails here, not when a later change tries to cite it.
fn perf_records_name_every_workload(tree: &[File]) -> Vec<String> {
    let spec = tree
        .iter()
        .find(|f| f.path == "BENCHMARK.json")
        .map(|f| Json::parse(&f.text));
    let workloads: Vec<&str> = match &spec {
        Some(Ok(spec)) => match spec.get("workloads") {
            Some(Json::Arr(ws)) => ws
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(Json::Str(name)) => Some(name.as_str()),
                    _ => None,
                })
                .collect(),
            _ => return vec!["BENCHMARK.json: no workloads".into()],
        },
        _ => return vec!["BENCHMARK.json: missing or not JSON".into()],
    };
    let mut found = Vec::new();
    for f in tree.iter().filter(|f| is_perf_record(&f.path)) {
        let record = match Json::parse(&f.text) {
            Ok(record) => record,
            Err(e) => {
                found.push(format!("{}: not JSON: {e}", f.path));
                continue;
            }
        };
        let bench = record.get("benchmark");
        for w in &workloads {
            if !matches!(bench.and_then(|b| b.get(w)), Some(Json::Obj(_))) {
                found.push(format!("{}: no results for workload {w}", f.path));
            }
        }
        let walls = record.get("figures").and_then(|f| f.get("wall_s"));
        if !matches!(walls, Some(Json::Obj(walls)) if !walls.is_empty()) {
            found.push(format!("{}: no figure walls", f.path));
        }
    }
    found
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
fn the_tree_has_one_codec_walk() {
    assert_clean(one_codec_walk(repo()), "one codec walk");
}

#[test]
fn the_tree_has_one_routing_authority() {
    assert_clean(one_routing_authority(repo()), "one routing authority");
}

#[test]
fn the_tree_has_no_per_node_poll_in_a_stepping_loop() {
    assert_clean(no_per_node_poll(repo()), "no per-node poll");
}

#[test]
fn the_tree_spawns_no_child_process() {
    assert_clean(no_child_processes(repo()), "no child processes");
}

#[test]
fn the_tree_has_options_that_match_their_docs() {
    assert_clean(options_match_their_docs(repo()), "options match their docs");
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
fn the_tree_has_perf_records_that_name_every_workload() {
    assert!(
        repo().iter().any(|f| is_perf_record(&f.path)),
        "vacuous: no BENCH_*.json at the root"
    );
    assert_clean(
        perf_records_name_every_workload(repo()),
        "perf records name every workload",
    );
}

#[test]
fn the_tree_keeps_unsafe_small() {
    let rule = format!("{UNSAFE} small enough to argue about");
    assert_clean(unsafe_stays_small(repo()), &rule);
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
fn spawn_rule_reports_a_child_process_above_the_tests() {
    let spawn = "let child = Command::new(std::env::current_exe()?).arg(\"--job\").spawn()?;";
    let tested = format!("pub fn run() {{}}\n\n#[cfg(test)]\nmod tests {{\n    {spawn}\n}}");
    let tree = [
        file("crates/experiments/src/campaign/mod.rs", spawn),
        file(
            "crates/experiments/src/bin/campaign.rs",
            "let exe = std::env::current_exe();",
        ),
        file(
            "src/main.rs",
            "std::process::Command::new(\"sh\").status();",
        ),
        file("crates/experiments/src/runner.rs", &tested),
        file("crates/experiments/tests/campaign.rs", spawn),
        file("benchmark/src/main.rs", spawn),
    ];
    assert_eq!(
        paths(&no_child_processes(&tree)),
        [
            "crates/experiments/src/campaign/mod.rs",
            "crates/experiments/src/bin/campaign.rs",
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
fn routing_rule_reports_a_planted_call_but_not_the_tables_or_a_test() {
    let [coords, _, hop_set, hops, dor, ..] = DELETED_ROUTING_NAMES;
    let [_, neighbor, ..] = DELETED_ROUTING_CALLS;
    let planted = format!("let hops = net.torus().{hops}(node, dst);");
    let tested = format!("pub fn grant() {{}}\n\n#[cfg(test)]\nmod tests {{\n    {planted}\n}}");
    let tree = [
        file("crates/core/src/alo.rs", &planted),
        file(
            "crates/netsim/src/deadlock.rs",
            &format!("while let Some((dim, dir)) = self.torus().{dor}(cur, dst) {{"),
        ),
        file(
            "crates/netsim/src/shard.rs",
            &format!("let t = owner({neighbor}node, dim, dir));"),
        ),
        file(
            "benchmark/src/traced.rs",
            &format!("let c: kncube::{coords} = t.origin();"),
        ),
        file(
            "crates/topology/src/lib.rs",
            &format!("pub use torus::{{{hop_set}, Torus}};"),
        ),
        file(ROUTING, &planted),
        file(
            "crates/netsim/src/plane.rs",
            "Slot::new(port, tables.neighbor(node, port), dbit)",
        ),
        file("crates/netsim/src/network.rs", &tested),
        file(
            "crates/core/src/alo_hops_of.rs",
            "let useful_hops = productive_hop_count;",
        ),
        file("DESIGN.md", &planted),
    ];
    assert_eq!(
        paths(&one_routing_authority(&tree)),
        [
            "crates/core/src/alo.rs",
            "crates/netsim/src/deadlock.rs",
            "crates/netsim/src/shard.rs",
            "benchmark/src/traced.rs",
            "crates/topology/src/lib.rs"
        ]
    );
}

#[test]
fn codec_walk_rule_reports_a_size_oracle_but_not_a_decoder_guard() {
    let oracle = "pub fn state_len_bound(&self) -> usize {";
    let tested = format!("pub fn save() {{}}\n\n#[cfg(test)]\nmod tests {{\n    {oracle}\n}}");
    let tree = [
        file("crates/netsim/src/snapshot.rs", oracle),
        file("crates/checkpoint/src/lib.rs", "let w = varint_len(now);"),
        file(
            "crates/netsim/src/counters.rs",
            "pub(crate) const ENCODED_LEN: usize = 128;",
        ),
        file(
            "crates/netsim/src/packet.rs",
            "let cap = dec.remaining() / PacketInfo::MIN_ENCODED_LEN;",
        ),
        file("crates/core/src/sim.rs", &tested),
        file("crates/netsim/tests/behavior.rs", oracle),
        file("src/lib.rs", oracle),
        file("DESIGN.md", oracle),
    ];
    assert_eq!(
        paths(&one_codec_walk(&tree)),
        [
            "crates/netsim/src/snapshot.rs",
            "crates/checkpoint/src/lib.rs",
            "crates/netsim/src/counters.rs"
        ]
    );
}

#[test]
fn poll_rule_reports_a_stepping_loop_that_polls_per_node() {
    let poll = concat!("for n in 0..nodes { runner.poll", "(now, n); }");
    let cycle = concat!("net.cycle", "(&mut src, &mut NoControl);");
    let tested = format!("pub fn poll() {{}}\n\n#[cfg(test)]\nmod tests {{\n    {poll}\n}}");
    let tree = [
        file("crates/core/src/sim.rs", poll),
        file("crates/experiments/src/figures/fig2.rs", poll),
        file("crates/traffic/src/workload.rs", &tested),
        file("crates/netsim/src/network.rs", poll),
        file("crates/netsim/tests/behavior.rs", cycle),
        file("examples/custom_pattern.rs", poll),
        file("benchmark/src/run.rs", cycle),
        file(TRACED_PASS, &format!("{cycle}\n{poll}")),
        file("README.md", poll),
    ];
    assert_eq!(
        paths(&no_per_node_poll(&tree)),
        [
            "crates/core/src/sim.rs",
            "crates/experiments/src/figures/fig2.rs",
            "crates/netsim/src/network.rs",
            "crates/netsim/tests/behavior.rs",
            "examples/custom_pattern.rs",
            "benchmark/src/run.rs"
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

/// A spec of two workloads and records of each kind of fault: a missing
/// workload, text cut short, a bad number and empty figure walls. A
/// `BENCH_*.json` below the root is not a record.
#[test]
fn perf_record_rule_reports_a_missing_workload_a_broken_record_and_no_walls() {
    let spec = r#"{"command": ["x"], "workloads": [{"name": "a", "why": "\"q\""},
        {"name": "b", "why": ""}], "run_seconds": 5, "ok": true}"#;
    let good = r#"{"commit": "c", "benchmark": {"a": {"m": {"median": 1.5e3}},
        "b": {"m": null}}, "figures": {"wall_s": {"fig1": 36.9}}}"#;
    let tree = [
        file("BENCHMARK.json", spec),
        file("BENCH_1.json", good),
        file("BENCH_2.json", &good.replace(r#""b": "#, r#""c": "#)),
        file("BENCH_3.json", &good[..good.len() - 1]),
        file("BENCH_4.json", &good.replace("36.9", "")),
        file("BENCH_5.json", &good.replace(r#"{"fig1": 36.9}"#, "{}")),
        file("docs/BENCH_6.json", "not a record"),
    ];
    let found = perf_records_name_every_workload(&tree);
    assert_eq!(
        paths(&found),
        [
            "BENCH_2.json",
            "BENCH_3.json",
            "BENCH_4.json",
            "BENCH_5.json"
        ],
        "{found:#?}"
    );
    assert!(
        found[0].ends_with("no results for workload b"),
        "{found:#?}"
    );
    assert!(found[3].ends_with("no figure walls"), "{found:#?}");
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

/// Six `unsafe` lines above `shard.rs`'s tests (the sixth reported), one
/// inside them and one in `network.rs`; none for the exempt files, a
/// comment, a doc line or `forbid(unsafe_code)`.
#[test]
fn unsafe_rule_reports_a_sixth_line_one_in_tests_and_one_elsewhere() {
    let block = format!("    {UNSAFE} {{ p.read() }}");
    let shard = format!(
        "//! {UNSAFE} lives here\n{}\n// SAFETY: {UNSAFE}\n\n#[cfg(test)]\nmod tests {{\n{block}\n}}",
        [block.as_str(); 6].join("\n")
    );
    let tree = [
        file(UNSAFE_MODULE, &shard),
        file(
            "crates/netsim/src/network.rs",
            &format!("/// not {UNSAFE}\n{block}"),
        ),
        file("crates/netsim/tests/zero_alloc.rs", &block),
        file("crates/core/tests/restore_alloc.rs", &block),
        file("crates/experiments/src/sigint.rs", &block),
        file(
            "crates/core/src/lib.rs",
            &format!("#![forbid({UNSAFE}_code)]"),
        ),
        file("README.md", &block),
    ];
    let found = unsafe_stays_small(&tree);
    assert_eq!(
        paths(&found),
        [UNSAFE_MODULE, UNSAFE_MODULE, "crates/netsim/src/network.rs"]
    );
    assert!(
        found[0].starts_with("crates/netsim/src/shard.rs:7: "),
        "{found:?}"
    );
    assert!(
        found[1].starts_with("crates/netsim/src/shard.rs:12: "),
        "{found:?}"
    );
}

/// A variable read but not tabled, one tabled but not read, a stale name in
/// another document, an undocumented flag and a documented flag nobody
/// parses; none for `STCC_*`, the exempt files or a variable a test reads.
#[test]
fn options_rule_reports_a_drift_either_way() {
    let door = "let jobs = var(&env, \"STCC_JOBS\", number)?;\n\
                let audit = var(&env, \"STCC_AUDIT\", number)?;\n\n\
                #[cfg(test)]\nmod tests {\n    env(&[(\"STCC_GONE\", \"1\")]);\n}";
    let cli = "match arg {\n    \"--jobs\" => jobs = Some(n),\n    \"--scale\" => {}\n    \
               \"--out\" => {}\n    other => return Err(\"bad --jobs\"),\n}";
    let readme = "# stcc\n\nSet `STCC_*` first.\n\n### Runtime options\n\n\
                  | option | flag | environment |\n|---|---|---|\n\
                  | workers | `--jobs N` | `STCC_JOBS` |\n\
                  | shards | `--shards N` | `STCC_SHARDS` |\n\n\
                  `--scale` chooses what is computed.\n\n\
                  ### Next\n\n`--out DIR` and `STCC_AUDIT` are documented here.\n";
    let stale = "STCC_CKPT_EVERY=2000 fig fig4";
    let tree = [
        file(FRONT_DOOR, door),
        file(CLI, cli),
        file("README.md", readme),
        file("EXPERIMENTS.md", stale),
        file("DESIGN.md", "every `STCC_*` variable"),
        file("CHANGES.md", stale),
        file("benchmark/src/main.rs", stale),
    ];
    let found = options_match_their_docs(&tree);
    assert_eq!(
        found,
        [
            "README.md: no \"Runtime options\" row for STCC_AUDIT",
            "README.md:10: | shards | `--shards N` | `STCC_SHARDS` |",
            "EXPERIMENTS.md:1: STCC_CKPT_EVERY=2000 fig fig4",
            "README.md: \"Runtime options\" does not name --out",
            "README.md:10: | shards | `--shards N` | `STCC_SHARDS` |",
        ]
    );
}
