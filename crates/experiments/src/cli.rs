use crate::journal::Journal;
use crate::options::process_env;
use crate::runner::{JobError, Pool, SweepError};
use crate::{NetPreset, RuntimeOptions, Scale, SweepCtx, Table};
use stcc::Scheme;
use std::path::PathBuf;

/// The `fig` binary's usage line.
pub const USAGE: &str = "usage: fig <name> [--scale paper|reduced|smoke|tiny] [--net paper|small] \
                     [--jobs N] [--shards N] [--out DIR] [--seed N] [--resume] \
                     [--controllers name,name,...]   (fig --list names the figures)";

/// The command line of the `fig` binary after its figure name.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Simulation length preset (default: `reduced`).
    pub scale: Scale,
    /// Network preset, when `--net` was given. Only the figures that are
    /// parameterised by one accept the flag ([`crate::figures::Figure`]).
    pub net: Option<NetPreset>,
    /// Output directory for CSV files (default: `results/`).
    pub out: PathBuf,
    /// Base seed override.
    pub seed: u64,
    /// Resume from this sweep's journal, skipping completed points.
    pub resume: bool,
    /// The `controllers` figure's roster filter (`--controllers a,b,c`,
    /// names as in [`Scheme::by_name`]), resolved on [`Cli::net`]'s
    /// side-band.
    pub controllers: Option<Vec<Scheme>>,
    /// `--jobs`, `--shards` and every `STCC_*` variable, resolved. None of
    /// it changes an output byte, so it is deliberately absent from
    /// [`Cli::sweep_fingerprint`].
    pub opts: RuntimeOptions,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Reduced,
            net: None,
            out: PathBuf::from("results"),
            seed: 1,
            resume: false,
            controllers: None,
            opts: RuntimeOptions::default(),
        }
    }
}

/// A flag's positive integer value.
fn count(flag: &str, v: Option<String>) -> Result<usize, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {flag} value '{v}'")),
    }
}

impl Cli {
    /// Parses `args` (without the program and figure names) and resolves
    /// the runtime options against the environment lookup `env`.
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or bad values, malformed
    /// `STCC_*` values included.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let (mut jobs, mut shards, mut controllers) = (None, None, None);
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    cli.scale = Scale::parse(&v)
                        .ok_or_else(|| format!("unknown scale '{v}' (paper|reduced|smoke|tiny)"))?;
                }
                "--net" => {
                    let v = it.next().ok_or("--net needs a value")?;
                    let net = NetPreset::parse(&v)
                        .ok_or_else(|| format!("unknown net preset '{v}' (paper|small)"))?;
                    cli.net = Some(net);
                }
                "--jobs" => jobs = Some(count("--jobs", it.next())?),
                "--shards" => shards = Some(count("--shards", it.next())?),
                "--out" => {
                    cli.out = PathBuf::from(it.next().ok_or("--out needs a value")?);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    cli.seed = v.parse().map_err(|_| format!("bad seed '{v}'"))?;
                }
                "--resume" => cli.resume = true,
                "--controllers" => {
                    controllers = Some(
                        it.next()
                            .ok_or("--controllers needs a comma-separated list (e.g. aimd,bbr)")?,
                    );
                }
                "--help" | "-h" => return Err(USAGE.to_owned()),
                other => return Err(format!("unknown argument '{other}' (try --help)")),
            }
        }
        if let Some(list) = controllers {
            let sideband = cli.net().sideband();
            let resolve = |name: &str| {
                Scheme::by_name(name, &sideband).ok_or_else(|| {
                    format!(
                        "unknown controller '{name}' ({}|static-<N>)",
                        Scheme::registry_names().join("|")
                    )
                })
            };
            cli.controllers = Some(list.split(',').map(resolve).collect::<Result<_, _>>()?);
        }
        cli.opts = RuntimeOptions::resolve(jobs, shards, env)?;
        Ok(cli)
    }

    /// [`Cli::parse`] against the process environment, exiting 2 with the
    /// message on error.
    #[must_use]
    pub fn parse_or_exit(args: impl IntoIterator<Item = String>) -> Cli {
        Cli::parse(args, process_env).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// The network preset: `--net`, else the paper's 16-ary 2-cube.
    #[must_use]
    pub fn net(&self) -> NetPreset {
        self.net.unwrap_or_default()
    }

    /// The worker pool this invocation asked for: `--jobs`, else
    /// `STCC_JOBS`, else the machine's available parallelism. Progress
    /// lines go to stderr.
    #[must_use]
    pub fn pool(&self) -> Pool {
        let jobs = self.opts.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Pool::new(jobs).with_progress(true)
    }

    /// Prints `table` and writes it to `<out>/<stem>.<scale>.csv`.
    fn emit(&self, stem: &str, table: &Table) {
        print!("{}", table.to_text());
        let path = self.out.join(format!("{stem}.{}.csv", self.scale.label()));
        match table.write_csv(&path) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
        }
    }

    /// Where this sweep's resume journal lives: next to its CSV.
    #[must_use]
    pub fn journal_path(&self, stem: &str) -> PathBuf {
        self.out
            .join(format!("{stem}.{}.journal", self.scale.label()))
    }

    /// Identity of this sweep for journal matching: a resumed run must have
    /// the same figure, scale, network, seed and harness version, otherwise
    /// its journaled rows describe a different experiment and are ignored.
    #[must_use]
    pub fn sweep_fingerprint(&self, stem: &str) -> u64 {
        checkpoint::fnv1a64(
            format!(
                "{stem}|{}|{}|{}|{}",
                self.scale.label(),
                self.net().label(),
                self.seed,
                env!("CARGO_PKG_VERSION"),
            )
            .as_bytes(),
        )
    }

    /// Runs one figure's sweep crash-safely: installs the SIGINT handler,
    /// opens the journal (honoring `--resume`), hands `generate` a
    /// [`SweepCtx`], and emits the table. On success the journal is removed;
    /// on SIGINT the process exits 130 with a `--resume` hint (the journal
    /// keeps every completed point); on any other failure it exits 1.
    pub fn run_sweep(
        &self,
        stem: &str,
        generate: impl FnOnce(&SweepCtx) -> Result<Table, SweepError>,
    ) {
        crate::sigint::install();
        let journal_path = self.journal_path(stem);
        let ctx = match Journal::begin(&journal_path, self.sweep_fingerprint(stem), self.resume) {
            Ok((journal, load)) => {
                if self.resume && (!load.done.is_empty() || !load.failed.is_empty()) {
                    eprintln!(
                        "[resuming: {} completed points journaled, {} failed points to retry]",
                        load.done.len(),
                        load.failed.len()
                    );
                    for (idx, failure) in &load.failed {
                        eprintln!(
                            "[retrying point {idx}: {} — {}]",
                            failure.kind, failure.message
                        );
                    }
                }
                SweepCtx::with_journal(self.pool(), journal, load).with_options(self.opts.clone())
            }
            Err(e) => {
                eprintln!(
                    "{stem}: cannot open journal {}: {e}",
                    journal_path.display()
                );
                std::process::exit(1);
            }
        };
        match generate(&ctx) {
            Ok(t) => {
                self.emit(stem, &t);
                let _ = std::fs::remove_file(&journal_path);
            }
            Err(SweepError {
                label,
                error: JobError::Interrupted,
            }) => {
                eprintln!(
                    "{stem}: interrupted ({label}); completed points are journaled — \
                     re-run with --resume to continue"
                );
                std::process::exit(crate::sigint::EXIT_INTERRUPTED);
            }
            Err(e) => {
                eprintln!(
                    "{stem}: {e}\n[completed points remain in {}; failed points carry \
                     typed records and will be retried — re-run with --resume]",
                    journal_path.display()
                );
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stcc::SimConfig;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| (*a).to_owned()), |name| {
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    #[test]
    fn defaults() {
        assert_eq!(parse(&[], &[]), Ok(Cli::default()));
        let cli = Cli::default();
        assert_eq!(cli.scale, Scale::Reduced);
        assert_eq!((cli.net, cli.net()), (None, NetPreset::Paper));
        assert_eq!(cli.out, PathBuf::from("results"));
        assert!(!cli.resume);
    }

    #[test]
    fn parses_flags() {
        let cli = parse(
            &[
                "--scale", "smoke", "--out", "/tmp/x", "--seed", "9", "--jobs", "4", "--net",
                "small", "--resume",
            ],
            &[],
        )
        .unwrap();
        assert_eq!(cli.scale, Scale::Smoke);
        assert_eq!(cli.out, PathBuf::from("/tmp/x"));
        assert_eq!(cli.seed, 9);
        assert_eq!(cli.net, Some(NetPreset::Small));
        assert_eq!(cli.pool().jobs(), 4);
        assert!(cli.resume);
        assert_eq!(cli.opts.shards, 1);
    }

    /// `--controllers` resolves on the chosen network's side-band, wherever
    /// `--net` stands on the line.
    #[test]
    fn controllers_filter_follows_the_net() {
        let cli = parse(&["--controllers", "tune,static-9", "--net", "small"], &[]).unwrap();
        let sideband = NetPreset::Small.sideband();
        assert_eq!(
            cli.controllers,
            Some(vec![
                NetPreset::Small.tuned(),
                Scheme::Static {
                    threshold: 9,
                    sideband
                }
            ])
        );
        assert!(parse(&["--controllers", "tune,warp"], &[])
            .unwrap_err()
            .contains("'warp'"));
        assert!(parse(&["--controllers"], &[]).is_err());
    }

    /// The unknown-controller message lists the registry as it stands.
    #[test]
    fn unknown_controller_names_every_registry_entry() {
        let msg = parse(&["--controllers", "warp"], &[]).unwrap_err();
        for name in Scheme::registry_names() {
            assert!(msg.contains(name), "{name} missing from: {msg}");
        }
        assert!(msg.contains("static-<N>"), "{msg}");
    }

    #[test]
    fn fingerprint_separates_sweeps() {
        let a = parse(&["--scale", "tiny"], &[]).unwrap();
        let b = parse(&["--scale", "tiny", "--seed", "2"], &[]).unwrap();
        assert_ne!(a.sweep_fingerprint("fig4"), a.sweep_fingerprint("fig5"));
        assert_ne!(a.sweep_fingerprint("fig4"), b.sweep_fingerprint("fig4"));
        assert_eq!(a.sweep_fingerprint("fig4"), a.sweep_fingerprint("fig4"));
        // An explicit `--net paper` is the default spelled out.
        let c = parse(&["--scale", "tiny", "--net", "paper"], &[]).unwrap();
        assert_eq!(a.sweep_fingerprint("fig4"), c.sweep_fingerprint("fig4"));
        assert_eq!(
            a.journal_path("fig4"),
            PathBuf::from("results/fig4.tiny.journal")
        );
    }

    #[test]
    fn rejects_unknown() {
        for bad in [
            &["--bogus"][..],
            &["--scale", "huge"],
            &["--scale"],
            &["--jobs", "0"],
            &["--jobs", "many"],
            &["--net", "huge"],
            &["--shards", "0"],
            &["--shards", "lots"],
        ] {
            assert!(parse(bad, &[]).is_err(), "{bad:?}");
        }
        // The environment is checked by the same call.
        let msg = parse(&["--scale", "tiny"], &[("STCC_AUDIT", "banana")]).unwrap_err();
        assert!(msg.contains("STCC_AUDIT=banana"), "{msg}");
    }

    /// Runtime options must not enter the sweep fingerprint: a journal
    /// written at one shard count resumes at any other (results are
    /// identical).
    #[test]
    fn fingerprint_ignores_runtime_options() {
        let a = parse(&["--scale", "tiny"], &[]).unwrap();
        let b = parse(
            &["--scale", "tiny", "--shards", "4", "--jobs", "3"],
            &[("STCC_AUDIT", "64")],
        )
        .unwrap();
        assert_eq!(a.sweep_fingerprint("fig4"), b.sweep_fingerprint("fig4"));
    }

    /// The whole path, argv and environment to a constructed simulation:
    /// `--shards`/`STCC_SHARDS`, `--jobs`/`STCC_JOBS` and `STCC_AUDIT` each
    /// given by flag, by variable, by both (the flag wins) and not at all.
    #[test]
    fn options_reach_the_simulation() {
        let built = |args: &[&str], env: &[(&str, &str)]| {
            let cli = parse(args, env).unwrap();
            let ctx = SweepCtx::bare(cli.pool()).with_options(cli.opts.clone());
            let cfg: SimConfig =
                crate::figures::fig4::sim_config(NetPreset::Small, Scale::Tiny, true);
            let sim = ctx.simulation(cfg, None, "test").unwrap();
            (sim.shards(), ctx.pool().jobs(), sim.audit_every())
        };
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(built(&[], &[]), (1, cores, None));
        assert_eq!(built(&["--shards", "4"], &[]), (4, cores, None));
        assert_eq!(built(&[], &[("STCC_SHARDS", "2")]), (2, cores, None));
        assert_eq!(built(&["--shards", "4"], &[("STCC_SHARDS", "2")]).0, 4);
        assert_eq!(built(&["--jobs", "3"], &[]).1, 3);
        assert_eq!(built(&[], &[("STCC_JOBS", "5")]).1, 5);
        assert_eq!(built(&["--jobs", "3"], &[("STCC_JOBS", "5")]).1, 3);
        assert_eq!(built(&[], &[("STCC_AUDIT", "64")]).2, Some(64));
        assert_eq!(
            built(
                &["--shards", "8", "--jobs", "2"],
                &[("STCC_AUDIT", "256"), ("STCC_SHARDS", "3")]
            ),
            (8, 2, Some(256))
        );
    }
}
