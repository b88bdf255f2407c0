//! The runtime options of a run: everything that steers *how* a sweep
//! executes (never *what* it computes — every value here leaves the output
//! bytes unchanged), resolved once at the front door and then carried as a
//! value: `Cli` → [`crate::SweepCtx`] → the run helpers → the simulation.
//! README.md, "Runtime options", is the table of flags, `STCC_*` spellings,
//! defaults and consumers.
//!
//! A flag beats its variable. An unset or empty variable means the
//! default; `0` means the default too, except that `STCC_LIVELOCK_WINDOW=0`
//! switches the watchdog off. Anything that does not parse is a usage
//! error naming the variable and the value — nothing is skipped with a
//! warning. The per-job budget has no spelling of its own: the campaign
//! worker fills it in from its manifest.

use stcc::DEFAULT_LIVELOCK_WINDOW;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Per-job soft deadlines, enforced cooperatively by the run guard of
/// whichever worker runs the job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobBudget {
    /// Wall-clock limit per job, measured from when its simulation starts.
    pub wall: Option<Duration>,
    /// Simulated-cycle limit per job.
    pub cycles: Option<u64>,
}

/// The campaign crash-test rig (`STCC_CAMPAIGN_FAIL`): comma-separated
/// `scenario:<k>` / `scenario:all` entries naming which worker attempts
/// must die.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashRig(Vec<(String, Option<u32>)>);

impl CrashRig {
    fn parse(text: &str) -> Option<CrashRig> {
        text.split(',')
            .map(|entry| {
                let (id, upto) = entry.trim().split_once(':')?;
                let upto = match upto {
                    "all" => None,
                    k => Some(k.parse().ok()?),
                };
                Some((id.to_owned(), upto))
            })
            .collect::<Option<_>>()
            .map(CrashRig)
    }

    /// Whether this attempt of a job of `scenario` must crash. Keyed on the
    /// attempt number, so the rig is fully deterministic: `flaky:2` crashes
    /// attempts 0 and 1 and lets attempt 2 succeed, in every run and every
    /// resume.
    #[must_use]
    pub fn crashes(&self, scenario: &str, attempt: u32) -> bool {
        self.0
            .iter()
            .find(|(id, _)| id == scenario)
            .is_some_and(|(_, upto)| upto.is_none_or(|k| attempt < k))
    }
}

/// The resolved options (see the [module documentation](self) for the
/// rules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Sweep worker count (`None`: the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Step-loop shard count of every simulation (at least 1).
    pub shards: usize,
    /// Full invariant audit every this many cycles and at every checkpoint.
    pub audit_every: Option<u64>,
    /// Snapshot every simulation each `.0` cycles into directory `.1`.
    pub checkpoint: Option<(u64, PathBuf)>,
    /// No-progress window of the livelock watchdog (`None`: off).
    pub livelock_window: Option<u64>,
    /// Per-job wall/cycle budget.
    pub budget: JobBudget,
    /// Campaign crash-test rig.
    pub crash_rig: CrashRig,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            jobs: None,
            shards: 1,
            audit_every: None,
            checkpoint: None,
            livelock_window: Some(DEFAULT_LIVELOCK_WINDOW),
            budget: JobBudget::default(),
            crash_rig: CrashRig::default(),
        }
    }
}

/// `name`'s value parsed by `parse`; `None` when unset or empty.
fn var<T>(
    env: &impl Fn(&str) -> Option<String>,
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match env(name).filter(|v| !v.is_empty()) {
        None => Ok(None),
        Some(v) => parse(&v)
            .map(Some)
            .ok_or_else(|| format!("bad {name}={v} (see README, \"Runtime options\")")),
    }
}

fn number<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

impl RuntimeOptions {
    /// Resolves the options from the `--jobs` / `--shards` flag values (if
    /// given) and an environment lookup.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the variable and the value when any
    /// `STCC_*` value does not parse — also one a flag overrides.
    pub fn resolve(
        jobs: Option<usize>,
        shards: Option<usize>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<RuntimeOptions, String> {
        let positive = |n: &u64| *n > 0;
        let env_jobs = var(&env, "STCC_JOBS", number::<usize>)?.filter(|&n| n > 0);
        let env_shards = var(&env, "STCC_SHARDS", number::<usize>)?;
        let every = var(&env, "STCC_CKPT_EVERY", number::<u64>)?.filter(positive);
        let dir = var(&env, "STCC_CKPT_DIR", |v| Some(PathBuf::from(v)))?
            .unwrap_or_else(|| PathBuf::from("checkpoints"));
        Ok(RuntimeOptions {
            jobs: jobs.or(env_jobs),
            shards: shards.or(env_shards).map_or(1, |n| n.max(1)),
            audit_every: var(&env, "STCC_AUDIT", number::<u64>)?.filter(positive),
            checkpoint: every.map(|every| (every, dir)),
            livelock_window: var(&env, "STCC_LIVELOCK_WINDOW", number::<u64>)?
                .map_or(Some(DEFAULT_LIVELOCK_WINDOW), |w| Some(w).filter(positive)),
            budget: JobBudget::default(),
            crash_rig: var(&env, "STCC_CAMPAIGN_FAIL", CrashRig::parse)?.unwrap_or_default(),
        })
    }

    /// [`RuntimeOptions::resolve`] with no flags, against the process
    /// environment (binaries without `--jobs`/`--shards`).
    ///
    /// # Errors
    ///
    /// As [`RuntimeOptions::resolve`].
    pub fn from_env() -> Result<RuntimeOptions, String> {
        RuntimeOptions::resolve(None, None, process_env)
    }
}

/// The process environment as a lookup — the workspace's only reader of
/// it. A value that is not Unicode reads as (lossily converted) text, for
/// the parser to reject by name.
#[must_use]
pub(crate) fn process_env(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => Some(v.to_string_lossy().into_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        }
    }

    #[test]
    fn nothing_set_is_the_default() {
        assert_eq!(
            RuntimeOptions::resolve(None, None, env(&[])),
            Ok(RuntimeOptions::default())
        );
    }

    /// Unset, empty and `0` keep the meanings they always had.
    #[test]
    fn empty_and_zero_mean_what_they_meant() {
        let d = RuntimeOptions::default();
        for v in ["", "0"] {
            let o = RuntimeOptions::resolve(
                None,
                None,
                env(&[
                    ("STCC_JOBS", v),
                    ("STCC_SHARDS", v),
                    ("STCC_AUDIT", v),
                    ("STCC_CKPT_EVERY", v),
                ]),
            )
            .unwrap();
            assert_eq!(o, d, "value {v:?}");
        }
        let o = RuntimeOptions::resolve(None, None, env(&[("STCC_LIVELOCK_WINDOW", "")])).unwrap();
        assert_eq!(o.livelock_window, Some(DEFAULT_LIVELOCK_WINDOW));
        let o = RuntimeOptions::resolve(None, None, env(&[("STCC_LIVELOCK_WINDOW", "0")])).unwrap();
        assert_eq!(o.livelock_window, None, "0 disables the watchdog");
    }

    #[test]
    fn well_formed_values_land_in_their_fields() {
        let o = RuntimeOptions::resolve(
            None,
            None,
            env(&[
                ("STCC_JOBS", "3"),
                ("STCC_SHARDS", "4"),
                ("STCC_AUDIT", "64"),
                ("STCC_CKPT_EVERY", "2000"),
                ("STCC_CKPT_DIR", "/tmp/cks"),
                ("STCC_LIVELOCK_WINDOW", "5000"),
                ("STCC_CAMPAIGN_FAIL", "flaky:2, doomed:all"),
            ]),
        )
        .unwrap();
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.shards, 4);
        assert_eq!(o.audit_every, Some(64));
        assert_eq!(o.checkpoint, Some((2000, PathBuf::from("/tmp/cks"))));
        assert_eq!(o.livelock_window, Some(5000));
        assert!(o.crash_rig.crashes("flaky", 0));
        assert!(o.crash_rig.crashes("flaky", 1));
        assert!(!o.crash_rig.crashes("flaky", 2));
        assert!(o.crash_rig.crashes("doomed", 0));
        assert!(o.crash_rig.crashes("doomed", 99));
        assert!(!o.crash_rig.crashes("steady", 0));
        // The directory alone switches nothing on; the default one is used
        // when only the cadence is given.
        let o = RuntimeOptions::resolve(None, None, env(&[("STCC_CKPT_DIR", "/x")])).unwrap();
        assert_eq!(o.checkpoint, None);
        let o = RuntimeOptions::resolve(None, None, env(&[("STCC_CKPT_EVERY", "9")])).unwrap();
        assert_eq!(o.checkpoint, Some((9, PathBuf::from("checkpoints"))));
    }

    /// The one malformed-value rule: every variable, same treatment — an
    /// error that names the variable and the value.
    #[test]
    fn every_malformed_value_is_a_usage_error() {
        for (name, value) in [
            ("STCC_JOBS", "many"),
            ("STCC_JOBS", "-1"),
            ("STCC_SHARDS", "banana"),
            ("STCC_SHARDS", "2.5"),
            ("STCC_AUDIT", "banana"),
            ("STCC_AUDIT", "yes"),
            ("STCC_CKPT_EVERY", "often"),
            ("STCC_LIVELOCK_WINDOW", "1e6"),
            ("STCC_CAMPAIGN_FAIL", "flaky"),
            ("STCC_CAMPAIGN_FAIL", "flaky:soon"),
            ("STCC_CAMPAIGN_FAIL", "flaky:1,,doomed:all"),
        ] {
            let msg = RuntimeOptions::resolve(None, None, env(&[(name, value)]))
                .expect_err(&format!("{name}={value} must be rejected"));
            assert!(msg.contains(&format!("{name}={value}")), "{msg}");
            // A flag that would win does not excuse it.
            assert!(RuntimeOptions::resolve(Some(2), Some(2), env(&[(name, value)])).is_err());
        }
    }

    #[test]
    fn flags_beat_variables() {
        let both = env(&[("STCC_JOBS", "3"), ("STCC_SHARDS", "8")]);
        let o = RuntimeOptions::resolve(Some(5), Some(4), &both).unwrap();
        assert_eq!((o.jobs, o.shards), (Some(5), 4));
        let o = RuntimeOptions::resolve(None, None, &both).unwrap();
        assert_eq!((o.jobs, o.shards), (Some(3), 8));
        let o = RuntimeOptions::resolve(Some(5), Some(4), env(&[])).unwrap();
        assert_eq!((o.jobs, o.shards), (Some(5), 4));
    }
}
