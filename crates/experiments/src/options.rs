//! The runtime options of a run: everything that steers *how* a sweep
//! executes (never *what* it computes — every value here leaves the output
//! bytes unchanged), resolved once at the front door and then carried as a
//! value: `Cli` → [`crate::SweepCtx`] → the run helpers → the simulation.
//! README.md, "Runtime options", is the table of flags, `STCC_*` spellings,
//! defaults and consumers.
//!
//! A flag beats its variable. An unset, empty or `0` variable means the
//! default. Anything that does not parse is a usage error naming the
//! variable and the value — nothing is skipped with a warning. The shard
//! count and the per-job budget have no spelling of their own: the first
//! is a library-only pin, the second `campaign` fills in from its manifest.

use crate::runner::Pool;
use std::str::FromStr;
use std::time::Duration;

/// The resolved options (see the [module documentation](self) for the
/// rules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Sweep worker count (`None`: the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Step-loop shard count of every simulation (at least 1; default 1).
    /// A library-only pin for the tests that prove shard invariance: no
    /// flag, variable or manifest key sets it (DESIGN.md §4d).
    pub shards: usize,
    /// Full invariant audit every this many cycles and at every checkpoint.
    pub audit_every: Option<u64>,
    /// Per-job wall-clock budget, measured from when the job's simulation
    /// starts and enforced cooperatively by its run guard.
    pub budget: Option<Duration>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            jobs: None,
            shards: 1,
            audit_every: None,
            budget: None,
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
    /// Resolves the options from the `--jobs` flag value (if given) and an
    /// environment lookup.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the variable and the value when any
    /// `STCC_*` value does not parse — also one a flag overrides.
    pub fn resolve(
        jobs: Option<usize>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<RuntimeOptions, String> {
        let env_jobs = var(&env, "STCC_JOBS", number::<usize>)?.filter(|&n| n > 0);
        Ok(RuntimeOptions {
            jobs: jobs.or(env_jobs),
            audit_every: var(&env, "STCC_AUDIT", number::<u64>)?.filter(|&n| n > 0),
            ..RuntimeOptions::default()
        })
    }

    /// [`RuntimeOptions::resolve`] against the process environment.
    ///
    /// # Errors
    ///
    /// As [`RuntimeOptions::resolve`].
    pub fn from_env(jobs: Option<usize>) -> Result<RuntimeOptions, String> {
        RuntimeOptions::resolve(jobs, process_env)
    }

    /// The worker pool these options ask for: `--jobs`, else `STCC_JOBS`,
    /// else the machine's available parallelism. Progress lines go to
    /// stderr.
    #[must_use]
    pub fn pool(&self) -> Pool {
        let jobs = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        Pool::new(jobs).with_progress(true)
    }
}

/// The value of a `--jobs N` flag: a positive integer.
///
/// # Errors
///
/// Returns a usage message when the value is missing, zero or not a number.
pub fn jobs_flag(v: Option<String>) -> Result<usize, String> {
    let v = v.ok_or("--jobs needs a value")?;
    match v.parse() {
        Ok(0) => Err("--jobs must be at least 1".to_owned()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad --jobs value '{v}'")),
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
            RuntimeOptions::resolve(None, env(&[])),
            Ok(RuntimeOptions::default())
        );
    }

    /// Unset, empty and `0` keep the meanings they always had.
    #[test]
    fn empty_and_zero_mean_what_they_meant() {
        let d = RuntimeOptions::default();
        for v in ["", "0"] {
            let o =
                RuntimeOptions::resolve(None, env(&[("STCC_JOBS", v), ("STCC_AUDIT", v)])).unwrap();
            assert_eq!(o, d, "value {v:?}");
        }
    }

    #[test]
    fn well_formed_values_land_in_their_fields() {
        let o = RuntimeOptions::resolve(None, env(&[("STCC_JOBS", "3"), ("STCC_AUDIT", "64")]))
            .unwrap();
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.shards, 1);
        assert_eq!(o.audit_every, Some(64));
    }

    /// The one malformed-value rule: every variable, same treatment — an
    /// error that names the variable and the value.
    #[test]
    fn every_malformed_value_is_a_usage_error() {
        for (name, value) in [
            ("STCC_JOBS", "many"),
            ("STCC_JOBS", "-1"),
            ("STCC_AUDIT", "banana"),
            ("STCC_AUDIT", "yes"),
        ] {
            let msg = RuntimeOptions::resolve(None, env(&[(name, value)]))
                .expect_err(&format!("{name}={value} must be rejected"));
            assert!(msg.contains(&format!("{name}={value}")), "{msg}");
            // A flag that would win does not excuse it.
            assert!(RuntimeOptions::resolve(Some(2), env(&[(name, value)])).is_err());
        }
    }

    #[test]
    fn flags_beat_variables() {
        let jobs = env(&[("STCC_JOBS", "3")]);
        assert_eq!(
            RuntimeOptions::resolve(Some(5), &jobs).unwrap().jobs,
            Some(5)
        );
        assert_eq!(RuntimeOptions::resolve(None, &jobs).unwrap().jobs, Some(3));
        assert_eq!(
            RuntimeOptions::resolve(Some(5), env(&[])).unwrap().jobs,
            Some(5)
        );
    }
}
