//! Resumable sweep execution: a [`Pool`], the run's [`RuntimeOptions`] and
//! an optional journal of completed points.
//!
//! Figure modules render their final row strings *inside* the worker
//! closure and fan out through [`SweepCtx::try_run_rows`]; each finished
//! job's rows are journaled (fsync'd) before the job counts as done, and on
//! `--resume` journaled jobs are replayed from disk instead of
//! re-simulated. Jobs are numbered by a context-global counter in issue
//! order, so a binary that runs several sweeps (e.g. `fig7`) gets stable
//! indices across runs.

use crate::journal::{FailureKind, Journal, JournalLoad, Rows};
use crate::runner::{JobError, Pool, SweepError};
use crate::RuntimeOptions;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Execution context of one sweep binary: worker pool, runtime options,
/// resume state and the journal of completed points.
#[derive(Debug)]
pub struct SweepCtx {
    pool: Pool,
    opts: RuntimeOptions,
    journal: Option<Mutex<Journal>>,
    done: BTreeMap<u64, Rows>,
    retried: usize,
    next_id: AtomicU64,
}

impl SweepCtx {
    /// A journal-less context with default options (tests and library
    /// callers): every job runs.
    #[must_use]
    pub fn bare(pool: Pool) -> SweepCtx {
        SweepCtx {
            pool,
            opts: RuntimeOptions::default(),
            journal: None,
            done: BTreeMap::new(),
            retried: 0,
            next_id: AtomicU64::new(0),
        }
    }

    /// A journaling context seeded with a previous run's load: completed
    /// jobs are replayed, journaled failures are *retried*
    /// (see [`Journal::begin`]).
    #[must_use]
    pub fn with_journal(pool: Pool, journal: Journal, load: JournalLoad) -> SweepCtx {
        SweepCtx {
            pool,
            opts: RuntimeOptions::default(),
            journal: Some(Mutex::new(journal)),
            done: load.done,
            retried: load.failed.len(),
            next_id: AtomicU64::new(0),
        }
    }

    /// Replaces the runtime options every simulation of this sweep runs
    /// under (shards, audit and checkpoint cadence, watchdog, budget).
    #[must_use]
    pub fn with_options(mut self, opts: RuntimeOptions) -> SweepCtx {
        self.opts = opts;
        self
    }

    /// The worker pool.
    #[must_use]
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The runtime options.
    #[must_use]
    pub fn options(&self) -> &RuntimeOptions {
        &self.opts
    }

    /// Number of journaled (already completed) jobs this context resumed
    /// with.
    #[must_use]
    pub fn resumed_jobs(&self) -> usize {
        self.done.len()
    }

    /// Number of journaled *failed* jobs this context resumed with — they
    /// are re-run, not replayed.
    #[must_use]
    pub fn retried_jobs(&self) -> usize {
        self.retried
    }

    /// Runs `work(job)` for every job not already journaled, fanned across
    /// the pool, and returns every job's rendered rows — journaled and
    /// fresh alike — flattened in input order.
    ///
    /// `work` must render the job's final table rows: they are what the
    /// journal replays on resume, byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns the first failing point's [`SweepError`]; completed points
    /// stay journaled and failed points get a typed failure record
    /// ([`FailureKind`]), so a resume replays the former and retries the
    /// latter.
    pub fn try_run_rows<J, L, F, E>(
        &self,
        jobs: Vec<J>,
        label: L,
        work: F,
    ) -> Result<Vec<Vec<String>>, SweepError>
    where
        J: Send,
        L: Fn(&J) -> String + Sync,
        F: Fn(J) -> Result<Rows, E> + Sync,
        E: Into<JobError>,
    {
        let base = self.next_id.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let mut slots: Vec<Option<Rows>> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<(u64, usize, J)> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let id = base + i as u64;
            if let Some(rows) = self.done.get(&id) {
                slots.push(Some(rows.clone()));
            } else {
                slots.push(None);
                pending.push((id, i, job));
            }
        }
        let ids: Vec<u64> = pending.iter().map(|(id, _, _)| *id).collect();
        // `run`, not `try_run`: every job's outcome is needed so each
        // failure (not just the first) gets its typed journal record.
        let outcomes = self.pool.run(
            pending,
            |(_, _, job)| label(job),
            |(id, i, job)| {
                let rows = work(job).map_err(Into::into)?;
                if let Some(journal) = &self.journal {
                    journal
                        .lock()
                        .expect("journal lock")
                        .append(id, &rows)
                        .map_err(|e| JobError::Failed(format!("journal write: {e}")))?;
                }
                Ok::<_, JobError>((i, rows))
            },
        );
        let mut first_err: Option<SweepError> = None;
        for (outcome, id) in outcomes.into_iter().zip(ids) {
            match outcome {
                Ok((i, rows)) => slots[i] = Some(rows),
                Err(err) => {
                    if let (Some(journal), Some(kind)) =
                        (&self.journal, FailureKind::of(&err.error))
                    {
                        let message = format!("{}: {}", err.label, err.error);
                        // Best-effort: a failed failure record just means
                        // the point re-runs without its diagnosis.
                        let _ = journal
                            .lock()
                            .expect("journal lock")
                            .append_failure(id, kind, &message);
                    }
                    first_err.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        Ok(slots
            .into_iter()
            .flat_map(|s| s.expect("done or freshly run: every slot is filled"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn rowset(tag: &str) -> Rows {
        vec![vec![tag.to_owned(), "1".to_owned()]]
    }

    #[test]
    fn bare_context_runs_everything_in_order() {
        let ctx = SweepCtx::bare(Pool::new(4));
        let rows = ctx
            .try_run_rows(
                (0..10u32).collect(),
                |j| format!("j{j}"),
                |j| Ok::<_, String>(vec![vec![j.to_string()]]),
            )
            .unwrap();
        assert_eq!(
            rows,
            (0..10).map(|j| vec![j.to_string()]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn journaled_jobs_are_replayed_not_rerun() {
        let dir = std::env::temp_dir().join("stcc-sweep-test-replay");
        let path = dir.join("x.tiny.journal");
        let _ = fs::remove_file(&path);
        // Seed the journal with job 1's rows — but a *sentinel* payload a
        // fresh run would never produce, proving the journal is the source.
        let (mut j, _) = Journal::begin(&path, 42, false).unwrap();
        j.append(1, &rowset("from-journal")).unwrap();
        drop(j);
        let (j, load) = Journal::begin(&path, 42, true).unwrap();
        let ctx = SweepCtx::with_journal(Pool::new(2), j, load);
        let rows = ctx
            .try_run_rows(
                vec!["a", "b", "c"],
                |j| (*j).to_owned(),
                |j| Ok::<_, String>(rowset(&format!("ran-{j}"))),
            )
            .unwrap();
        assert_eq!(rows[0][0], "ran-a");
        assert_eq!(rows[1][0], "from-journal", "job 1 came from the journal");
        assert_eq!(rows[2][0], "ran-c");
        // Jobs a and c were appended, so a second resume replays all three.
        let (j, load) = Journal::begin(&path, 42, true).unwrap();
        assert_eq!(load.done.len(), 3);
        let ctx = SweepCtx::with_journal(Pool::new(2), j, load);
        assert_eq!(ctx.resumed_jobs(), 3);
        let rows = ctx
            .try_run_rows(
                vec!["a", "b", "c"],
                |j| (*j).to_owned(),
                |_| Err::<Rows, _>("must not re-run".to_owned()),
            )
            .unwrap();
        assert_eq!(rows[1][0], "from-journal");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ids_advance_across_multiple_sweeps_in_one_context() {
        let dir = std::env::temp_dir().join("stcc-sweep-test-multi");
        let path = dir.join("m.tiny.journal");
        let _ = fs::remove_file(&path);
        let (j, load) = Journal::begin(&path, 7, false).unwrap();
        let ctx = SweepCtx::with_journal(Pool::new(1), j, load);
        ctx.try_run_rows(
            vec![0u32, 1],
            |j| j.to_string(),
            |j| Ok::<_, String>(rowset(&format!("first-{j}"))),
        )
        .unwrap();
        ctx.try_run_rows(
            vec![0u32],
            |j| j.to_string(),
            |j| Ok::<_, String>(rowset(&format!("second-{j}"))),
        )
        .unwrap();
        let (_, load) = Journal::begin(&path, 7, true).unwrap();
        assert_eq!(load.done.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(load.done[&2], rowset("second-0"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failures_are_journaled_typed_and_retried_on_resume() {
        let dir = std::env::temp_dir().join("stcc-sweep-test-failrec");
        let path = dir.join("f.tiny.journal");
        let _ = fs::remove_file(&path);
        let (j, load) = Journal::begin(&path, 99, false).unwrap();
        let ctx = SweepCtx::with_journal(Pool::new(2), j, load);
        // Job "b" times out, job "p" panics; "a" and "c" succeed. All four
        // outcomes must land in the journal even though only the first
        // failure is reported.
        let err = ctx
            .try_run_rows(
                vec!["a", "b", "p", "c"],
                |j| (*j).to_owned(),
                |j| match j {
                    "b" => Err(JobError::TimedOut("wedged at cycle 7".into())),
                    "p" => panic!("worker exploded"),
                    other => Ok(rowset(&format!("ran-{other}"))),
                },
            )
            .unwrap_err();
        assert_eq!(err.label, "b", "lowest-index failure is reported");
        assert!(matches!(err.error, JobError::TimedOut(_)));
        // Resume: successes replay, both failures come back typed and are
        // re-run (they are not in `done`).
        let (j, load) = Journal::begin(&path, 99, true).unwrap();
        assert_eq!(load.done.keys().copied().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(load.failed.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(load.failed[&1].kind, FailureKind::TimedOut);
        assert!(load.failed[&1].message.contains("wedged at cycle 7"));
        assert_eq!(load.failed[&2].kind, FailureKind::Panicked);
        assert!(load.failed[&2].message.contains("worker exploded"));
        let ctx = SweepCtx::with_journal(Pool::new(2), j, load);
        assert_eq!(ctx.resumed_jobs(), 2);
        assert_eq!(ctx.retried_jobs(), 2);
        let rows = ctx
            .try_run_rows(
                vec!["a", "b", "p", "c"],
                |j| (*j).to_owned(),
                |j| match j {
                    // This time they succeed: the retry supersedes the
                    // failure records.
                    "b" | "p" => Ok::<_, JobError>(rowset(&format!("retried-{j}"))),
                    other => Ok(rowset(&format!("must-not-rerun-{other}"))),
                },
            )
            .unwrap();
        assert_eq!(rows[0][0], "ran-a", "success replayed from journal");
        assert_eq!(rows[1][0], "retried-b");
        assert_eq!(rows[2][0], "retried-p");
        let (_, load) = Journal::begin(&path, 99, true).unwrap();
        assert_eq!(load.done.len(), 4);
        assert!(load.failed.is_empty());
        fs::remove_file(&path).unwrap();
    }
}
