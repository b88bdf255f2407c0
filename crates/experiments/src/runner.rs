//! Deterministic parallel sweep runner.
//!
//! The paper's evaluation is a grid of independent (scheme × load ×
//! pattern) simulations, so the sweeps are embarrassingly parallel. This
//! module fans a list of jobs out across a fixed-size [`std::thread`] pool
//! (hermetic — no external dependencies) while keeping the output
//! **bit-identical to a sequential run**:
//!
//! - every job is a pure function of its own inputs (each simulation owns
//!   its RNG, seeded from the job's config — nothing is shared),
//! - each job writes into its own pre-allocated result slot, so the output
//!   order is the input order regardless of which worker ran what when,
//! - panics inside a job are caught per-slot and surfaced as
//!   [`JobError::Panicked`] instead of poisoning the whole sweep.
//!
//! The golden tests in `tests/golden.rs` lock this guarantee down: the
//! committed reference CSVs must match byte-for-byte at `--jobs 1`, `2`
//! and `8`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why one job of a sweep produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job returned an error (e.g. an invalid configuration).
    Failed(String),
    /// The job panicked; the payload is the panic message.
    Panicked(String),
    /// The job's watchdog fired: a livelocked simulation or an exhausted
    /// wall-clock budget ([`crate::RuntimeOptions::budget`]); the payload
    /// is the diagnostic.
    TimedOut(String),
    /// The sweep was interrupted (SIGINT) before this job ran; completed
    /// points are journaled, so the sweep can be resumed with `--resume`.
    Interrupted,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Failed(m) => write!(f, "job failed: {m}"),
            JobError::Panicked(m) => write!(f, "job panicked: {m}"),
            JobError::TimedOut(m) => write!(f, "job timed out: {m}"),
            JobError::Interrupted => f.write_str("interrupted before the job ran"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<String> for JobError {
    fn from(m: String) -> Self {
        JobError::Failed(m)
    }
}

/// A sweep-level error: which labelled point failed, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Human-readable label of the failing point.
    pub label: String,
    /// What went wrong.
    pub error: JobError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point '{}': {}", self.label, self.error)
    }
}

impl std::error::Error for SweepError {}

/// A fixed-size worker pool for deterministic fan-out of independent jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
    progress: bool,
}

impl Pool {
    /// A pool of exactly `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Pool {
        Pool {
            jobs: jobs.max(1),
            progress: false,
        }
    }

    /// Enables per-job progress lines on stderr (`[k/n] label`).
    #[must_use]
    pub fn with_progress(mut self, on: bool) -> Pool {
        self.progress = on;
        self
    }

    /// The worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `work(job)` for every job, fanned across the pool, and returns
    /// the results **in input order**.
    ///
    /// `label(job)` names a job for progress/error reporting. Each job's
    /// outcome is independent: a failed or panicked job yields an `Err`
    /// slot without disturbing the others. Once a SIGINT is observed
    /// ([`crate::sigint`]) workers stop claiming jobs; every unstarted
    /// job's slot comes back as [`JobError::Interrupted`].
    pub fn run<J, R, F, L, E>(&self, jobs: Vec<J>, label: L, work: F) -> Vec<Result<R, SweepError>>
    where
        J: Send,
        R: Send,
        F: Fn(J) -> Result<R, E> + Sync,
        L: Fn(&J) -> String + Sync,
        E: Into<JobError>,
    {
        let n = jobs.len();
        let labels: Vec<String> = jobs.iter().map(&label).collect();
        // Jobs move into per-slot cells; workers claim indices from a
        // shared cursor, so job `i`'s result always lands in slot `i`.
        let cells: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<Result<R, JobError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let workers = self.jobs.min(n.max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if crate::sigint::interrupted() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = cells[i]
                        .lock()
                        .expect("job cell lock")
                        .take()
                        .expect("each job index is claimed once");
                    let outcome = contain(|| work(job));
                    *slots[i].lock().expect("result slot lock") = Some(outcome);
                    let k = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.progress {
                        eprintln!("[{k}/{n}] {}", labels[i]);
                    }
                });
            }
        });

        slots
            .into_iter()
            .zip(labels)
            .map(|(slot, label)| {
                slot.into_inner()
                    .expect("result slot lock")
                    // A slot left unfilled means no worker ever claimed the
                    // job: the sweep was interrupted.
                    .unwrap_or(Err(JobError::Interrupted))
                    .map_err(|error| SweepError { label, error })
            })
            .collect()
    }

    /// Like [`Pool::run`], but fails the whole sweep on the first (lowest
    /// input index) failing job.
    ///
    /// # Errors
    ///
    /// Returns the first failing point's [`SweepError`].
    pub fn try_run<J, R, F, L, E>(
        &self,
        jobs: Vec<J>,
        label: L,
        work: F,
    ) -> Result<Vec<R>, SweepError>
    where
        J: Send,
        R: Send,
        F: Fn(J) -> Result<R, E> + Sync,
        L: Fn(&J) -> String + Sync,
        E: Into<JobError>,
    {
        self.run(jobs, label, work).into_iter().collect()
    }
}

/// Runs `work` with a panic caught: its message comes back as
/// [`JobError::Panicked`], so a panicking job fails alone. The one place a
/// job's panic is caught ([`Pool::run`] and a campaign job both call it).
pub(crate) fn contain<R, E: Into<JobError>>(
    work: impl FnOnce() -> Result<R, E>,
) -> Result<R, JobError> {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(e.into()),
        // `&*payload`, not `&payload`: a `&Box<dyn Any>` would itself
        // coerce to `&dyn Any` and hide the real payload behind a second
        // indirection.
        Err(payload) => Err(JobError::Panicked(panic_message(&*payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = Pool::new(4);
        let out = pool
            .try_run(
                (0..100u64).collect(),
                |j| format!("job{j}"),
                |j| {
                    // Stagger completion so scheduling order differs from
                    // input order.
                    std::thread::sleep(std::time::Duration::from_micros(100 - j));
                    Ok::<_, String>(j * 2)
                },
            )
            .unwrap();
        assert_eq!(out, (0..100).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_pool_sizes() {
        let run = |jobs| {
            Pool::new(jobs)
                .try_run(
                    (0..37u64).collect(),
                    |j| j.to_string(),
                    |j| Ok::<_, String>(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn panic_is_contained_to_its_slot() {
        let pool = Pool::new(2);
        let out = pool.run(
            vec![1, 2, 3],
            |j| format!("p{j}"),
            |j| {
                assert!(j != 2, "boom on {j}");
                Ok::<_, String>(j)
            },
        );
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.label, "p2");
        assert!(matches!(&err.error, JobError::Panicked(m) if m.contains("boom on 2")));
    }

    #[test]
    fn failure_surfaces_first_failing_index() {
        let pool = Pool::new(3);
        let err = pool
            .try_run(
                vec![0, 1, 2, 3],
                |j| format!("p{j}"),
                |j| {
                    if j % 2 == 1 {
                        Err(format!("odd {j}"))
                    } else {
                        Ok(j)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err.label, "p1");
        assert_eq!(err.error, JobError::Failed("odd 1".to_owned()));
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = Pool::new(4)
            .try_run(Vec::<u32>::new(), |_| String::new(), Ok::<u32, String>)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn typed_errors_pass_through_untouched() {
        let pool = Pool::new(2);
        let err = pool
            .try_run(
                vec![0u32],
                |j| format!("t{j}"),
                |_| Err::<u32, _>(JobError::TimedOut("wedged".into())),
            )
            .unwrap_err();
        assert_eq!(err.error, JobError::TimedOut("wedged".into()));
    }
}
