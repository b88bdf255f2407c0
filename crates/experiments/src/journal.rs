//! Per-sweep resume journal.
//!
//! An append-only, fsync'd text file recording the rendered rows of every
//! completed sweep point — and a typed error record for every point that
//! *failed* — so a killed run (crash, SIGKILL, SIGINT) can be re-entered
//! with `--resume` and only re-simulate what never finished. Because every
//! job is deterministic, replaying journaled rows is bit-identical to
//! re-running them — the golden CSVs prove it. Failure records are never
//! replayed: on resume the failed point is *retried* (with the failure kept
//! on disk until a success supersedes it), so a sweep wedged on one
//! timed-out point does not lose the diagnosis or re-crash blind.
//!
//! Format (one record per line, human-inspectable):
//!
//! ```text
//! stcc-journal v1 <16-hex sweep fingerprint>
//! <job index> <8-hex crc32 of payload> <escaped payload>
//! fail <job index> <8-hex crc32 of payload> <kind>\t<escaped message>
//! ```
//!
//! The success payload is the job's rows: cells escaped (`\` `\t` `\n` `\v`
//! → `\\` `\t` `\n` `\v` escape sequences), joined by tabs within a row and
//! by vertical tabs between rows. A failure payload is the error kind
//! (`timeout`, `panic` or `failed`) and the escaped diagnostic message.
//! Each record is flushed and fsync'd before the job is considered
//! complete, so at most the final line can be torn by a crash; loading
//! tolerates (and drops) torn or corrupt lines, and re-opening for resume
//! compacts the file back to only its valid records. Per job index the
//! *last* record wins, so a retry that succeeds supersedes its earlier
//! failure record.

use crate::runner::JobError;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// Rendered rows of one completed job.
pub type Rows = Vec<Vec<String>>;

const HEADER_TAG: &str = "stcc-journal v1";
const FAIL_TAG: &str = "fail";

/// The journaled class of a failed job (the [`JobError`] variants worth
/// persisting; `Interrupted` jobs never ran, so they are not recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The job's watchdog fired: livelock or an exhausted wall budget.
    TimedOut,
    /// The job panicked.
    Panicked,
    /// The job returned a typed error (e.g. an invalid configuration).
    Failed,
}

impl FailureKind {
    /// The journaled kind of `error`, or `None` for errors that must not be
    /// recorded (`Interrupted`: the job never ran and will simply re-run).
    #[must_use]
    pub fn of(error: &JobError) -> Option<FailureKind> {
        match error {
            JobError::TimedOut(_) => Some(FailureKind::TimedOut),
            JobError::Panicked(_) => Some(FailureKind::Panicked),
            JobError::Failed(_) => Some(FailureKind::Failed),
            JobError::Interrupted => None,
        }
    }

    /// The on-disk (and report) tag.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::TimedOut => "timeout",
            FailureKind::Panicked => "panic",
            FailureKind::Failed => "failed",
        }
    }

    /// Parses an on-disk tag.
    #[must_use]
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "timeout" => Some(FailureKind::TimedOut),
            "panic" => Some(FailureKind::Panicked),
            "failed" => Some(FailureKind::Failed),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A journaled typed failure: what killed the point on its last attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// The error class.
    pub kind: FailureKind,
    /// The diagnostic message of the failing attempt.
    pub message: String,
}

/// Everything a journal held when it was reopened: completed jobs to
/// replay verbatim, and failed jobs to *retry* (their records survive
/// compaction so the diagnosis is never lost, but they are not replayed).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct JournalLoad {
    /// Rendered rows of every completed job, by job index.
    pub done: BTreeMap<u64, Rows>,
    /// The last recorded failure of every job that never completed.
    pub failed: BTreeMap<u64, FailureRecord>,
}

/// An open, append-only sweep journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Opens the journal at `path` for a sweep identified by `fingerprint`.
    ///
    /// With `resume` set, any valid records from a previous run (same
    /// fingerprint) are loaded and returned, and the file is compacted to
    /// exactly those records. Otherwise — or when the existing file belongs
    /// to a different sweep or is unreadable — the journal starts fresh.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating or rewriting the file.
    pub fn begin(
        path: &Path,
        fingerprint: u64,
        resume: bool,
    ) -> io::Result<(Journal, JournalLoad)> {
        let load = if resume {
            load(path, fingerprint)
        } else {
            JournalLoad::default()
        };
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Rewrite from scratch either way: a fresh start truncates stale
        // records, and a resume compacts away any torn tail line so new
        // appends land on a clean line boundary.
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        writeln!(file, "{HEADER_TAG} {fingerprint:016x}")?;
        for (idx, rows) in &load.done {
            write_record(&mut file, *idx, rows)?;
        }
        for (idx, failure) in &load.failed {
            write_failure(&mut file, *idx, failure.kind, &failure.message)?;
        }
        file.sync_data()?;
        Ok((Journal { file }, load))
    }

    /// Appends (and fsyncs) one completed job's rows.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; an unrecorded job must not count as
    /// complete.
    pub fn append(&mut self, idx: u64, rows: &Rows) -> io::Result<()> {
        write_record(&mut self.file, idx, rows)?;
        self.file.sync_data()
    }

    /// Appends (and fsyncs) a typed failure record for job `idx`, so a
    /// resume retries the point instead of silently forgetting why it died.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append_failure(&mut self, idx: u64, kind: FailureKind, message: &str) -> io::Result<()> {
        write_failure(&mut self.file, idx, kind, message)?;
        self.file.sync_data()
    }
}

fn write_record(file: &mut File, idx: u64, rows: &Rows) -> io::Result<()> {
    let payload = escape_rows(rows);
    let crc = checkpoint::crc32(payload.as_bytes());
    writeln!(file, "{idx} {crc:08x} {payload}")
}

fn write_failure(file: &mut File, idx: u64, kind: FailureKind, message: &str) -> io::Result<()> {
    let payload = format!("{}\t{}", kind.label(), escape_cell(message));
    let crc = checkpoint::crc32(payload.as_bytes());
    writeln!(file, "{FAIL_TAG} {idx} {crc:08x} {payload}")
}

/// Loads every valid record of a journal with a matching fingerprint;
/// anything unreadable, foreign or corrupt yields an empty load.
fn load(path: &Path, fingerprint: u64) -> JournalLoad {
    let mut text = String::new();
    let ok = File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .is_ok();
    if !ok {
        return JournalLoad::default();
    }
    let lines: Vec<&str> = text.lines().collect();
    if lines.first() != Some(&format!("{HEADER_TAG} {fingerprint:016x}").as_str()) {
        return JournalLoad::default();
    }
    let records = &lines[1..];
    let mut out = JournalLoad::default();
    for (i, line) in records.iter().enumerate() {
        // Per index the last record wins: a success supersedes any earlier
        // failure (a retried point), and vice versa.
        match parse_line(line) {
            Some(Record::Done(idx, rows)) => {
                out.failed.remove(&idx);
                out.done.insert(idx, rows);
            }
            Some(Record::Failed(idx, failure)) => {
                out.done.remove(&idx);
                out.failed.insert(idx, failure);
            }
            None => {
                // A record that fails its CRC or shape check is dropped and
                // its point re-run. The expected cause is a crash mid-append
                // tearing the final line; anything earlier is bit rot.
                let what = if i + 1 == records.len() {
                    "torn trailing"
                } else {
                    "corrupt"
                };
                eprintln!(
                    "warning: dropping {what} record at {}:{} — its point will be re-run",
                    path.display(),
                    i + 2
                );
            }
        }
    }
    out
}

enum Record {
    Done(u64, Rows),
    Failed(u64, FailureRecord),
}

fn parse_line(line: &str) -> Option<Record> {
    if let Some(rest) = line.strip_prefix("fail ") {
        let (idx, payload) = parse_checked(rest)?;
        let (kind, message) = payload.split_once('\t')?;
        let kind = FailureKind::parse(kind)?;
        let message = unescape_cell(message)?;
        return Some(Record::Failed(idx, FailureRecord { kind, message }));
    }
    let (idx, payload) = parse_checked(line)?;
    unescape_rows(payload).map(|rows| Record::Done(idx, rows))
}

/// Parses `<idx> <crc> <payload>`, validating the CRC.
fn parse_checked(line: &str) -> Option<(u64, &str)> {
    let mut parts = line.splitn(3, ' ');
    let idx: u64 = parts.next()?.parse().ok()?;
    let crc: u32 = u32::from_str_radix(parts.next()?, 16).ok()?;
    let payload = parts.next()?;
    if checkpoint::crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some((idx, payload))
}

fn escape_cell(cell: &str) -> String {
    let mut out = String::with_capacity(cell.len());
    for c in cell.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\x0b' => out.push_str("\\v"),
            other => out.push(other),
        }
    }
    out
}

fn escape_rows(rows: &Rows) -> String {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|c| escape_cell(c))
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect::<Vec<_>>()
        .join("\x0b")
}

fn unescape_cell(cell: &str) -> Option<String> {
    let mut out = String::with_capacity(cell.len());
    let mut chars = cell.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'v' => out.push('\x0b'),
            _ => return None,
        }
    }
    Some(out)
}

fn unescape_rows(payload: &str) -> Option<Rows> {
    payload
        .split('\x0b')
        .map(|row| {
            row.split('\t')
                .map(unescape_cell)
                .collect::<Option<Vec<_>>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: u64) -> Rows {
        vec![
            vec![format!("r{n}"), "0.5".to_owned()],
            vec![
                "x,\"y\"".to_owned(),
                "tab\there\nand\\slash\x0btoo".to_owned(),
            ],
        ]
    }

    #[test]
    fn round_trips_awkward_cells() {
        let dir = std::env::temp_dir().join("stcc-journal-test-rt");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, load) = Journal::begin(&path, 0xabcd, false).unwrap();
        assert!(load.done.is_empty());
        j.append(3, &rows(3)).unwrap();
        j.append(1, &rows(1)).unwrap();
        drop(j);
        let (_, load) = Journal::begin(&path, 0xabcd, true).unwrap();
        assert_eq!(load.done.len(), 2);
        assert_eq!(load.done[&3], rows(3));
        assert_eq!(load.done[&1], rows(1));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_start_truncates_and_mismatched_fingerprint_ignores() {
        let dir = std::env::temp_dir().join("stcc-journal-test-fp");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _) = Journal::begin(&path, 1, false).unwrap();
        j.append(0, &rows(0)).unwrap();
        drop(j);
        // Different fingerprint: the journal belongs to another sweep.
        let (_, load) = Journal::begin(&path, 2, true).unwrap();
        assert!(load.done.is_empty());
        // Fresh (non-resume) start discards records even with a match.
        let (mut j, _) = Journal::begin(&path, 1, false).unwrap();
        j.append(5, &rows(5)).unwrap();
        drop(j);
        let (_, load) = Journal::begin(&path, 1, true).unwrap();
        assert_eq!(load.done.keys().copied().collect::<Vec<_>>(), vec![5]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_and_corrupt_lines_are_dropped() {
        let dir = std::env::temp_dir().join("stcc-journal-test-torn");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _) = Journal::begin(&path, 9, false).unwrap();
        j.append(0, &rows(0)).unwrap();
        j.append(1, &rows(1)).unwrap();
        drop(j);
        // Simulate a crash mid-append: a torn final line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("2 0badc0de r2\ttorn-without-newl");
        fs::write(&path, &text).unwrap();
        let (_, load) = Journal::begin(&path, 9, true).unwrap();
        assert_eq!(load.done.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        // The reopened journal was compacted: reloading again is clean.
        let (_, load) = Journal::begin(&path, 9, true).unwrap();
        assert_eq!(load.done.len(), 2);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tail_truncated_at_every_byte_offset_never_errors() {
        // A crash mid-`fsync` can leave any prefix of the final record on
        // disk. Whatever the cut point, resume must keep every earlier
        // record, drop the partial one, and never error.
        let dir = std::env::temp_dir().join("stcc-journal-test-cut");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _) = Journal::begin(&path, 5, false).unwrap();
        j.append(0, &rows(0)).unwrap();
        j.append(1, &rows(1)).unwrap();
        j.append(2, &rows(2)).unwrap();
        drop(j);
        let full = fs::read(&path).unwrap();
        // Start of the last record = just past the second record's newline.
        let text = String::from_utf8(full.clone()).unwrap();
        let mut newlines = text.match_indices('\n').map(|(i, _)| i);
        let base = newlines.nth(2).unwrap() + 1; // header + records 0 and 1
        assert!(base < full.len());
        for cut in base..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let (_, load) = Journal::begin(&path, 5, true).unwrap();
            // Losing only the final newline leaves record 2 intact (the CRC
            // still passes), so that single cut point legitimately keeps it.
            let want = if cut == full.len() - 1 {
                vec![0, 1, 2]
            } else {
                vec![0, 1]
            };
            assert_eq!(
                load.done.keys().copied().collect::<Vec<_>>(),
                want,
                "cut at byte {cut} lost an intact record or kept a torn one"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_resumes_empty() {
        let path = std::env::temp_dir().join("stcc-journal-test-none/no.journal");
        let _ = fs::remove_file(&path);
        let (_, load) = Journal::begin(&path, 7, true).unwrap();
        assert!(load.done.is_empty() && load.failed.is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_records_round_trip_and_survive_compaction() {
        let dir = std::env::temp_dir().join("stcc-journal-test-fail");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _) = Journal::begin(&path, 11, false).unwrap();
        j.append(0, &rows(0)).unwrap();
        j.append_failure(1, FailureKind::TimedOut, "livelock at cycle 42\twedged")
            .unwrap();
        j.append_failure(2, FailureKind::Panicked, "boom\nwith newline")
            .unwrap();
        drop(j);
        let (_, load) = Journal::begin(&path, 11, true).unwrap();
        assert_eq!(load.done.keys().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(load.failed.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(load.failed[&1].kind, FailureKind::TimedOut);
        assert_eq!(load.failed[&1].message, "livelock at cycle 42\twedged");
        assert_eq!(load.failed[&2].kind, FailureKind::Panicked);
        assert_eq!(load.failed[&2].message, "boom\nwith newline");
        // Compaction preserved the failures: a second resume still sees
        // them (the diagnosis is not lost until a success supersedes it).
        let (_, load) = Journal::begin(&path, 11, true).unwrap();
        assert_eq!(load.failed.len(), 2);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn success_after_failure_supersedes_the_failure() {
        let dir = std::env::temp_dir().join("stcc-journal-test-retry");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _) = Journal::begin(&path, 12, false).unwrap();
        j.append_failure(4, FailureKind::TimedOut, "first attempt wedged")
            .unwrap();
        j.append(4, &rows(4)).unwrap();
        drop(j);
        let (_, load) = Journal::begin(&path, 12, true).unwrap();
        assert_eq!(load.done.keys().copied().collect::<Vec<_>>(), vec![4]);
        assert!(load.failed.is_empty(), "retried point must not stay failed");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_failure_record_is_dropped() {
        let dir = std::env::temp_dir().join("stcc-journal-test-failtorn");
        let path = dir.join("fig.test.journal");
        let _ = fs::remove_file(&path);
        let (mut j, _) = Journal::begin(&path, 13, false).unwrap();
        j.append_failure(0, FailureKind::Panicked, "real failure")
            .unwrap();
        drop(j);
        let full = fs::read_to_string(&path).unwrap();
        // Truncate mid-payload: the CRC no longer matches.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        let (_, load) = Journal::begin(&path, 13, true).unwrap();
        assert!(load.done.is_empty());
        assert!(load.failed.is_empty(), "torn failure line must be dropped");
        // Unknown kinds are rejected, not misread.
        let bogus = "notakind\tmsg";
        let crc = checkpoint::crc32(bogus.as_bytes());
        fs::write(
            &path,
            format!("{HEADER_TAG} {:016x}\nfail 0 {crc:08x} {bogus}\n", 13),
        )
        .unwrap();
        let (_, load) = Journal::begin(&path, 13, true).unwrap();
        assert!(load.failed.is_empty());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_kind_maps_job_errors() {
        assert_eq!(
            FailureKind::of(&JobError::TimedOut("x".into())),
            Some(FailureKind::TimedOut)
        );
        assert_eq!(
            FailureKind::of(&JobError::Panicked("x".into())),
            Some(FailureKind::Panicked)
        );
        assert_eq!(
            FailureKind::of(&JobError::Failed("x".into())),
            Some(FailureKind::Failed)
        );
        assert_eq!(FailureKind::of(&JobError::Interrupted), None);
        for kind in [
            FailureKind::TimedOut,
            FailureKind::Panicked,
            FailureKind::Failed,
        ] {
            assert_eq!(FailureKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FailureKind::parse("bogus"), None);
    }
}
