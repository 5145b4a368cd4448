//! A checksummed, append-only write-ahead journal for long selection
//! runs.
//!
//! The selection stack records one [`Record`] per completed unit of work
//! (a greedy round, a bounding cycle) and fsyncs at
//! those boundaries. After a crash, [`replay`] walks the file, validates
//! every record against its FNV-1a-64 checksum, **truncates the torn
//! tail** (a partially written final record is exactly what a crash
//! mid-append leaves behind), and hands back the complete prefix — the
//! run resumes from the last boundary, bitwise-identical to a run that
//! never died.
//!
//! # File format
//!
//! The format discipline is `submod_obs::format`'s, shared with the graph
//! store: a magic + version + flags header checked by
//! `format::check_header`, zero-checked reserved bytes, explicit
//! little-endian integers, FNV-1a-64 record checksums, and a typed error
//! for every way a file can be wrong.
//!
//! | offset | size | field                                      |
//! |--------|------|--------------------------------------------|
//! | 0      | 8    | magic `SUBMJNL1`                           |
//! | 8      | 4    | format version (`1`), little-endian        |
//! | 12     | 4    | flags (must be 0)                          |
//! | 16     | 16   | reserved, must be zero                     |
//! | 32     | …    | records                                    |
//!
//! Each record is framed as:
//!
//! | size | field                                                  |
//! |------|--------------------------------------------------------|
//! | 4    | payload length `L` ≤ [`MAX_RECORD_LEN`], little-endian |
//! | `L`  | payload (`u32` record kind + kind-specific fields)     |
//! | 8    | FNV-1a-64 checksum of the payload                      |
//!
//! # Replay rules
//!
//! 1. A bad header (magic, version, flags, reserved, or fewer than 32
//!    bytes) is a typed error — the file is not a journal.
//! 2. Records are read in order. An **incomplete frame** (length prefix
//!    or payload or checksum cut short) or a **checksum mismatch** ends
//!    the walk: everything from that offset on is the torn tail, and
//!    [`open_resume`] truncates it before appending.
//! 3. A checksum-*valid* record that does not decode (unknown kind,
//!    short payload) is **not** a torn tail — it is a format
//!    incompatibility and surfaces as a typed error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use submod_obs::faults::{self, FaultSite};
use submod_obs::format::{fnv1a64, HeaderError};

/// Journal file magic.
pub const MAGIC: [u8; 8] = *b"SUBMJNL1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 32;
/// Largest record payload. [`Journal::append`] refuses a longer one, and
/// [`replay`] treats a longer length prefix as a torn tail.
pub const MAX_RECORD_LEN: usize = 1 << 28;

/// The one record-length rule shared by the writer and the reader.
fn record_len_fits(len: usize) -> bool {
    len <= MAX_RECORD_LEN
}

/// Everything that can go wrong opening, appending to, or replaying a
/// journal.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An underlying I/O operation failed.
    Io {
        /// What the journal was doing.
        context: &'static str,
        /// The OS error (shared so the error type stays cheaply `Clone`).
        source: Arc<io::Error>,
    },
    /// The header is malformed: too short, a foreign magic, a future
    /// version, unknown flags, or non-zero reserved bytes.
    Header(HeaderError),
    /// A record payload is longer than [`MAX_RECORD_LEN`]; nothing was
    /// written.
    RecordTooLong {
        /// The payload length in bytes.
        len: usize,
    },
    /// A checksum-valid record carries a kind this build cannot decode.
    UnknownRecordKind {
        /// The unrecognized kind tag.
        kind: u32,
    },
    /// A checksum-valid record payload is structurally malformed.
    Malformed {
        /// What was wrong.
        detail: &'static str,
    },
}

impl JournalError {
    fn io(context: &'static str, source: io::Error) -> Self {
        JournalError::Io { context, source: Arc::new(source) }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { context, source } => {
                write!(f, "journal I/O failure while {context}: {source}")
            }
            JournalError::Header(err) => write!(f, "bad journal header: {err}"),
            JournalError::RecordTooLong { len } => {
                write!(f, "journal record of {len} bytes exceeds the {MAX_RECORD_LEN}-byte limit")
            }
            JournalError::UnknownRecordKind { kind } => {
                write!(f, "journal record kind {kind} is unknown to this build")
            }
            JournalError::Malformed { detail } => {
                write!(f, "malformed journal record: {detail}")
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Cumulative `GreedyStats` at a round boundary (plain numbers so the
/// journal does not depend on the selection crates).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GreedySnapshot {
    /// Rounds executed so far.
    pub rounds: u64,
    /// Synchronized argmax steps executed so far.
    pub steps: u64,
    /// Peak per-round driver bytes so far.
    pub peak_round_bytes: u64,
    /// Largest single-step winner collection so far.
    pub peak_step_winners: u64,
    /// Winner rows collected so far.
    pub winners_collected: u64,
    /// Peak persistent driver-state bytes so far.
    pub peak_state_bytes: u64,
    /// Broadcast bytes shipped to workers so far.
    pub bytes_broadcast: u64,
}

/// Cumulative `BoundingStats` at a cycle boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundingSnapshot {
    /// Grow + shrink passes executed so far.
    pub passes: u64,
    /// Peak per-pass driver bytes so far.
    pub peak_pass_bytes: u64,
    /// Largest candidate list so far.
    pub peak_candidates: u64,
    /// Peak persistent driver-state bytes so far.
    pub peak_state_bytes: u64,
}

/// One journal record. Kinds cover the round-boundary state of every
/// journaled algorithm in the selection stack.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Record {
    /// Run header: written first, before any work. `fingerprint` hashes
    /// the full run configuration; a resume whose fingerprint differs
    /// must refuse the journal rather than splice two different runs.
    RunStart {
        /// Configuration fingerprint the resume is validated against.
        fingerprint: u64,
        /// Algorithm tag (the dist layer's enum, stored as a number).
        algorithm: u64,
        /// Ground-set size.
        n: u64,
        /// Selection budget.
        k: u64,
        /// Base seed of the run.
        seed: u64,
        /// Machine count.
        machines: u64,
        /// Configured round count (0 when not applicable).
        rounds: u64,
    },
    /// One completed multi-round greedy round.
    GreedyRound {
        /// 1-based round number.
        round: u64,
        /// Pool size entering the round.
        input_size: u64,
        /// The round's Δ-schedule target.
        target: u64,
        /// Partitions used.
        partitions: u64,
        /// The round's keying seed (derived, stored for inspection).
        seed: u64,
        /// Cumulative stats at this boundary.
        stats: GreedySnapshot,
        /// The round's winners in pop order — the next round's pool.
        selected: Vec<u64>,
    },
    /// One completed bounding grow+shrink cycle.
    BoundingCycle {
        /// 1-based cycle number.
        cycle: u64,
        /// Whether the cycle changed any decision (a `false` here is the
        /// fixpoint: an uninterrupted run stops after this cycle).
        changed: bool,
        /// Grow passes executed so far.
        grow_rounds: u64,
        /// Shrink passes executed so far.
        shrink_rounds: u64,
        /// Pass counter (salts the sampling coins).
        pass: u64,
        /// Cumulative stats at this boundary.
        stats: BoundingSnapshot,
        /// Included ids, ascending.
        included: Vec<u64>,
        /// Excluded set as bitset words (dense — exclusions are `O(n)`).
        excluded_words: Vec<u64>,
    },
    /// The bounding phase's final outcome (lets a pipeline resume skip
    /// bounding entirely).
    BoundingDone {
        /// Grow passes executed.
        grow_rounds: u64,
        /// Shrink passes executed.
        shrink_rounds: u64,
        /// Budget still open after bounding.
        k_remaining: u64,
        /// Included ids, ascending.
        included: Vec<u64>,
        /// Excluded set as bitset words.
        excluded_words: Vec<u64>,
    },
    /// The run finished; nothing to resume.
    RunComplete,
}

const KIND_RUN_START: u32 = 1;
const KIND_GREEDY_ROUND: u32 = 2;
const KIND_BOUNDING_CYCLE: u32 = 3;
const KIND_BOUNDING_DONE: u32 = 4;
const KIND_RUN_COMPLETE: u32 = 5;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_vec(out: &mut Vec<u8>, values: &[u64]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        put_u64(out, v);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Result<u32, JournalError> {
        let (head, tail) = self
            .bytes
            .split_first_chunk::<4>()
            .ok_or(JournalError::Malformed { detail: "record payload cut short" })?;
        self.bytes = tail;
        Ok(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let (head, tail) = self
            .bytes
            .split_first_chunk::<8>()
            .ok_or(JournalError::Malformed { detail: "record payload cut short" })?;
        self.bytes = tail;
        Ok(u64::from_le_bytes(*head))
    }

    fn vec(&mut self) -> Result<Vec<u64>, JournalError> {
        let len = self.u64()? as usize;
        if len > self.bytes.len() / 8 {
            return Err(JournalError::Malformed { detail: "record list length out of range" });
        }
        (0..len).map(|_| self.u64()).collect()
    }

    fn done(&self) -> Result<(), JournalError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(JournalError::Malformed { detail: "trailing bytes in record payload" })
        }
    }
}

impl Record {
    /// Encodes the record payload (kind tag plus fields, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::RunStart { fingerprint, algorithm, n, k, seed, machines, rounds } => {
                put_u32(&mut out, KIND_RUN_START);
                for v in [fingerprint, algorithm, n, k, seed, machines, rounds] {
                    put_u64(&mut out, *v);
                }
            }
            Record::GreedyRound {
                round,
                input_size,
                target,
                partitions,
                seed,
                stats,
                selected,
            } => {
                put_u32(&mut out, KIND_GREEDY_ROUND);
                for v in [round, input_size, target, partitions, seed] {
                    put_u64(&mut out, *v);
                }
                for v in [
                    stats.rounds,
                    stats.steps,
                    stats.peak_round_bytes,
                    stats.peak_step_winners,
                    stats.winners_collected,
                    stats.peak_state_bytes,
                    stats.bytes_broadcast,
                ] {
                    put_u64(&mut out, v);
                }
                put_vec(&mut out, selected);
            }
            Record::BoundingCycle {
                cycle,
                changed,
                grow_rounds,
                shrink_rounds,
                pass,
                stats,
                included,
                excluded_words,
            } => {
                put_u32(&mut out, KIND_BOUNDING_CYCLE);
                for v in [*cycle, u64::from(*changed), *grow_rounds, *shrink_rounds, *pass] {
                    put_u64(&mut out, v);
                }
                for v in [
                    stats.passes,
                    stats.peak_pass_bytes,
                    stats.peak_candidates,
                    stats.peak_state_bytes,
                ] {
                    put_u64(&mut out, v);
                }
                put_vec(&mut out, included);
                put_vec(&mut out, excluded_words);
            }
            Record::BoundingDone {
                grow_rounds,
                shrink_rounds,
                k_remaining,
                included,
                excluded_words,
            } => {
                put_u32(&mut out, KIND_BOUNDING_DONE);
                for v in [grow_rounds, shrink_rounds, k_remaining] {
                    put_u64(&mut out, *v);
                }
                put_vec(&mut out, included);
                put_vec(&mut out, excluded_words);
            }
            Record::RunComplete => put_u32(&mut out, KIND_RUN_COMPLETE),
        }
        out
    }

    /// Decodes one record payload.
    ///
    /// # Errors
    ///
    /// [`JournalError::UnknownRecordKind`] for kinds this build does not
    /// know, [`JournalError::Malformed`] for structurally broken
    /// payloads. Both mean format trouble, not a torn tail — the frame's
    /// checksum already validated these exact bytes.
    pub fn decode(payload: &[u8]) -> Result<Record, JournalError> {
        let mut c = Cursor { bytes: payload };
        let kind = c.u32()?;
        let record = match kind {
            KIND_RUN_START => Record::RunStart {
                fingerprint: c.u64()?,
                algorithm: c.u64()?,
                n: c.u64()?,
                k: c.u64()?,
                seed: c.u64()?,
                machines: c.u64()?,
                rounds: c.u64()?,
            },
            KIND_GREEDY_ROUND => Record::GreedyRound {
                round: c.u64()?,
                input_size: c.u64()?,
                target: c.u64()?,
                partitions: c.u64()?,
                seed: c.u64()?,
                stats: GreedySnapshot {
                    rounds: c.u64()?,
                    steps: c.u64()?,
                    peak_round_bytes: c.u64()?,
                    peak_step_winners: c.u64()?,
                    winners_collected: c.u64()?,
                    peak_state_bytes: c.u64()?,
                    bytes_broadcast: c.u64()?,
                },
                selected: c.vec()?,
            },
            KIND_BOUNDING_CYCLE => Record::BoundingCycle {
                cycle: c.u64()?,
                changed: c.u64()? != 0,
                grow_rounds: c.u64()?,
                shrink_rounds: c.u64()?,
                pass: c.u64()?,
                stats: BoundingSnapshot {
                    passes: c.u64()?,
                    peak_pass_bytes: c.u64()?,
                    peak_candidates: c.u64()?,
                    peak_state_bytes: c.u64()?,
                },
                included: c.vec()?,
                excluded_words: c.vec()?,
            },
            KIND_BOUNDING_DONE => Record::BoundingDone {
                grow_rounds: c.u64()?,
                shrink_rounds: c.u64()?,
                k_remaining: c.u64()?,
                included: c.vec()?,
                excluded_words: c.vec()?,
            },
            KIND_RUN_COMPLETE => Record::RunComplete,
            other => return Err(JournalError::UnknownRecordKind { kind: other }),
        };
        c.done()?;
        Ok(record)
    }
}

/// Runs `op` behind the fault plan's journal-write gate, which retries
/// injected transient failures with bounded backoff.
fn journal_io<T>(
    context: &'static str,
    op: impl FnOnce() -> io::Result<T>,
) -> Result<T, JournalError> {
    faults::check_io(FaultSite::JournalWrite)
        .and_then(|()| op())
        .map_err(|e| JournalError::io(context, e))
}

/// An open journal positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Creates (or truncates) a journal at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Any I/O failure, as [`JournalError::Io`].
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        let mut file = journal_io("creating the journal file", || {
            OpenOptions::new().write(true).create(true).truncate(true).open(path)
        })?;
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        // Flags and reserved bytes stay zero.
        journal_io("writing the journal header", || file.write_all(&header))?;
        journal_io("syncing the journal header", || file.sync_data())?;
        Ok(Journal { file, path: path.to_path_buf() })
    }

    /// Appends one record (framed and checksummed). The record is
    /// durable only after the next [`Journal::sync`].
    ///
    /// # Errors
    ///
    /// [`JournalError::RecordTooLong`], before any byte is written, for a
    /// payload [`replay`] would discard as torn; any I/O failure, as
    /// [`JournalError::Io`].
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        let payload = record.encode();
        if !record_len_fits(payload.len()) {
            return Err(JournalError::RecordTooLong { len: payload.len() });
        }
        let mut frame = Vec::with_capacity(12 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        put_u64(&mut frame, fnv1a64(&payload));
        let file = &mut self.file;
        journal_io("appending a journal record", || file.write_all(&frame))?;
        submod_obs::counter!("journal.records_written").incr();
        submod_obs::counter!("journal.bytes_written").add(frame.len() as u64);
        Ok(())
    }

    /// Forces everything appended so far to disk — the round-boundary
    /// durability point.
    ///
    /// # Errors
    ///
    /// Any I/O failure, as [`JournalError::Io`].
    pub fn sync(&mut self) -> Result<(), JournalError> {
        let file = &mut self.file;
        journal_io("syncing the journal", || file.sync_data())?;
        submod_obs::counter!("journal.syncs").incr();
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The validated contents of a journal file.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<Record>,
    /// Byte length of the valid prefix (header plus complete frames).
    pub valid_len: u64,
    /// Bytes of torn tail after the valid prefix (0 for a clean file).
    pub torn_bytes: u64,
}

/// Reads and validates a journal. Incomplete or checksum-failing tail
/// bytes are reported as `torn_bytes`, not an error — that is the state
/// a crash mid-append leaves behind, and exactly what resume recovers
/// from.
///
/// # Errors
///
/// [`JournalError::Io`] when the file cannot be read,
/// [`JournalError::Header`] for a bad header, and
/// [`JournalError::UnknownRecordKind`] /
/// [`JournalError::Malformed`] for checksum-valid records this build
/// cannot decode.
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    let mut file =
        File::open(path).map_err(|e| JournalError::io("opening the journal for replay", e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(|e| JournalError::io("reading the journal", e))?;
    submod_obs::format::check_header(&bytes, &MAGIC, VERSION, 0, 16..HEADER_LEN)
        .map_err(JournalError::Header)?;

    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break; // clean end
        }
        if remaining < 4 {
            break; // torn length prefix
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if !record_len_fits(len) || remaining < 4 + len + 8 {
            break; // torn frame (or absurd length from a torn prefix)
        }
        let payload = &bytes[offset + 4..offset + 4 + len];
        let stored = u64::from_le_bytes(
            bytes[offset + 4 + len..offset + 12 + len].try_into().expect("8 bytes"),
        );
        if fnv1a64(payload) != stored {
            break; // torn checksum (or payload corrupted mid-write)
        }
        records.push(Record::decode(payload)?);
        offset += 12 + len;
    }
    let torn = (bytes.len() - offset) as u64;
    submod_obs::counter!("journal.records_replayed").add(records.len() as u64);
    if torn > 0 {
        submod_obs::counter!("journal.torn_bytes").add(torn);
    }
    Ok(Replay { records, valid_len: offset as u64, torn_bytes: torn })
}

/// Replays `path`, truncates any torn tail in place, and reopens the
/// journal for appending — the resume entry point.
///
/// # Errors
///
/// Everything [`replay`] returns, plus I/O failures truncating or
/// reopening the file.
pub fn open_resume(path: &Path) -> Result<(Replay, Journal), JournalError> {
    let replayed = replay(path)?;
    let mut file = journal_io("reopening the journal for append", || {
        OpenOptions::new().read(true).write(true).open(path)
    })?;
    if replayed.torn_bytes > 0 {
        journal_io("truncating the journal's torn tail", || file.set_len(replayed.valid_len))?;
        journal_io("syncing the truncated journal", || file.sync_data())?;
    }
    journal_io("seeking to the journal's end", || {
        file.seek(SeekFrom::Start(replayed.valid_len)).map(|_| ())
    })?;
    Ok((replayed, Journal { file, path: path.to_path_buf() }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("submod-journal-test-{}-{tag}-{id}", std::process::id()))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::RunStart {
                fingerprint: 0xDEAD_BEEF,
                algorithm: 1,
                n: 100,
                k: 10,
                seed: 7,
                machines: 4,
                rounds: 3,
            },
            Record::GreedyRound {
                round: 1,
                input_size: 100,
                target: 40,
                partitions: 4,
                seed: 7 ^ 1 << 32,
                stats: GreedySnapshot {
                    rounds: 1,
                    steps: 10,
                    peak_round_bytes: 2048,
                    peak_step_winners: 4,
                    winners_collected: 40,
                    peak_state_bytes: 512,
                    bytes_broadcast: 128,
                },
                selected: (0..40).map(|i| i * 2).collect(),
            },
            Record::BoundingCycle {
                cycle: 1,
                changed: true,
                grow_rounds: 1,
                shrink_rounds: 1,
                pass: 2,
                stats: BoundingSnapshot {
                    passes: 2,
                    peak_pass_bytes: 999,
                    peak_candidates: 17,
                    peak_state_bytes: 64,
                },
                included: vec![3, 9, 12],
                excluded_words: vec![0b1010, 0, u64::MAX],
            },
            Record::BoundingDone {
                grow_rounds: 2,
                shrink_rounds: 2,
                k_remaining: 4,
                included: vec![3, 9],
                excluded_words: vec![1, 2, 3],
            },
            Record::RunComplete,
        ]
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn records_roundtrip_through_encode_decode() {
        for record in sample_records() {
            let payload = record.encode();
            assert_eq!(Record::decode(&payload).unwrap(), record);
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp_path("roundtrip");
        let _cleanup = Cleanup(path.clone());
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, sample_records());
        assert_eq!(replayed.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_resume_appends() {
        let path = temp_path("torn");
        let _cleanup = Cleanup(path.clone());
        let mut journal = Journal::create(&path).unwrap();
        let records = sample_records();
        for record in &records[..3] {
            journal.append(record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let clean_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half of a 4th record's frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn_frame = {
            let payload = records[3].encode();
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
            frame.truncate(frame.len() / 2);
            frame
        };
        bytes.extend_from_slice(&torn_frame);
        std::fs::write(&path, &bytes).unwrap();

        let (replayed, mut journal) = open_resume(&path).unwrap();
        assert_eq!(replayed.records, records[..3].to_vec());
        assert_eq!(replayed.torn_bytes, torn_frame.len() as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "tail truncated");
        // The resumed handle appends cleanly after the truncation point.
        journal.append(&records[3]).unwrap();
        journal.sync().unwrap();
        drop(journal);
        let again = replay(&path).unwrap();
        assert_eq!(again.records, records[..4].to_vec());
        assert_eq!(again.torn_bytes, 0);
    }

    #[test]
    fn every_byte_truncation_replays_a_complete_prefix() {
        let path = temp_path("prefix");
        let _cleanup = Cleanup(path.clone());
        let mut journal = Journal::create(&path).unwrap();
        let records = sample_records();
        for record in &records {
            journal.append(record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        for cut in HEADER_LEN..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let replayed = replay(&path).unwrap();
            assert!(replayed.records.len() <= records.len());
            assert_eq!(replayed.records[..], records[..replayed.records.len()]);
            assert_eq!(replayed.valid_len + replayed.torn_bytes, cut as u64);
        }
    }

    #[test]
    fn journal_bytes_are_pinned() {
        // The exact bytes of the sample journal, recorded before the header
        // and checksum code moved to `submod_obs::format`: a change to the
        // header, the framing, the record encoding or the checksum fails
        // here.
        let path = temp_path("pinned");
        let _cleanup = Cleanup(path.clone());
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!((bytes.len(), fnv1a64(&bytes)), (808, 0x6c96_4f42_ba1b_e7e2));
    }

    #[test]
    fn record_length_rule_stops_at_max_record_len() {
        // `append` and `replay` share this rule, so a record `append`
        // accepts is never one `replay` discards as a torn tail.
        assert!(record_len_fits(MAX_RECORD_LEN));
        assert!(!record_len_fits(MAX_RECORD_LEN + 1));
        assert!(JournalError::RecordTooLong { len: MAX_RECORD_LEN + 1 }
            .to_string()
            .contains(&MAX_RECORD_LEN.to_string()));
    }

    #[test]
    fn corrupt_payload_breaks_the_checksum_and_stops_replay() {
        let path = temp_path("corrupt");
        let _cleanup = Cleanup(path.clone());
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record: frame 1 starts after
        // the header; its payload length sits in the first 4 bytes.
        let first_len =
            u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        let second = HEADER_LEN + 12 + first_len;
        bytes[second + 8] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        // Only the first record survives; everything after the corrupt
        // frame is tail.
        assert_eq!(replayed.records.len(), 1);
        assert!(replayed.torn_bytes > 0);
    }

    #[test]
    fn header_errors_are_typed() {
        let path = temp_path("header");
        let _cleanup = Cleanup(path.clone());
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            replay(&path),
            Err(JournalError::Header(HeaderError::Truncated { actual: 5, .. }))
        ));

        let mut bogus = vec![0u8; HEADER_LEN];
        bogus[0..8].copy_from_slice(b"NOTAJRNL");
        std::fs::write(&path, &bogus).unwrap();
        assert!(matches!(replay(&path), Err(JournalError::Header(HeaderError::BadMagic { .. }))));

        let mut wrong_version = vec![0u8; HEADER_LEN];
        wrong_version[0..8].copy_from_slice(&MAGIC);
        wrong_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &wrong_version).unwrap();
        assert!(matches!(
            replay(&path),
            Err(JournalError::Header(HeaderError::UnsupportedVersion { found: 9 }))
        ));

        let mut flagged = vec![0u8; HEADER_LEN];
        flagged[0..8].copy_from_slice(&MAGIC);
        flagged[8..12].copy_from_slice(&VERSION.to_le_bytes());
        flagged[12] = 1;
        std::fs::write(&path, &flagged).unwrap();
        assert!(matches!(
            replay(&path),
            Err(JournalError::Header(HeaderError::UnknownFlags { found: 1 }))
        ));

        let mut reserved = vec![0u8; HEADER_LEN];
        reserved[0..8].copy_from_slice(&MAGIC);
        reserved[8..12].copy_from_slice(&VERSION.to_le_bytes());
        reserved[20] = 7;
        std::fs::write(&path, &reserved).unwrap();
        assert!(matches!(
            replay(&path),
            Err(JournalError::Header(HeaderError::ReservedNonZero { position: 20 }))
        ));
    }

    #[test]
    fn unknown_kind_is_an_error_not_a_torn_tail() {
        let path = temp_path("kind");
        let _cleanup = Cleanup(path.clone());
        let mut journal = Journal::create(&path).unwrap();
        journal.sync().unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = 999u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay(&path), Err(JournalError::UnknownRecordKind { kind: 999 })));
    }

    #[test]
    fn transient_journal_faults_are_retried() {
        use submod_obs::faults::{FaultMode, FaultPlan};
        let _guard = submod_obs::faults::override_plan(FaultPlan {
            mode: FaultMode::TransientIo,
            seed: 2,
            rate: 1.0,
        });
        let path = temp_path("faults");
        let _cleanup = Cleanup(path.clone());
        // Rate 1.0 transient: every first attempt fails, every retry
        // succeeds — the journal must come out complete regardless.
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);
        drop(_guard);
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, sample_records());
    }

    #[test]
    fn permanent_journal_faults_surface_as_typed_errors() {
        use submod_obs::faults::{FaultMode, FaultPlan};
        let path = temp_path("permfaults");
        let _cleanup = Cleanup(path.clone());
        let _guard = submod_obs::faults::override_plan(FaultPlan {
            mode: FaultMode::PermanentIo,
            seed: 2,
            rate: 1.0,
        });
        match Journal::create(&path) {
            Err(JournalError::Io { context, source }) => {
                assert_eq!(context, "creating the journal file");
                assert!(source.to_string().contains(faults::INJECTED_MARKER));
            }
            other => panic!("expected an injected Io error, got {other:?}"),
        }
    }

    #[test]
    fn display_is_informative() {
        let err = JournalError::Malformed { detail: "boom" };
        assert!(err.to_string().contains("boom"));
        assert!(JournalError::UnknownRecordKind { kind: 7 }.to_string().contains('7'));
    }
}
