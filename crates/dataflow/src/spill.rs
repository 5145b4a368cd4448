//! Disk-backed shard storage.
//!
//! When a worker's buffer exceeds its [`crate::MemoryBudget`], the buffer is
//! written to a *spill file* by [`write_spill`] and streamed back by
//! [`SpillReader`]. Every spill file has one layout, whatever the record
//! type and whichever operator spilled: a sequence of blocks, each
//!
//! ```text
//! [u32 rows][u32 payload bytes][payload]
//! ```
//!
//! where the payload is the rows' [`Record::encode`] bytes back to back —
//! no per-record framing, so a fixed-width row costs exactly its encoded
//! width. A block closes at the first record boundary at or past
//! [`BLOCK_BYTES`] (or at `u32::MAX` rows), so the reader holds one block
//! at a time. The reader checks every header against what it still
//! expects — the row count against the records left, the payload against
//! the file's unread bytes, before anything is allocated — and rejects a
//! block whose rows do not consume its payload exactly.
//!
//! Spill files live in a per-pipeline temporary directory that is removed
//! when the pipeline is dropped.

use crate::codec::Record;
use crate::DataflowError;
use std::fs::{self, File};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use submod_obs::faults::{self, FaultSite};

/// A block closes at the first record boundary at or past this many
/// payload bytes.
const BLOCK_BYTES: usize = 8 * 1024;

/// Bytes of a block header: the row count and the payload length.
const HEADER_BYTES: usize = 8;

/// Runs the fault gate for `site` (retrying injected transients with
/// bounded backoff) before the caller touches the spill file. Injected
/// permanent faults surface as the same typed error a real one would.
fn fault_gate(site: FaultSite, context: &'static str) -> Result<(), DataflowError> {
    faults::check_io(site).map_err(|e| DataflowError::io(context, e))
}

/// Deletes a spill file that is still being written if [`write_spill`]
/// returns early or unwinds — an injected panic (or any error) mid-spill
/// must not leak partial files into the spill directory.
#[derive(Debug)]
struct PendingFileGuard {
    path: Option<PathBuf>,
}

impl PendingFileGuard {
    fn new(path: PathBuf) -> Self {
        PendingFileGuard { path: Some(path) }
    }

    fn path(&self) -> &Path {
        self.path.as_deref().expect("guard holds its path until disarmed")
    }

    /// Marks the file complete: ownership of the path passes to the
    /// caller and the drop cleanup is disarmed.
    fn disarm(mut self) -> PathBuf {
        self.path.take().expect("a guard is disarmed at most once")
    }
}

impl Drop for PendingFileGuard {
    fn drop(&mut self) {
        if let Some(path) = &self.path {
            let _ = fs::remove_file(path);
        }
    }
}

/// Owns the spill directory of one pipeline and hands out unique file paths.
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
}

/// Numbers the stores this process creates, so two pipelines built in
/// the same clock tick still get different spill directories.
static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

impl SpillStore {
    /// Creates the spill directory (unique per store) under `base`.
    pub fn create(base: &Path) -> Result<Self, DataflowError> {
        let unique = format!(
            "submod-dataflow-{}-{:x}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
            NEXT_STORE.fetch_add(1, Ordering::Relaxed)
        );
        fs::create_dir_all(base).map_err(|e| DataflowError::io("creating spill directory", e))?;
        Self::claim(base.join(unique))
    }

    /// Creates `dir` and owns it. The directory must not exist yet: a
    /// name clash is an error, never a directory shared with another
    /// store (whose drop would delete this store's live spills).
    fn claim(dir: PathBuf) -> Result<Self, DataflowError> {
        fs::create_dir(&dir).map_err(|e| DataflowError::io("creating spill directory", e))?;
        Ok(SpillStore { dir, next_id: AtomicU64::new(0) })
    }

    /// Returns a fresh path for a new spill file.
    pub fn fresh_path(&self) -> PathBuf {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("spill-{id}.bin"))
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort cleanup; leaking temp files must not panic (C-DTOR-FAIL).
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// A closed spill file holding `count` encoded records.
#[derive(Debug, Clone)]
pub(crate) struct SpillFile {
    pub path: PathBuf,
    pub count: usize,
    /// Bytes written, headers included, which is also the file's length
    /// on disk. Budget accounting and the `bytes_spilled` metric use this,
    /// and the shuffle compares a bucket's run bytes against the budget to
    /// choose in-memory or external grouping.
    pub bytes: u64,
}

/// Writes `records` to a new spill file at `path` in blocks of about
/// [`BLOCK_BYTES`].
///
/// A failed or unwound write removes the partial file.
pub(crate) fn write_spill<T: Record>(
    path: PathBuf,
    records: &[T],
) -> Result<SpillFile, DataflowError> {
    let guard = PendingFileGuard::new(path);
    fault_gate(FaultSite::SpillOpen, "creating spill file")?;
    let mut file =
        File::create(guard.path()).map_err(|e| DataflowError::io("creating spill file", e))?;
    let mut block = vec![0u8; HEADER_BYTES];
    let mut rows = 0u32;
    let mut bytes = 0u64;
    for record in records {
        record.encode(&mut block);
        rows += 1;
        if block.len() - HEADER_BYTES >= BLOCK_BYTES || rows == u32::MAX {
            bytes += write_block(&mut file, &mut block, rows)?;
            rows = 0;
        }
    }
    if rows > 0 {
        bytes += write_block(&mut file, &mut block, rows)?;
    }
    Ok(SpillFile { path: guard.disarm(), count: records.len(), bytes })
}

/// Fills in the header of `block` (header space then `rows` encoded
/// records), writes it, and empties it back to its header space.
fn write_block(file: &mut File, block: &mut Vec<u8>, rows: u32) -> Result<u64, DataflowError> {
    let payload = u32::try_from(block.len() - HEADER_BYTES)
        .map_err(|_| DataflowError::codec("spill block payload exceeds u32::MAX bytes"))?;
    block[..4].copy_from_slice(&rows.to_le_bytes());
    block[4..HEADER_BYTES].copy_from_slice(&payload.to_le_bytes());
    fault_gate(FaultSite::SpillWrite, "writing spill bytes")?;
    file.write_all(block).map_err(|e| DataflowError::io("writing spill bytes", e))?;
    let written = block.len() as u64;
    block.truncate(HEADER_BYTES);
    Ok(written)
}

/// Streams records back out of a spill file, one block in memory at a
/// time.
pub(crate) struct SpillReader<T: Record> {
    source: BufReader<File>,
    /// Records not yet returned.
    remaining: usize,
    /// File bytes not yet read: bounds every payload length read from
    /// disk before it sizes an allocation.
    bytes_left: u64,
    /// Payload of the current block.
    block: Vec<u8>,
    /// Offset of the next record in `block`.
    cursor: usize,
    /// Rows of the current block not yet returned.
    block_rows: usize,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Record> SpillReader<T> {
    pub fn open(file: &SpillFile) -> Result<Self, DataflowError> {
        fault_gate(FaultSite::SpillOpen, "opening spill file")?;
        let handle =
            File::open(&file.path).map_err(|e| DataflowError::io("opening spill file", e))?;
        // Codec read traffic: the whole file streams back through the
        // decoder, so the open (not each record) charges the counter with
        // the logical byte count.
        submod_obs::counter!("dataflow.spill.bytes_read").add(file.bytes);
        Ok(SpillReader {
            source: BufReader::new(handle),
            remaining: file.count,
            bytes_left: file.bytes,
            block: Vec::new(),
            cursor: 0,
            block_rows: 0,
            _marker: std::marker::PhantomData,
        })
    }

    fn read_exact(&mut self, out: &mut [u8]) -> Result<(), DataflowError> {
        fault_gate(FaultSite::SpillRead, "reading spill bytes")?;
        self.source.read_exact(out).map_err(|e| DataflowError::io("reading spill bytes", e))
    }

    /// Reads the next block, checking its header before it sizes the
    /// payload buffer.
    fn load_block(&mut self) -> Result<(), DataflowError> {
        let mut header = [0u8; HEADER_BYTES];
        self.read_exact(&mut header)?;
        let rows = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let payload = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if rows == 0 || rows > self.remaining {
            return Err(DataflowError::codec("spill block row count out of range"));
        }
        let block_bytes = HEADER_BYTES as u64 + u64::from(payload);
        if block_bytes > self.bytes_left {
            return Err(DataflowError::codec("spill block runs past the file"));
        }
        self.bytes_left -= block_bytes;
        let mut block = std::mem::take(&mut self.block);
        block.resize(payload as usize, 0);
        self.read_exact(&mut block)?;
        self.block = block;
        self.cursor = 0;
        self.block_rows = rows;
        Ok(())
    }

    /// Reads the next record, or `None` when the file is exhausted.
    pub fn next_record(&mut self) -> Result<Option<T>, DataflowError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.block_rows == 0 {
            self.load_block()?;
        }
        let mut input = &self.block[self.cursor..];
        let record = T::decode(&mut input)?;
        self.cursor = self.block.len() - input.len();
        self.block_rows -= 1;
        self.remaining -= 1;
        if self.block_rows == 0 && !input.is_empty() {
            return Err(DataflowError::codec("trailing bytes in spill block"));
        }
        Ok(Some(record))
    }

    /// Reads every remaining record into a vector.
    pub fn read_all(mut self) -> Result<Vec<T>, DataflowError> {
        let mut out = Vec::with_capacity(self.remaining);
        while let Some(record) = self.next_record()? {
            out.push(record);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SpillStore {
        SpillStore::create(&std::env::temp_dir()).expect("create store")
    }

    /// The `(rows, payload bytes)` header of every block in `data`, with
    /// the header's offset.
    fn block_headers(data: &[u8]) -> Vec<(usize, u32, u32)> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < data.len() {
            let rows = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
            let payload = u32::from_le_bytes(data[at + 4..at + 8].try_into().unwrap());
            out.push((at, rows, payload));
            at += HEADER_BYTES + payload as usize;
        }
        assert_eq!(at, data.len(), "blocks tile the file");
        out
    }

    /// Three-plus blocks of variable-width rows.
    fn variable_rows() -> Vec<(u64, Vec<u64>)> {
        (0..400u64).map(|i| (i, (0..i % 17).map(|j| i * 31 + j).collect())).collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let store = store();
        let records: Vec<(u64, f32)> = (0..100u64).map(|i| (i, i as f32 * 0.5)).collect();
        let file = write_spill(store.fresh_path(), &records).unwrap();
        assert_eq!(file.count, 100);
        // One block: its header plus 100 unframed 12-byte records.
        assert_eq!(file.bytes, 8 + 100 * 12);
        assert_eq!(fs::metadata(&file.path).unwrap().len(), file.bytes);
        let back: Vec<(u64, f32)> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn fixed_width_rows_keep_their_encoded_width() {
        let store = store();
        let records: Vec<(u64, (u64, f64))> =
            (0..700u64).map(|i| (i, (i * 3, i as f64 * 0.25 - 10.0))).collect();
        let file = write_spill(store.fresh_path(), &records).unwrap();
        // 24 B a row; a block closes at the first row boundary at or past
        // 8 KiB (342 rows), so 700 rows take three blocks.
        assert_eq!(file.bytes, 700 * 24 + 3 * 8);
        let headers = block_headers(&fs::read(&file.path).unwrap());
        let rows: Vec<u32> = headers.iter().map(|&(_, rows, _)| rows).collect();
        assert_eq!(rows, [342, 342, 16]);
        let back: Vec<(u64, (u64, f64))> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn multi_block_variable_width_roundtrip() {
        let store = store();
        let records = variable_rows();
        let file = write_spill(store.fresh_path(), &records).unwrap();
        let headers = block_headers(&fs::read(&file.path).unwrap());
        assert!(headers.len() >= 3, "{} blocks", headers.len());
        for &(_, _, payload) in &headers[..headers.len() - 1] {
            assert!(payload as usize >= BLOCK_BYTES, "a full block closes at or past BLOCK_BYTES");
        }
        let total_rows: u32 = headers.iter().map(|&(_, rows, _)| rows).sum();
        assert_eq!(total_rows as usize, records.len());
        let back: Vec<(u64, Vec<u64>)> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn multi_block_streaming_preserves_float_bits() {
        let store = store();
        let specials =
            [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -f64::MIN_POSITIVE];
        let records: Vec<f64> = (0..3000).map(|i| specials[i % specials.len()]).collect();
        let file = write_spill(store.fresh_path(), &records).unwrap();
        // 1 024 rows fill 8 KiB exactly, which closes the block.
        let headers = block_headers(&fs::read(&file.path).unwrap());
        let rows: Vec<u32> = headers.iter().map(|&(_, rows, _)| rows).collect();
        assert_eq!(rows, [1024, 1024, 952]);
        let mut reader: SpillReader<f64> = SpillReader::open(&file).unwrap();
        for expected in &records {
            let got = reader.next_record().unwrap().unwrap();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn corrupt_payload_length_is_rejected_before_allocating() {
        let store = store();
        let records: Vec<Vec<u64>> = (0..10u64).map(|i| vec![i; 3]).collect();
        let file = write_spill(store.fresh_path(), &records).unwrap();
        let mut data = fs::read(&file.path).unwrap();
        data[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&file.path, &data).unwrap();
        let mut reader: SpillReader<Vec<u64>> = SpillReader::open(&file).unwrap();
        let err = reader.next_record().unwrap_err();
        assert!(matches!(err, DataflowError::Codec { .. }), "{err}");
    }

    #[test]
    fn rows_that_leave_payload_bytes_over_are_rejected() {
        let store = store();
        let records: Vec<Vec<u64>> = (0..10u64).map(|i| vec![i; 3]).collect();
        let file = write_spill(store.fresh_path(), &records).unwrap();
        // Shorten the last row's length field from 3 to 2: every row still
        // decodes, but one element's bytes are left over in the block.
        let mut data = fs::read(&file.path).unwrap();
        let at = data.len() - 4 * 8;
        data[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
        fs::write(&file.path, &data).unwrap();
        let err = SpillReader::<Vec<u64>>::open(&file).unwrap().read_all().unwrap_err();
        assert!(matches!(err, DataflowError::Codec { .. }), "{err}");
    }

    /// Reading `file` must end in a typed error — never a panic, and never
    /// success with fewer rows than were written.
    fn assert_rejected(file: &SpillFile, what: &str) {
        let result = SpillReader::<(u64, Vec<u64>)>::open(file).and_then(SpillReader::read_all);
        match result {
            Err(DataflowError::Io { .. } | DataflowError::Codec { .. }) => {}
            Err(other) => panic!("{what}: untyped error {other}"),
            Ok(rows) => {
                panic!("{what}: read {} of {} rows without an error", rows.len(), file.count)
            }
        }
    }

    #[test]
    fn truncated_files_are_rejected_at_every_length() {
        let store = store();
        let file = write_spill(store.fresh_path(), &variable_rows()).unwrap();
        let len = fs::metadata(&file.path).unwrap().len();
        let handle = fs::OpenOptions::new().write(true).open(&file.path).unwrap();
        for cut in (0..len).rev() {
            handle.set_len(cut).unwrap();
            assert_rejected(&file, &format!("cut at {cut} of {len}"));
        }
    }

    #[test]
    fn flipped_header_bytes_are_rejected() {
        let store = store();
        let file = write_spill(store.fresh_path(), &variable_rows()).unwrap();
        let intact = fs::read(&file.path).unwrap();
        let headers = block_headers(&intact);
        assert!(headers.len() >= 3, "{} blocks", headers.len());
        for &(at, _, _) in &headers {
            for byte in at..at + HEADER_BYTES {
                let mut data = intact.clone();
                data[byte] ^= 0xFF;
                fs::write(&file.path, &data).unwrap();
                assert_rejected(&file, &format!("byte {byte} flipped"));
            }
        }
    }

    #[test]
    fn streaming_read_stops_at_count() {
        let store = store();
        let file = write_spill(store.fresh_path(), &[1u32, 2]).unwrap();
        let mut reader: SpillReader<u32> = SpillReader::open(&file).unwrap();
        assert_eq!(reader.next_record().unwrap(), Some(1));
        assert_eq!(reader.next_record().unwrap(), Some(2));
        assert_eq!(reader.next_record().unwrap(), None);
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn empty_file_roundtrip() {
        let store = store();
        let file = write_spill(store.fresh_path(), &[] as &[u64]).unwrap();
        assert_eq!((file.count, file.bytes), (0, 0));
        let records: Vec<u64> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn stores_never_share_a_directory() {
        let dirs: Vec<PathBuf> = std::thread::scope(|s| {
            let workers: Vec<_> =
                (0..4).map(|_| s.spawn(|| (0..64).map(|_| store()).collect::<Vec<_>>())).collect();
            let stores: Vec<SpillStore> =
                workers.into_iter().flat_map(|w| w.join().expect("creator thread")).collect();
            stores.iter().map(|store| store.dir.clone()).collect()
        });
        let distinct: std::collections::HashSet<&PathBuf> = dirs.iter().collect();
        assert_eq!(distinct.len(), dirs.len(), "two stores got one directory");

        let store = store();
        let spill = write_spill(store.fresh_path(), &[7u8]).unwrap();
        assert!(SpillStore::claim(store.dir.clone()).is_err(), "an existing directory was shared");
        assert!(spill.path.exists(), "the failed claim touched the live store");
    }

    #[test]
    fn store_drop_removes_directory() {
        let dir;
        {
            let store = store();
            dir = store.fresh_path().parent().unwrap().to_path_buf();
            write_spill(store.fresh_path(), &[1u8]).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must be cleaned up on drop");
    }

    #[test]
    fn variable_length_records_roundtrip() {
        let store = store();
        let values = vec![vec![1u64; 1], vec![2u64; 50], vec![], vec![3u64; 7]];
        let file = write_spill(store.fresh_path(), &values).unwrap();
        let back: Vec<Vec<u64>> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(back, values);
    }
}
