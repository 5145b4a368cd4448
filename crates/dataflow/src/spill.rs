//! Disk-backed shard storage.
//!
//! When a worker's buffer exceeds its [`crate::MemoryBudget`], the buffer is
//! written to a *spill file*. Two payload formats exist:
//!
//! - **Framed** (the default): a sequence of length-prefixed encoded
//!   records, one codec frame per record.
//! - **Columnar**: for [`crate::FixedWidth`] record types, blocks of
//!   [`COLUMN_BLOCK_ROWS`] rows stored as raw little-endian column bytes
//!   (`[u32 rows][column 0 bytes][column 1 bytes]…`), skipping the
//!   per-record codec entirely.
//!
//! Spill files live in a per-pipeline temporary directory that is removed
//! when the pipeline is dropped.

use crate::codec::{ColKind, Column, Record};
use crate::DataflowError;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use submod_obs::faults::{self, FaultSite};

/// Runs the fault gate for `site` (retrying injected transients with
/// bounded backoff) before the caller touches the spill file. Injected
/// permanent faults surface as the same typed error a real one would.
fn fault_gate(site: FaultSite, context: &'static str) -> Result<(), DataflowError> {
    faults::check_io(site).map_err(|e| DataflowError::io(context, e))
}

/// Deletes a spill file that is still being written if the writer is
/// dropped before `finish` — an injected panic (or any unwind) mid-spill
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

/// Rows per columnar block: bounds reader memory to one block of columns
/// regardless of shard size.
pub(crate) const COLUMN_BLOCK_ROWS: usize = 256;

/// Owns the spill directory of one pipeline and hands out unique file paths.
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
}

impl SpillStore {
    /// Creates the spill directory (unique per store) under `base`.
    pub fn create(base: &Path) -> Result<Self, DataflowError> {
        let unique = format!(
            "submod-dataflow-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        );
        let dir = base.join(unique);
        fs::create_dir_all(&dir).map_err(|e| DataflowError::io("creating spill directory", e))?;
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
    /// Payload bytes written, which is also the file's length on disk.
    /// Budget accounting and the `bytes_spilled` metric use this.
    pub bytes: u64,
    pub columnar: bool,
}

/// The byte stream beneath both spill formats, with the fault gates every
/// spill write and flush passes through.
struct ByteSink(BufWriter<File>);

impl ByteSink {
    fn create(path: &Path) -> Result<Self, DataflowError> {
        fault_gate(FaultSite::SpillOpen, "creating spill file")?;
        let file = File::create(path).map_err(|e| DataflowError::io("creating spill file", e))?;
        Ok(ByteSink(BufWriter::new(file)))
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), DataflowError> {
        fault_gate(FaultSite::SpillWrite, "writing spill bytes")?;
        self.0.write_all(bytes).map_err(|e| DataflowError::io("writing spill bytes", e))
    }

    fn finish(mut self) -> Result<(), DataflowError> {
        fault_gate(FaultSite::SpillWrite, "flushing spill file")?;
        self.0.flush().map_err(|e| DataflowError::io("flushing spill file", e))
    }
}

/// Reader counterpart of [`ByteSink`].
struct ByteSource(BufReader<File>);

impl ByteSource {
    fn open(path: &Path) -> Result<Self, DataflowError> {
        fault_gate(FaultSite::SpillOpen, "opening spill file")?;
        let handle = File::open(path).map_err(|e| DataflowError::io("opening spill file", e))?;
        Ok(ByteSource(BufReader::new(handle)))
    }

    fn read_exact(&mut self, out: &mut [u8]) -> Result<(), DataflowError> {
        fault_gate(FaultSite::SpillRead, "reading spill bytes")?;
        self.0.read_exact(out).map_err(|e| DataflowError::io("reading spill bytes", e))
    }
}

/// Streams records into a spill file with length-prefix framing.
///
/// The encode scratch buffer is allocated once per file and reused for
/// every record, so the per-record cost is one codec encode plus two
/// buffered writes.
pub(crate) struct SpillWriter {
    sink: ByteSink,
    guard: PendingFileGuard,
    count: usize,
    bytes: u64,
    scratch: Vec<u8>,
}

impl SpillWriter {
    pub fn create(path: PathBuf) -> Result<Self, DataflowError> {
        // The guard owns the path until `finish`: a writer dropped
        // mid-spill (error propagation, an injected panic) removes its
        // partial file instead of leaking it.
        let guard = PendingFileGuard::new(path);
        let sink = ByteSink::create(guard.path())?;
        Ok(SpillWriter { sink, guard, count: 0, bytes: 0, scratch: Vec::new() })
    }

    pub fn write<T: Record>(&mut self, record: &T) -> Result<(), DataflowError> {
        self.scratch.clear();
        record.encode(&mut self.scratch);
        let len = self.scratch.len() as u32;
        self.sink.write_all(&len.to_le_bytes())?;
        self.sink.write_all(&self.scratch)?;
        self.count += 1;
        self.bytes += 4 + u64::from(len);
        Ok(())
    }

    pub fn finish(self) -> Result<SpillFile, DataflowError> {
        // A failed flush drops `self.guard` still armed, removing the
        // unusable file.
        self.sink.finish()?;
        Ok(SpillFile {
            path: self.guard.disarm(),
            count: self.count,
            bytes: self.bytes,
            columnar: false,
        })
    }
}

/// Writes `records` of a [`crate::FixedWidth`] type as raw column bytes,
/// in blocks of [`COLUMN_BLOCK_ROWS`] rows — no per-record codec frames.
pub(crate) fn spill_columns<T: Record>(
    path: PathBuf,
    records: &[T],
    kinds: &[ColKind],
) -> Result<SpillFile, DataflowError> {
    let guard = PendingFileGuard::new(path);
    let mut sink = ByteSink::create(guard.path())?;
    let mut columns: Vec<Column> = kinds.iter().map(|&k| Column::new(k)).collect();
    let mut col_bytes = Vec::new();
    let mut bytes = 0u64;
    for block in records.chunks(COLUMN_BLOCK_ROWS) {
        for column in &mut columns {
            column.clear();
        }
        for record in block {
            record.append_columns(&mut columns);
        }
        sink.write_all(&(block.len() as u32).to_le_bytes())?;
        bytes += 4;
        for column in &columns {
            col_bytes.clear();
            column.write_le(&mut col_bytes);
            sink.write_all(&col_bytes)?;
            bytes += col_bytes.len() as u64;
        }
    }
    sink.finish()?;
    Ok(SpillFile { path: guard.disarm(), count: records.len(), bytes, columnar: true })
}

/// Format-specific reader state.
enum ReadMode {
    Frames {
        scratch: Vec<u8>,
        /// File bytes not yet read: bounds every length prefix read from
        /// disk before it sizes an allocation.
        bytes_left: u64,
    },
    Columns {
        kinds: Vec<ColKind>,
        block: Vec<Column>,
        cursor: usize,
        rows: usize,
        scratch: Vec<u8>,
    },
}

/// Streams records back out of a spill file.
pub(crate) struct SpillReader<T: Record> {
    source: ByteSource,
    remaining: usize,
    mode: ReadMode,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Record> SpillReader<T> {
    pub fn open(file: &SpillFile) -> Result<Self, DataflowError> {
        let source = ByteSource::open(&file.path)?;
        // Codec read traffic: the whole file streams back through the
        // decoder, so the open (not each record) charges the counter with
        // the logical byte count.
        submod_obs::counter!("dataflow.spill.bytes_read").add(file.bytes);
        let mode = if file.columnar {
            let kinds = T::column_kinds().ok_or_else(|| {
                DataflowError::codec("columnar spill file read as a non-columnar record type")
            })?;
            ReadMode::Columns { kinds, block: Vec::new(), cursor: 0, rows: 0, scratch: Vec::new() }
        } else {
            ReadMode::Frames { scratch: Vec::new(), bytes_left: file.bytes }
        };
        Ok(SpillReader { source, remaining: file.count, mode, _marker: std::marker::PhantomData })
    }

    /// Reads the next record, or `None` when the file is exhausted.
    pub fn next_record(&mut self) -> Result<Option<T>, DataflowError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let record = match &mut self.mode {
            ReadMode::Frames { scratch, bytes_left } => {
                let mut len_buf = [0u8; 4];
                self.source.read_exact(&mut len_buf)?;
                let len = u32::from_le_bytes(len_buf);
                let frame = 4 + u64::from(len);
                if frame > *bytes_left {
                    return Err(DataflowError::codec("framed spill record runs past the file"));
                }
                *bytes_left -= frame;
                scratch.resize(len as usize, 0);
                self.source.read_exact(scratch)?;
                let mut slice = scratch.as_slice();
                let record = T::decode(&mut slice)?;
                if !slice.is_empty() {
                    return Err(DataflowError::codec("trailing bytes in framed spill record"));
                }
                record
            }
            ReadMode::Columns { kinds, block, cursor, rows, scratch } => {
                if *cursor == *rows {
                    let mut rows_buf = [0u8; 4];
                    self.source.read_exact(&mut rows_buf)?;
                    let block_rows = u32::from_le_bytes(rows_buf) as usize;
                    if block_rows == 0 || block_rows > self.remaining {
                        return Err(DataflowError::codec(
                            "columnar spill block row count out of range",
                        ));
                    }
                    block.clear();
                    for &kind in kinds.iter() {
                        scratch.resize(block_rows * kind.width(), 0);
                        self.source.read_exact(scratch)?;
                        let mut slice = scratch.as_slice();
                        block.push(Column::read_le(kind, block_rows, &mut slice)?);
                    }
                    *rows = block_rows;
                    *cursor = 0;
                }
                let record = T::from_columns(block, *cursor);
                *cursor += 1;
                record
            }
        };
        self.remaining -= 1;
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

    #[test]
    fn write_read_roundtrip() {
        let store = store();
        let mut writer = SpillWriter::create(store.fresh_path()).unwrap();
        for i in 0..100u64 {
            writer.write(&(i, i as f32 * 0.5)).unwrap();
        }
        let file = writer.finish().unwrap();
        assert_eq!(file.count, 100);
        // 100 frames of a 4-byte prefix plus a 12-byte record.
        assert_eq!(file.bytes, 100 * 16);
        assert_eq!(fs::metadata(&file.path).unwrap().len(), file.bytes);
        let records: Vec<(u64, f32)> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(records.len(), 100);
        assert_eq!(records[7], (7, 3.5));
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocating() {
        let store = store();
        let mut writer = SpillWriter::create(store.fresh_path()).unwrap();
        for i in 0..10u64 {
            writer.write(&vec![i; 3]).unwrap();
        }
        let file = writer.finish().unwrap();
        let mut data = fs::read(&file.path).unwrap();
        data[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&file.path, &data).unwrap();
        let mut reader: SpillReader<Vec<u64>> = SpillReader::open(&file).unwrap();
        let err = reader.next_record().unwrap_err();
        assert!(matches!(err, DataflowError::Codec { .. }), "{err}");
    }

    #[test]
    fn streaming_read_stops_at_count() {
        let store = store();
        let mut writer = SpillWriter::create(store.fresh_path()).unwrap();
        writer.write(&1u32).unwrap();
        writer.write(&2u32).unwrap();
        let file = writer.finish().unwrap();
        let mut reader: SpillReader<u32> = SpillReader::open(&file).unwrap();
        assert_eq!(reader.next_record().unwrap(), Some(1));
        assert_eq!(reader.next_record().unwrap(), Some(2));
        assert_eq!(reader.next_record().unwrap(), None);
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn empty_file_roundtrip() {
        let store = store();
        let writer = SpillWriter::create(store.fresh_path()).unwrap();
        let file = writer.finish().unwrap();
        assert_eq!(file.count, 0);
        let records: Vec<u64> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn store_drop_removes_directory() {
        let dir;
        {
            let store = store();
            dir = store.fresh_path().parent().unwrap().to_path_buf();
            let mut writer = SpillWriter::create(store.fresh_path()).unwrap();
            writer.write(&1u8).unwrap();
            writer.finish().unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must be cleaned up on drop");
    }

    #[test]
    fn variable_length_records_roundtrip() {
        let store = store();
        let mut writer = SpillWriter::create(store.fresh_path()).unwrap();
        let values = vec![vec![1u64; 1], vec![2u64; 50], vec![], vec![3u64; 7]];
        for v in &values {
            writer.write(v).unwrap();
        }
        let file = writer.finish().unwrap();
        let back: Vec<Vec<u64>> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn columnar_roundtrip_without_frames() {
        let store = store();
        let records: Vec<(u64, (u32, f64))> =
            (0..700u64).map(|i| (i, (i as u32 * 3, i as f64 * 0.25 - 10.0))).collect();
        let kinds = <(u64, (u32, f64))>::column_kinds().unwrap();
        let file = spill_columns(store.fresh_path(), &records, &kinds).unwrap();
        assert!(file.columnar);
        assert_eq!(file.count, 700);
        // 700 rows → 3 blocks (256 + 256 + 188), 20 bytes/row + 4/block.
        let blocks = 700usize.div_ceil(COLUMN_BLOCK_ROWS) as u64;
        assert_eq!(file.bytes, blocks * 4 + 700 * 20);
        assert_eq!(fs::metadata(&file.path).unwrap().len(), file.bytes);
        let back: Vec<(u64, (u32, f64))> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn columnar_streaming_preserves_float_bits() {
        let store = store();
        let specials = [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE];
        let records: Vec<f64> = (0..600).map(|i| specials[i % specials.len()]).collect();
        let kinds = f64::column_kinds().unwrap();
        let file = spill_columns(store.fresh_path(), &records, &kinds).unwrap();
        let mut reader: SpillReader<f64> = SpillReader::open(&file).unwrap();
        for expected in &records {
            let got = reader.next_record().unwrap().unwrap();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
        assert_eq!(reader.next_record().unwrap(), None);
    }

    #[test]
    fn empty_columnar_file() {
        let store = store();
        let kinds = u64::column_kinds().unwrap();
        let file = spill_columns(store.fresh_path(), &[] as &[u64], &kinds).unwrap();
        assert_eq!(file.count, 0);
        assert_eq!(file.bytes, 0);
        let back: Vec<u64> = SpillReader::open(&file).unwrap().read_all().unwrap();
        assert!(back.is_empty());
    }
}
