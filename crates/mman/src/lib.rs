//! Read-only memory-mapped file views.
//!
//! This crate is the one place the workspace talks to `mmap(2)`: it maps a
//! file read-only, hands out the bytes as a plain `&[u8]`, and reinterprets
//! the on-disk CSR graph store's sections as checked `u64`/`u32`/`f32`
//! slices ([`CsrView`]) for zero-copy loading. Everything above
//! this crate — including `submod_core`, which keeps
//! `#![forbid(unsafe_code)]` — consumes only the safe surface.
//!
//! ## Why the `unsafe` here is sound
//!
//! 1. The mapping is created with `PROT_READ` + `MAP_PRIVATE` from a file
//!    descriptor the caller opened; the kernel guarantees the returned
//!    region is valid for `len` bytes until `munmap`.
//! 2. [`Mmap`] owns the region exclusively: the pointer never leaks, the
//!    struct is not `Clone`, and `Drop` is the only place that unmaps, so
//!    every `&[u8]` borrowed from a live `Mmap` points at mapped memory.
//! 3. `Send`/`Sync` are sound because the mapping is immutable
//!    (`PROT_READ`) and the raw pointer is only read through shared
//!    borrows.
//! 4. The typed-slice casts check length *and* alignment before
//!    `from_raw_parts`, and every target type (`u64`, `u32`, `f32`) is a
//!    plain-old-data type for which any bit pattern is a valid value.
//! 5. [`CsrView`] caches section pointers *into the mapping it owns*;
//!    the mapped region's address never changes while the view is alive
//!    (the view is not self-referential — see its type docs), so the
//!    once-validated pointers remain valid for every later accessor
//!    call.
//!
//! A file truncated *after* mapping can still SIGBUS on access — the POSIX
//! caveat every mmap consumer shares. The store layer mitigates it by
//! validating the whole mapping right after open (which also faults pages
//! in sequentially), so later random access never touches a page that was
//! not readable at open time.

#![warn(missing_docs)]

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// Maps `len` bytes of `file` read-only. `len` must be non-zero.
    pub(crate) fn map(file: &File, len: usize) -> io::Result<*const u8> {
        // SAFETY: all arguments are plain values; the kernel validates the
        // fd and length and reports failure via MAP_FAILED.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr as *const u8)
    }

    /// Unmaps a region previously returned by [`map`].
    pub(crate) fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: called exactly once, from Drop, with the pointer and
        // length the kernel handed out.
        unsafe {
            munmap(ptr as *mut c_void, len);
        }
    }
}

/// A read-only memory mapping of an entire file.
///
/// On Unix this is a real `mmap(2)` region, so opening a multi-gigabyte
/// store is O(1) and the OS pages bytes in on demand (and reclaims them
/// under pressure — the mapping is clean and file-backed). On other
/// platforms it degrades to reading the file into an owned buffer, which
/// keeps the API portable at the cost of residency.
///
/// ```no_run
/// # fn main() -> std::io::Result<()> {
/// let file = std::fs::File::open("graph.csr")?;
/// let map = submod_mman::Mmap::map_readonly(&file)?;
/// let bytes: &[u8] = &map;
/// # let _ = bytes; Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Mmap {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    /// An empty file: nothing to map (`mmap` rejects zero lengths).
    Empty,
    #[cfg(unix)]
    Mapped { ptr: *const u8, len: usize },
    /// Bytes read into an owned buffer — the non-Unix path, and the
    /// graceful-degradation fallback when `mmap(2)` itself fails.
    Owned(Vec<u8>),
}

// SAFETY: the region is immutable (PROT_READ) and only ever read through
// shared borrows; the raw pointer is not exposed (module docs, point 3).
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps the whole of `file` read-only.
    ///
    /// # Errors
    ///
    /// Returns the underlying OS error if the file's length cannot be
    /// queried or the mapping fails.
    pub fn map_readonly(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(Mmap { backing: Backing::Empty });
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        // Injected transient faults are retried (they self-clear);
        // injected permanent and mmap-open faults surface as `Err`, and
        // the store layer degrades to an owned backing.
        submod_obs::faults::check_io(submod_obs::faults::FaultSite::MmanMap)?;
        #[cfg(unix)]
        {
            let ptr = sys::map(file, len)?;
            submod_obs::counter!("mman.maps").incr();
            submod_obs::counter!("mman.mapped_bytes").add(len as u64);
            Ok(Mmap { backing: Backing::Mapped { ptr, len } })
        }
        #[cfg(not(unix))]
        {
            Self::read_owned(file)
        }
    }

    /// Reads the whole of `file` into an owned buffer behind the same
    /// `Mmap` interface — the graceful-degradation path when
    /// [`Mmap::map_readonly`] fails (e.g. a filesystem without mmap
    /// support, or an injected fault). Trades residency for
    /// availability; callers surface the switch via the
    /// `store.mmap_open_fallbacks` counter.
    ///
    /// # Errors
    ///
    /// Returns the underlying OS error if the file cannot be read.
    pub fn read_owned(file: &File) -> io::Result<Mmap> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        let len = f.metadata()?.len();
        if len == 0 {
            return Ok(Mmap { backing: Backing::Empty });
        }
        f.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::with_capacity(len as usize);
        f.read_to_end(&mut buf)?;
        submod_obs::counter!("mman.owned_reads").incr();
        submod_obs::counter!("mman.owned_bytes").add(buf.len() as u64);
        Ok(Mmap { backing: Backing::Owned(buf) })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Empty => &[],
            #[cfg(unix)]
            Backing::Mapped { ptr, len } => {
                // SAFETY: ptr/len describe a live PROT_READ mapping owned
                // by self (module docs, point 2).
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Backing::Owned(buf) => buf,
        }
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// `true` if the mapped file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = self.backing {
            sys::unmap(ptr, len);
        }
    }
}

/// A mapping plus pre-validated typed views of its three CSR sections.
///
/// [`CsrView::new`] runs the bounds/alignment checks exactly once and
/// caches each section as a raw `(pointer, length)` pair, so the
/// accessors compile down to a bare `slice::from_raw_parts` — small
/// enough to inline into the graph-traversal hot loops that call them
/// per edge. Re-deriving the slices on every call would cost a
/// length/alignment check plus an `expect` per access, which is
/// measurable in tight selection loops.
///
/// ## Why the cached pointers stay valid
///
/// The pointers point *into the mapping the view owns*, not into the
/// view itself, so this is not a self-referential struct: the mapped
/// region (or, on non-Unix, the owned buffer's heap allocation) never
/// moves when the `CsrView` does, and it outlives every accessor borrow
/// because the view keeps the [`Mmap`] alive. The mapping is immutable
/// (`PROT_READ`), so `Send`/`Sync` are inherited by the same argument
/// as for [`Mmap`].
#[derive(Debug)]
pub struct CsrView {
    offsets: (*const u64, usize),
    neighbors: (*const u32, usize),
    weights: (*const f32, usize),
    /// Keeps the mapping the cached pointers target alive; never read.
    _mmap: Mmap,
}

// SAFETY: the cached pointers target the immutable PROT_READ region (or
// the never-mutated owned buffer) owned by `self._mmap`, and are only
// read through shared borrows — same argument as `Mmap` itself.
unsafe impl Send for CsrView {}
unsafe impl Sync for CsrView {}

impl CsrView {
    /// Builds a view over three byte ranges of `mmap`, validating each
    /// range's bounds, length, and alignment once.
    ///
    /// # Errors
    ///
    /// Returns the name of the offending section if a range is out of
    /// bounds, ragged for its element size, or misaligned.
    pub fn new(
        mmap: Mmap,
        offsets: std::ops::Range<usize>,
        neighbors: std::ops::Range<usize>,
        weights: std::ops::Range<usize>,
    ) -> Result<CsrView, &'static str> {
        let bytes = mmap.as_bytes();
        let o = bytes.get(offsets).and_then(cast_slice::<u64>).ok_or("offsets")?;
        let n = bytes.get(neighbors).and_then(cast_slice::<u32>).ok_or("neighbors")?;
        let w = bytes.get(weights).and_then(cast_slice::<f32>).ok_or("weights")?;
        // Raw pointers end the borrows of `mmap`, letting it move into
        // the struct; the allocation they target is address-stable.
        let (offsets, neighbors, weights) =
            ((o.as_ptr(), o.len()), (n.as_ptr(), n.len()), (w.as_ptr(), w.len()));
        Ok(CsrView { offsets, neighbors, weights, _mmap: mmap })
    }

    /// The validated `u64` offsets section.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        // SAFETY: pointer/length were validated against the live mapping
        // in `new` and the region is immutable and owned by `self._mmap`.
        unsafe { std::slice::from_raw_parts(self.offsets.0, self.offsets.1) }
    }

    /// The validated `u32` neighbors section.
    #[inline]
    pub fn neighbors(&self) -> &[u32] {
        // SAFETY: as for `offsets`.
        unsafe { std::slice::from_raw_parts(self.neighbors.0, self.neighbors.1) }
    }

    /// The validated `f32` weights section.
    #[inline]
    pub fn weights(&self) -> &[f32] {
        // SAFETY: as for `offsets`.
        unsafe { std::slice::from_raw_parts(self.weights.0, self.weights.1) }
    }
}

/// Reinterprets `bytes` as a `T` slice: `None` unless the length is a
/// multiple of `size_of::<T>()` and the start is aligned for `T` (mmap
/// regions are page-aligned, so sections placed at aligned file offsets
/// always qualify).
///
/// Only instantiated for `u64`/`u32`/`f32`, in [`CsrView::new`] — all
/// plain-old-data types valid for every bit pattern, NaN floats included
/// (module docs, point 4); semantic validation is the caller's job.
fn cast_slice<T: Copy>(bytes: &[u8]) -> Option<&[T]> {
    let size = std::mem::size_of::<T>();
    if !bytes.len().is_multiple_of(size)
        || !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
    {
        return None;
    }
    // SAFETY: alignment and length were just checked; T is POD (the
    // private helper is only instantiated for u64/u32/f32).
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("submod-mman-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("contents");
        let mut f = File::create(&path).unwrap();
        f.write_all(b"hello mapping").unwrap();
        drop(f);
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, b"hello mapping");
        assert_eq!(map.len(), 13);
        drop(map);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapping_survives_unlink() {
        // The store writes to a temp file, maps it, then deletes it; the
        // mapping must stay readable (standard Unix semantics).
        let path = temp_path("unlink");
        std::fs::write(&path, [1u8, 2, 3, 4]).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(&*map, &[1, 2, 3, 4]);
    }

    #[test]
    fn typed_views_roundtrip() {
        let values: Vec<u64> = (0..17).map(|i| i * 0x0101_0101_0101_0101).collect();
        let mut bytes = Vec::new();
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = temp_path("typed");
        std::fs::write(&path, &bytes).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        assert_eq!(cast_slice::<u64>(&map).unwrap(), values.as_slice());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn misaligned_or_ragged_views_are_rejected() {
        let path = temp_path("ragged");
        std::fs::write(&path, [0u8; 12]).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        // 12 bytes is not a multiple of 8.
        assert!(cast_slice::<u64>(&map).is_none());
        // A view starting 1 byte in is misaligned for u32.
        assert!(cast_slice::<u32>(&map[1..9]).is_none());
        // An aligned 8-byte window works for u32 and u64 alike.
        assert!(cast_slice::<u32>(&map[0..8]).is_some());
        assert!(cast_slice::<u64>(&map[0..8]).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn f32_views_accept_any_bits() {
        let path = temp_path("f32bits");
        std::fs::write(&path, f32::NAN.to_le_bytes()).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        let floats = cast_slice::<f32>(&map).unwrap();
        assert_eq!(floats.len(), 1);
        assert!(floats[0].is_nan());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mmap_is_send_and_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<Mmap>();
        assert_traits::<CsrView>();
    }

    #[test]
    fn csr_view_caches_validated_sections() {
        // 2×u64 offsets, 2×u32 neighbors, 2×f32 weights, back to back.
        let mut bytes = Vec::new();
        for v in [0u64, 2] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [1u32, 3] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for v in [0.5f32, 0.25] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = temp_path("csrview");
        std::fs::write(&path, &bytes).unwrap();
        let map = Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let view = CsrView::new(map, 0..16, 16..24, 24..32).unwrap();
        assert_eq!(view.offsets(), &[0, 2]);
        assert_eq!(view.neighbors(), &[1, 3]);
        assert_eq!(view.weights(), &[0.5, 0.25]);
        // Moving the view must not invalidate the cached pointers.
        let moved = Box::new(view);
        assert_eq!(moved.neighbors(), &[1, 3]);
    }

    #[test]
    fn csr_view_rejects_bad_sections() {
        let path = temp_path("csrview-bad");
        std::fs::write(&path, [0u8; 32]).unwrap();
        let open = || Mmap::map_readonly(&File::open(&path).unwrap()).unwrap();
        // Out of bounds.
        assert_eq!(CsrView::new(open(), 0..16, 16..24, 24..40).unwrap_err(), "weights");
        // Ragged length for u64.
        assert_eq!(CsrView::new(open(), 0..12, 12..24, 24..32).unwrap_err(), "offsets");
        // Misaligned start for u32.
        assert_eq!(CsrView::new(open(), 0..16, 17..25, 28..32).unwrap_err(), "neighbors");
        let _ = std::fs::remove_file(&path);
    }
}
