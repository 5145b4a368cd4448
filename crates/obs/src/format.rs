//! The rules every file the workspace writes to disk shares: one
//! checksum and one header layout with one typed error.
//!
//! The graph store (`submod_core::store`) and the write-ahead journal
//! (`submod_journal`) both start with the same 16-byte prefix and end
//! their header with zeroed reserved bytes:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (format-specific)
//! 8       4     version (u32, little-endian)
//! 12      4     flags   (u32, little-endian)
//! 16      …     format-specific fields
//! …       …     reserved (zero) — the last bytes of the header
//! ```
//!
//! [`check_header`] validates that prefix and the reserved range; the
//! payload that follows is checksummed with [`fnv1a64`] (or its
//! streaming twin [`Fnv1a64`], for writers that never hold the whole
//! payload). The hash is also the workspace's stable, process-independent
//! hash for shuffle keys and test fingerprints, as [`splitmix64`] is its
//! one integer mixer.

use std::fmt;
use std::ops::Range;

const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The splitmix64 finalizer: well dispersed, stable across platforms, and
/// the workspace's one 64-bit mixer — sampling coins, partition keys,
/// fault draws, journal ground-set hashes and virtual-point seeds all
/// call it, each with its own pre-mix of the input (adding the
/// golden-ratio constant `0x9E37_79B9_7F4A_7C15`, or xoring in a key
/// multiplied by it).
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit, over `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.finish()
}

/// Streaming FNV-1a-64: feeding the bytes in any number of
/// [`update`](Self::update) calls hashes to the same value as one
/// [`fnv1a64`] call over their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher that has seen no bytes.
    pub const fn new() -> Self {
        Fnv1a64(FNV_OFFSET_BASIS)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Every way a file header can be wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeaderError {
    /// The file is shorter than its fixed header.
    Truncated {
        /// Header length in bytes.
        expected: u64,
        /// File length in bytes.
        actual: u64,
    },
    /// The first 8 bytes are not the format's magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The version names a format this build does not read.
    UnsupportedVersion {
        /// The version found.
        found: u32,
    },
    /// The flags carry bits this version does not define.
    UnknownFlags {
        /// The flags found.
        found: u32,
    },
    /// A reserved header byte is non-zero (corruption, or a future field
    /// this version cannot interpret).
    ReservedNonZero {
        /// File offset of the first non-zero reserved byte.
        position: usize,
    },
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::Truncated { expected, actual } => {
                write!(f, "file is {actual} bytes, shorter than its {expected}-byte header")
            }
            HeaderError::BadMagic { found } => write!(f, "wrong magic {found:02x?}"),
            HeaderError::UnsupportedVersion { found } => {
                write!(f, "format version {found} is not supported by this build")
            }
            HeaderError::UnknownFlags { found } => {
                write!(f, "flags {found:#x} contain bits this version does not define")
            }
            HeaderError::ReservedNonZero { position } => {
                write!(f, "reserved header byte at offset {position} is non-zero")
            }
        }
    }
}

impl std::error::Error for HeaderError {}

/// Validates the header at the start of `bytes` and returns its flags.
///
/// The header spans `0..reserved.end`: `magic`, then `version`, then a
/// flag word whose bits must all lie in `known_flags`, then the
/// format's own fields, then the `reserved` range, which must be zero.
/// The checks run in that order, so a file that is wrong in several ways
/// reports the first.
pub fn check_header(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
    known_flags: u32,
    reserved: Range<usize>,
) -> Result<u32, HeaderError> {
    let header = bytes.get(..reserved.end).ok_or(HeaderError::Truncated {
        expected: reserved.end as u64,
        actual: bytes.len() as u64,
    })?;
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let found: [u8; 8] = header[..8].try_into().expect("8 bytes");
    if &found != magic {
        return Err(HeaderError::BadMagic { found });
    }
    if word(8) != version {
        return Err(HeaderError::UnsupportedVersion { found: word(8) });
    }
    let flags = word(12);
    if flags & !known_flags != 0 {
        return Err(HeaderError::UnknownFlags { found: flags });
    }
    if let Some(off) = header[reserved.clone()].iter().position(|&b| b != 0) {
        return Err(HeaderError::ReservedNonZero { position: reserved.start + off });
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_standard_vectors() {
        // The empty input hashes to the offset basis, written here in the
        // decimal form the FNV specification also gives.
        assert_eq!(fnv1a64(b""), 14_695_981_039_346_656_037);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a64::default();
        for chunk in [&b"fo"[..], b"", b"oba", b"r"] {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    fn header(flags: u32) -> Vec<u8> {
        let mut bytes = vec![0u8; 32];
        bytes[..8].copy_from_slice(b"TESTFMT1");
        bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
        bytes[12..16].copy_from_slice(&flags.to_le_bytes());
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes()); // format field
        bytes
    }

    fn check(bytes: &[u8]) -> Result<u32, HeaderError> {
        check_header(bytes, b"TESTFMT1", 3, 0b101, 24..32)
    }

    #[test]
    fn a_valid_header_returns_its_flags() {
        assert_eq!(check(&header(0b100)), Ok(0b100));
        // Bytes after the header are the payload's business.
        let mut longer = header(1);
        longer.push(0xFF);
        assert_eq!(check(&longer), Ok(1));
    }

    #[test]
    fn every_header_fault_is_typed() {
        assert_eq!(
            check(&header(0)[..31]),
            Err(HeaderError::Truncated { expected: 32, actual: 31 })
        );
        let mut magic = header(0);
        magic[0] = b'X';
        assert_eq!(check(&magic), Err(HeaderError::BadMagic { found: *b"XESTFMT1" }));
        let mut version = header(0);
        version[8] = 4;
        assert_eq!(check(&version), Err(HeaderError::UnsupportedVersion { found: 4 }));
        assert_eq!(check(&header(0b10)), Err(HeaderError::UnknownFlags { found: 0b10 }));
        let mut reserved = header(0);
        reserved[30] = 1;
        assert_eq!(check(&reserved), Err(HeaderError::ReservedNonZero { position: 30 }));
    }
}
