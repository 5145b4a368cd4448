//! The record codec: the one byte form of every value the engine moves
//! off the heap.
//!
//! Everything stored in a [`crate::PCollection`] implements [`Record`]: a
//! little-endian encoding in which scalars take their natural width and
//! variable-size parts (`String`, `Vec`) carry a `u64` length. Spill files
//! hold these encodings back to back, so a fixed-width row such as
//! `(u64, (u64, f64))` costs exactly its 24 payload bytes on disk, and the
//! shuffle hashes a key's encoding to pick its bucket. Keeping the codec
//! a first-party trait (rather than a serde dependency) keeps encoding
//! allocation-free for primitive tuples and keeps sizes predictable for
//! the memory accountant.

use crate::DataflowError;

/// A value that can be stored in a [`crate::PCollection`].
///
/// Implementations must round-trip: `decode(encode(x)) == x`. The provided
/// implementations cover primitives, `String`, `Option`, `Vec`, and tuples
/// up to arity 5 — enough to express the paper's bounding and scoring
/// pipelines (§5), which shuffle `(node, neighbor, similarity, flag)`
/// tuples.
///
/// ```
/// use submod_dataflow::Record;
///
/// let value = (7u64, vec![(1u64, 0.5f32), (2, 0.25)]);
/// let mut buf = Vec::new();
/// value.encode(&mut buf);
/// let decoded = <(u64, Vec<(u64, f32)>)>::decode(&mut buf.as_slice()).unwrap();
/// assert_eq!(decoded, value);
/// ```
pub trait Record: Send + Sync + Clone + 'static {
    /// Appends the encoded form of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing the slice.
    ///
    /// # Errors
    ///
    /// Returns a codec error if the input is truncated or malformed.
    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError>;

    /// Estimated resident bytes of this value, used by the memory
    /// accountant to decide when a worker must spill.
    ///
    /// The default assumes a fixed-size value; containers override it.
    fn approx_bytes(&self) -> usize {
        size_of::<Self>()
    }
}

#[inline]
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DataflowError> {
    match input.split_at_checked(n) {
        Some((head, rest)) => {
            *input = rest;
            Ok(head)
        }
        None => Err(short_input(n, input.len())),
    }
}

/// Out of line, so the fast path of every fixed-width decode stays small
/// enough to inline.
#[cold]
fn short_input(needed: usize, available: usize) -> DataflowError {
    DataflowError::codec(format!("needed {needed} bytes, only {available} available"))
}

macro_rules! impl_record_le {
    ($($ty:ty),*) => {$(
        impl Record for $ty {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
                let bytes = take(input, size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
        }
    )*};
}

impl_record_le!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Record for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DataflowError::codec(format!("invalid bool byte {other}"))),
        }
    }
}

impl Record for () {
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}

    #[inline]
    fn decode(_input: &mut &[u8]) -> Result<Self, DataflowError> {
        Ok(())
    }

    fn approx_bytes(&self) -> usize {
        0
    }
}

impl Record for usize {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
        let raw = u64::decode(input)?;
        usize::try_from(raw)
            .map_err(|_| DataflowError::codec(format!("usize overflow decoding {raw}")))
    }
}

impl Record for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
        let len = u64::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| DataflowError::codec(format!("invalid utf-8 string: {e}")))
    }

    fn approx_bytes(&self) -> usize {
        size_of::<String>() + self.len()
    }
}

impl<T: Record> Record for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(value) => {
                buf.push(1);
                value.encode(buf);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(DataflowError::codec(format!("invalid option tag {other}"))),
        }
    }

    fn approx_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, Record::approx_bytes)
    }
}

impl<T: Record> Record for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
        let len = u64::decode(input)? as usize;
        // Guard against corrupted lengths blowing up allocation.
        let mut out = Vec::with_capacity(len.min(input.len().max(16)));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }

    fn approx_bytes(&self) -> usize {
        size_of::<Vec<T>>() + self.iter().map(Record::approx_bytes).sum::<usize>()
    }
}

macro_rules! impl_record_tuple {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Record),+> Record for ($($name,)+) {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
                Ok(($($name::decode(input)?,)+))
            }

            fn approx_bytes(&self) -> usize {
                0 $(+ self.$idx.approx_bytes())+
            }
        }
    )+};
}

impl_record_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut slice = buf.as_slice();
        let decoded = T::decode(&mut slice).expect("decode");
        assert_eq!(decoded, value);
        assert!(slice.is_empty(), "decode must consume the full encoding");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(3.25f32);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(123usize);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("hello Beam"));
        roundtrip(String::new());
        roundtrip(Option::<u32>::None);
        roundtrip(Some(9u32));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f32>::new());
        roundtrip(vec![(1u64, 0.5f32), (2, 0.25)]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u64,));
        roundtrip((1u64, 2.0f32));
        roundtrip((1u64, 2u64, 0.5f32));
        roundtrip((1u64, 2u64, 0.5f32, true));
        roundtrip((1u64, 2u64, 0.5f32, true, String::from("x")));
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut buf = Vec::new();
        12345u64.encode(&mut buf);
        let mut short = &buf[..4];
        assert!(u64::decode(&mut short).is_err());
    }

    #[test]
    fn invalid_tags_are_errors() {
        let buf = [7u8];
        assert!(bool::decode(&mut &buf[..]).is_err());
        assert!(Option::<u8>::decode(&mut &buf[..]).is_err());
    }

    #[test]
    fn invalid_utf8_string_is_an_error() {
        let mut buf = Vec::new();
        2u64.encode(&mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn approx_bytes_scales_with_content() {
        let small = vec![1u64];
        let big = vec![1u64; 100];
        assert!(big.approx_bytes() > small.approx_bytes());
        assert!(String::from("longer string").approx_bytes() > String::from("s").approx_bytes());
    }

    #[test]
    fn decode_consumes_exactly_one_record() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        2u32.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(u32::decode(&mut slice).unwrap(), 1);
        assert_eq!(u32::decode(&mut slice).unwrap(), 2);
        assert!(slice.is_empty());
    }
}
