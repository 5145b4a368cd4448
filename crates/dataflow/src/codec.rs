//! Compact binary codec for records crossing worker or memory boundaries.
//!
//! Everything stored in a [`crate::PCollection`] implements [`Record`]: a
//! fixed little-endian encoding with length-prefixed variable-size parts.
//! The engine uses it for spill files and shuffle buffers; keeping it a
//! first-party trait (rather than a serde dependency) keeps the hot path
//! allocation-free for primitive tuples and makes sizes predictable for the
//! memory accountant.

use crate::DataflowError;

/// The element type of one column in a fixed-width columnar shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// 32-bit unsigned integers.
    U32,
    /// 64-bit unsigned integers.
    U64,
    /// 32-bit floats (bit patterns preserved exactly).
    F32,
    /// 64-bit floats (bit patterns preserved exactly).
    F64,
}

impl ColKind {
    /// Bytes per element in the raw column encoding.
    pub fn width(self) -> usize {
        match self {
            ColKind::U32 | ColKind::F32 => 4,
            ColKind::U64 | ColKind::F64 => 8,
        }
    }
}

/// One plain column of a fixed-width shard: a dense vector of a single
/// scalar kind. Spills of fixed-width records write these as raw
/// little-endian bytes — no per-record codec frames — and scans (e.g. the
/// distributed `kth_largest`) read them back as contiguous slices.
#[derive(Clone, Debug)]
pub enum Column {
    /// 32-bit unsigned integers.
    U32(Vec<u32>),
    /// 64-bit unsigned integers.
    U64(Vec<u64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
}

impl Column {
    /// An empty column of the given kind.
    pub fn new(kind: ColKind) -> Self {
        match kind {
            ColKind::U32 => Column::U32(Vec::new()),
            ColKind::U64 => Column::U64(Vec::new()),
            ColKind::F32 => Column::F32(Vec::new()),
            ColKind::F64 => Column::F64(Vec::new()),
        }
    }

    /// Number of elements in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::U32(v) => v.len(),
            Column::U64(v) => v.len(),
            Column::F32(v) => v.len(),
            Column::F64(v) => v.len(),
        }
    }

    /// Returns `true` when the column holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all elements, keeping the allocation.
    pub fn clear(&mut self) {
        match self {
            Column::U32(v) => v.clear(),
            Column::U64(v) => v.clear(),
            Column::F32(v) => v.clear(),
            Column::F64(v) => v.clear(),
        }
    }

    /// Appends the raw little-endian bytes of every element to `out`.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        match self {
            Column::U32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Column::U64(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Column::F32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
            Column::F64(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        }
    }

    /// Reconstructs a column of `kind` from `rows` raw little-endian
    /// elements at the front of `input`, advancing the slice.
    ///
    /// # Errors
    ///
    /// Returns a codec error if `input` holds fewer than
    /// `rows * kind.width()` bytes.
    pub fn read_le(kind: ColKind, rows: usize, input: &mut &[u8]) -> Result<Self, DataflowError> {
        let bytes = take(input, rows * kind.width())?;
        Ok(match kind {
            ColKind::U32 => Column::U32(
                bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect(),
            ),
            ColKind::U64 => Column::U64(
                bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect(),
            ),
            ColKind::F32 => Column::F32(
                bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect(),
            ),
            ColKind::F64 => Column::F64(
                bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect(),
            ),
        })
    }

    /// The underlying `f64` slice, when this is an `F64` column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }
}

/// Marker for [`Record`] types stored as fixed-width columns: every value
/// is a fixed arrangement of `u32`/`u64`/`f32`/`f64` scalars (described by
/// [`Record::column_kinds`]), so shards of them can spill as raw column
/// bytes instead of per-record codec frames and barriers can scan the
/// columns contiguously. Implemented for the scalar primitives and for
/// tuples whose components are all fixed-width — which covers the hot
/// collections of the selection pipelines: the scored greedy pool
/// `(machine, (node, priority))` and the bounding candidate rows.
pub trait FixedWidth: Record {}

impl FixedWidth for u32 {}
impl FixedWidth for u64 {}
impl FixedWidth for f32 {}
impl FixedWidth for f64 {}

/// A value that can be stored in a [`crate::PCollection`].
///
/// Implementations must round-trip: `decode(encode(x)) == x`. The provided
/// implementations cover primitives, `String`, `Option`, `Vec`, and tuples
/// up to arity 4 — enough to express the paper's bounding and scoring
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

    /// The [`FixedWidth`] opt-in: the column layout of this type, or
    /// `None` (the default) when values are not a fixed arrangement of
    /// scalars. Types returning `Some` must also implement
    /// [`Record::append_columns`] / [`Record::from_columns`] such that
    /// `from_columns(cols, i)` reproduces the `i`-th appended value
    /// bit for bit.
    fn column_kinds() -> Option<Vec<ColKind>> {
        None
    }

    /// Appends this value's scalars to `cols` (one entry per
    /// [`Record::column_kinds`] kind). Only called for fixed-width types.
    fn append_columns(&self, _cols: &mut [Column]) {
        unreachable!("append_columns on a record without column_kinds")
    }

    /// Reads the `idx`-th value back out of `cols`. Only called for
    /// fixed-width types.
    fn from_columns(_cols: &[Column], _idx: usize) -> Self {
        unreachable!("from_columns on a record without column_kinds")
    }

    /// `column_kinds().len()` without the allocation (0 when not
    /// fixed-width) — the per-record column walk uses this.
    fn column_count() -> usize {
        0
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DataflowError> {
    if input.len() < n {
        return Err(DataflowError::codec(format!(
            "needed {n} bytes, only {} available",
            input.len()
        )));
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
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

impl_record_le!(u8, u16, i8, i16, i32, i64);

/// Little-endian scalar records that are also single-column fixed-width
/// values (`$kind` names both the [`ColKind`] and [`Column`] variant).
macro_rules! impl_record_le_fixed {
    ($(($ty:ty, $kind:ident)),*) => {$(
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

            fn column_kinds() -> Option<Vec<ColKind>> {
                Some(vec![ColKind::$kind])
            }

            #[inline]
            fn append_columns(&self, cols: &mut [Column]) {
                match &mut cols[0] {
                    Column::$kind(v) => v.push(*self),
                    _ => unreachable!("column kind mismatch"),
                }
            }

            #[inline]
            fn from_columns(cols: &[Column], idx: usize) -> Self {
                match &cols[0] {
                    Column::$kind(v) => v[idx],
                    _ => unreachable!("column kind mismatch"),
                }
            }

            fn column_count() -> usize {
                1
            }
        }
    )*};
}

impl_record_le_fixed!((u32, U32), (u64, U64), (f32, F32), (f64, F64));

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
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }

            fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
                Ok(($($name::decode(input)?,)+))
            }

            fn approx_bytes(&self) -> usize {
                0 $(+ self.$idx.approx_bytes())+
            }

            fn column_kinds() -> Option<Vec<ColKind>> {
                let mut kinds = Vec::new();
                $(kinds.extend($name::column_kinds()?);)+
                Some(kinds)
            }

            #[inline]
            fn append_columns(&self, cols: &mut [Column]) {
                let mut offset = 0usize;
                $(
                    let width = $name::column_count();
                    self.$idx.append_columns(&mut cols[offset..offset + width]);
                    offset += width;
                )+
                let _ = offset;
            }

            #[inline]
            fn from_columns(cols: &[Column], idx: usize) -> Self {
                let mut offset = 0usize;
                let value = ($(
                    {
                        let width = $name::column_count();
                        let component = $name::from_columns(&cols[offset..offset + width], idx);
                        offset += width;
                        component
                    },
                )+);
                let _ = offset;
                value
            }

            fn column_count() -> usize {
                0 $(+ $name::column_count())+
            }
        }

        impl<$($name: FixedWidth),+> FixedWidth for ($($name,)+) {}
    )+};
}

impl_record_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

/// A value of one of two types, used by [`crate::PCollection::co_group_2`]
/// to shuffle both join sides through a single grouping pass.
#[derive(Clone, Debug, PartialEq)]
pub enum Either2<A, B> {
    /// Value from the left collection.
    Left(A),
    /// Value from the right collection.
    Right(B),
}

impl<A: Record, B: Record> Record for Either2<A, B> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Either2::Left(a) => {
                buf.push(0);
                a.encode(buf);
            }
            Either2::Right(b) => {
                buf.push(1);
                b.encode(buf);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, DataflowError> {
        match take(input, 1)?[0] {
            0 => Ok(Either2::Left(A::decode(input)?)),
            1 => Ok(Either2::Right(B::decode(input)?)),
            other => Err(DataflowError::codec(format!("invalid either2 tag {other}"))),
        }
    }

    fn approx_bytes(&self) -> usize {
        1 + match self {
            Either2::Left(a) => a.approx_bytes(),
            Either2::Right(b) => b.approx_bytes(),
        }
    }
}

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
    fn eithers_roundtrip() {
        roundtrip(Either2::<u64, f32>::Left(7));
        roundtrip(Either2::<u64, f32>::Right(0.5));
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
        assert!(Either2::<u8, u8>::decode(&mut &buf[..]).is_err());
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
    fn fixed_width_columns_roundtrip() {
        type Row = (u64, (u32, f64));
        let kinds = <Row as Record>::column_kinds().unwrap();
        assert_eq!(kinds, vec![ColKind::U64, ColKind::U32, ColKind::F64]);
        assert_eq!(<Row as Record>::column_count(), 3);
        let rows: Vec<Row> =
            (0..10u64).map(|i| (i, (i as u32 * 2, i as f64 * 0.5 - 1.0))).collect();
        let mut cols: Vec<Column> = kinds.iter().map(|&k| Column::new(k)).collect();
        for r in &rows {
            r.append_columns(&mut cols);
        }
        let mut bytes = Vec::new();
        for c in &cols {
            c.write_le(&mut bytes);
        }
        assert_eq!(bytes.len(), rows.len() * (8 + 4 + 8));
        let mut slice = bytes.as_slice();
        let back: Vec<Column> =
            kinds.iter().map(|&k| Column::read_le(k, rows.len(), &mut slice).unwrap()).collect();
        assert!(slice.is_empty());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(Row::from_columns(&back, i), *r);
        }
    }

    #[test]
    fn variable_width_types_are_not_columnar() {
        assert!(String::column_kinds().is_none());
        assert!(<(u64, String)>::column_kinds().is_none());
        assert!(Vec::<u64>::column_kinds().is_none());
        assert!(u8::column_kinds().is_none());
        assert!(bool::column_kinds().is_none());
    }

    #[test]
    fn float_columns_preserve_bits() {
        let vals = [0.0f64, -0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let mut cols = vec![Column::new(ColKind::F64)];
        for v in &vals {
            v.append_columns(&mut cols);
        }
        let mut bytes = Vec::new();
        cols[0].write_le(&mut bytes);
        let mut slice = bytes.as_slice();
        let back = Column::read_le(ColKind::F64, vals.len(), &mut slice).unwrap();
        assert!(slice.is_empty());
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(f64::from_columns(std::slice::from_ref(&back), i).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_column_bytes_are_an_error() {
        let bytes = [0u8; 7];
        assert!(Column::read_le(ColKind::F64, 1, &mut &bytes[..]).is_err());
        assert!(Column::read_le(ColKind::U32, 2, &mut &bytes[..]).is_err());
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
