//! Byte-stream codecs for numeric payloads.
//!
//! The paper's data interfaces make it "possible to have custom
//! implementations of standard data formats, e.g., save a Numpy archive into
//! a byte stream that can be redirected effortlessly to a file, an archive,
//! or a database" (§4.2). [`Array`] is our n-dimensional f64 array with a
//! compact binary encoding; [`Records`] is the npz-like named bundle used
//! for patches, RDFs, and analysis outputs.
//!
//! Both directions have one borrowed form that the owned types are built
//! on. [`RecordsWriter`] writes a bundle entry by entry into one buffer
//! sized up front, from the caller's own slices. [`RecordsView::parse`]
//! is the one parser: it validates a whole bundle and then hands out
//! [`ArrayView`]s into the caller's bytes, so a reader that only folds
//! the values copies nothing. [`Records::decode`] and [`Array::decode`]
//! are that parse plus a copy.
//!
//! The parser accepts exactly what the writer produces: a bundle that
//! parses re-encodes to the same bytes. Trailing bytes, a repeated entry
//! name and an entry count the body cannot hold are errors.

use std::fmt;
use std::io::Write as _;

use crate::{DataError, Result};

const ARRAY_MAGIC: &[u8; 4] = b"MMA1";
const RECORDS_MAGIC: &[u8; 4] = b"MMR1";
/// The smallest encoded entry: a name length, an empty name, a payload
/// size and a 0-D array header.
const MIN_ENTRY_LEN: usize = 2 + 8 + 8;
/// Bundles of up to this many entries check their names for repeats
/// pairwise, which allocates nothing (a CG frame has a handful); larger
/// ones sort the names once.
const PAIRWISE_NAMES: usize = 16;

fn codec_err(msg: impl Into<String>) -> DataError {
    DataError::Codec(msg.into())
}

#[cold]
fn truncated(what: &str) -> DataError {
    codec_err(format!("truncated {what}"))
}

/// Splits `n` bytes off the front of `bytes`, or fails with `what`.
fn take<'a>(bytes: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if bytes.len() < n {
        return Err(truncated(what));
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

fn u64_at(bytes: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(b)
}

/// An n-dimensional array of `f64` in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl Array {
    /// Creates an array, checking that `data.len()` matches the shape.
    ///
    /// # Panics
    /// Panics when the element count disagrees with the shape product.
    pub fn new(shape: Vec<usize>, data: Vec<f64>) -> Array {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "shape/product mismatch");
        Array { shape, data }
    }

    /// A 1-D array.
    pub fn from_vec(data: Vec<f64>) -> Array {
        Array {
            shape: vec![data.len()],
            data,
        }
    }

    /// A zero-filled array.
    pub fn zeros(shape: Vec<usize>) -> Array {
        let n: usize = shape.iter().product();
        Array {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Array shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Flat element view.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable element view.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-element array.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// 2-D element access (row-major).
    ///
    /// # Panics
    /// Panics if the array is not 2-D or indices are out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f64 {
        assert_eq!(self.shape.len(), 2, "at2 requires a 2-D array");
        self.data[r * self.shape[1] + c]
    }

    /// Encodes to the compact binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(array_len(self.shape.len(), self.data.len()));
        write_array(&mut out, &self.shape, &self.data);
        out
    }

    /// Decodes from the compact binary format: [`ArrayView::parse`] plus
    /// a copy.
    pub fn decode(bytes: &[u8]) -> Result<Array> {
        Ok(ArrayView::parse(bytes)?.to_array())
    }
}

/// Encoded length of an array of `ndim` dimensions and `n` elements.
fn array_len(ndim: usize, n: usize) -> usize {
    8 + ndim * 8 + n * 8
}

fn write_array(out: &mut Vec<u8>, shape: &[usize], data: &[f64]) {
    out.extend_from_slice(ARRAY_MAGIC);
    out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
    for &d in shape {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A validated, borrowed view of one encoded [`Array`].
#[derive(Debug, Clone, Copy)]
pub struct ArrayView<'a> {
    /// `ndim` little-endian `u64` dimensions.
    shape: &'a [u8],
    /// The elements as little-endian `f64`s.
    data: &'a [u8],
}

impl<'a> ArrayView<'a> {
    /// Validates an encoded array: magic, a shape whose element count
    /// does not overflow, and a payload of exactly that many elements.
    pub fn parse(bytes: &'a [u8]) -> Result<ArrayView<'a>> {
        if bytes.len() < 8 || &bytes[..4] != ARRAY_MAGIC {
            return Err(codec_err("bad array magic"));
        }
        let ndim = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        if bytes.len() - 8 < ndim * 8 {
            return Err(truncated("array shape"));
        }
        let view = ArrayView::parsed(bytes);
        // The shape is foreign input: its product can overflow.
        let payload = view
            .shape()
            .try_fold(1usize, |n, d| n.checked_mul(d))
            .and_then(|n| n.checked_mul(8));
        match payload {
            Some(payload) if payload == view.data.len() => Ok(view),
            Some(payload) => Err(codec_err(format!(
                "array payload is {} bytes, expected {payload}",
                view.data.len(),
            ))),
            None => Err(codec_err(format!(
                "array shape {:?} overflows",
                view.shape().collect::<Vec<_>>()
            ))),
        }
    }

    /// The view of a payload [`ArrayView::parse`] already accepted.
    fn parsed(payload: &'a [u8]) -> ArrayView<'a> {
        let ndim = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]) as usize;
        let (shape, data) = payload[8..].split_at(ndim * 8);
        ArrayView { shape, data }
    }

    /// The dimensions, outermost first.
    pub fn shape(&self) -> impl ExactSizeIterator<Item = usize> + 'a {
        let shape = self.shape;
        (0..shape.len() / 8).map(move |i| u64_at(shape, i) as usize)
    }

    /// Element `i` of the flat row-major data, if there is one.
    pub fn get(&self, i: usize) -> Option<f64> {
        (i < self.data.len() / 8).then(|| f64::from_bits(u64_at(self.data, i)))
    }

    /// The elements in row-major order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        let data = self.data;
        (0..data.len() / 8).map(move |i| f64::from_bits(u64_at(data, i)))
    }

    /// An owned copy.
    pub fn to_array(&self) -> Array {
        Array {
            shape: self.shape().collect(),
            data: self.values().collect(),
        }
    }
}

/// A named bundle of arrays — the byte-stream analogue of a `.npz`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Records {
    entries: Vec<(String, Array)>,
}

impl Records {
    /// Creates an empty bundle.
    pub fn new() -> Records {
        Records::default()
    }

    /// Adds (or replaces) a named array.
    pub fn insert(&mut self, name: &str, array: Array) {
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| n == name) {
            slot.1 = array;
        } else {
            self.entries.push((name.to_string(), array));
        }
    }

    /// Looks up a named array.
    pub fn get(&self, name: &str) -> Option<&Array> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, a)| a)
    }

    /// Entry names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encodes the bundle to bytes, in one buffer sized up front.
    pub fn encode(&self) -> Vec<u8> {
        let size = self
            .entries
            .iter()
            .map(|(name, a)| RecordsWriter::entry_len(name.len(), a.shape.len(), a.len()))
            .sum();
        let mut out = Vec::new();
        let mut w = RecordsWriter::new(&mut out, self.entries.len(), size);
        for (name, array) in &self.entries {
            w.entry(name, &array.shape, &array.data);
        }
        w.finish();
        out
    }

    /// Decodes a bundle from bytes: [`RecordsView::parse`] plus a copy.
    pub fn decode(bytes: &[u8]) -> Result<Records> {
        Ok(RecordsView::parse(bytes)?.to_records())
    }
}

/// Writes one bundle, entry by entry, into a caller's buffer sized up
/// front: the encoder behind [`Records::encode`] for callers that hold
/// their values in slices of their own.
#[derive(Debug)]
pub struct RecordsWriter<'a> {
    out: &'a mut Vec<u8>,
    /// The encoded length the caller announced.
    size: usize,
}

impl<'a> RecordsWriter<'a> {
    /// Encoded length of one entry whose name is `name_len` bytes long,
    /// holding an array of `ndim` dimensions and `n` elements.
    pub fn entry_len(name_len: usize, ndim: usize, n: usize) -> usize {
        2 + name_len + 8 + array_len(ndim, n)
    }

    /// Starts a bundle of `count` entries in `out`, which is cleared and
    /// sized for the header plus `entries_len` bytes of entries (the sum
    /// of their [`RecordsWriter::entry_len`]s).
    pub fn new(out: &'a mut Vec<u8>, count: usize, entries_len: usize) -> RecordsWriter<'a> {
        let size = 8 + entries_len;
        out.clear();
        out.reserve(size);
        out.extend_from_slice(RECORDS_MAGIC);
        out.extend_from_slice(&(count as u32).to_le_bytes());
        RecordsWriter { out, size }
    }

    /// Appends one entry. The name is written in place, so a formatted
    /// name (`format_args!("rdf{s}")`) allocates nothing.
    ///
    /// # Panics
    /// Panics when the element count disagrees with the shape product.
    pub fn entry(&mut self, name: impl fmt::Display, shape: &[usize], data: &[f64]) {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/product mismatch"
        );
        let at = self.out.len();
        self.out.extend_from_slice(&[0, 0]);
        // Writing into a `Vec<u8>` cannot fail.
        let _ = write!(self.out, "{name}");
        let name_len = self.out.len() - at - 2;
        self.out[at..at + 2].copy_from_slice(&(name_len as u16).to_le_bytes());
        let payload = array_len(shape.len(), data.len());
        self.out.extend_from_slice(&(payload as u64).to_le_bytes());
        write_array(self.out, shape, data);
    }

    /// Ends the bundle.
    pub fn finish(self) {
        debug_assert_eq!(self.out.len(), self.size, "announced length");
    }
}

/// A validated, borrowed view of one encoded [`Records`] bundle.
#[derive(Debug, Clone, Copy)]
pub struct RecordsView<'a> {
    /// The entries, after the header.
    body: &'a [u8],
    count: usize,
}

impl<'a> RecordsView<'a> {
    /// Validates a whole bundle: the header, every entry (its name is
    /// UTF-8 and new to the bundle, its payload one valid array), and no
    /// bytes after the last entry. An entry count the body cannot hold
    /// fails before any entry is read.
    pub fn parse(bytes: &'a [u8]) -> Result<RecordsView<'a>> {
        if bytes.len() < 8 || &bytes[..4] != RECORDS_MAGIC {
            return Err(codec_err("bad records magic"));
        }
        let count = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        let body = &bytes[8..];
        if count > body.len() / MIN_ENTRY_LEN {
            return Err(codec_err(format!(
                "{count} records cannot fit in {} bytes",
                body.len()
            )));
        }
        let repeats = |name: &[u8]| {
            codec_err(format!(
                "record name {:?} repeats",
                String::from_utf8_lossy(name)
            ))
        };
        let mut rest = body;
        for i in 0..count {
            let (name, payload) = split_entry(&mut rest)?;
            std::str::from_utf8(name).map_err(|_| codec_err("non-utf8 record name"))?;
            ArrayView::parse(payload)?;
            let earlier = RecordsView { body, count: i };
            if count <= PAIRWISE_NAMES && earlier.find(|n| n == name).is_some() {
                return Err(repeats(name));
            }
        }
        if !rest.is_empty() {
            return Err(codec_err(format!(
                "{} bytes after the last record",
                rest.len()
            )));
        }
        let view = RecordsView { body, count };
        if count > PAIRWISE_NAMES {
            let mut names: Vec<&[u8]> = view.raw().map(|(name, _)| name).collect();
            names.sort_unstable();
            if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(repeats(pair[0]));
            }
        }
        Ok(view)
    }

    /// The entries' name and payload bytes, in encoded order.
    fn raw(&self) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        let mut rest = self.body;
        (0..self.count).map(move |_| {
            // `parse` checked every length on this walk.
            let name_len = u16::from_le_bytes([rest[0], rest[1]]) as usize;
            let (name, tail) = rest[2..].split_at(name_len);
            let (payload, tail) = tail[8..].split_at(u64_at(tail, 0) as usize);
            rest = tail;
            (name, payload)
        })
    }

    /// The entries in encoded order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, ArrayView<'a>)> + 'a {
        self.raw().map(|(name, payload)| {
            (
                std::str::from_utf8(name).unwrap_or_default(),
                ArrayView::parsed(payload),
            )
        })
    }

    /// Looks up a named array.
    pub fn get(&self, name: &str) -> Option<ArrayView<'a>> {
        self.find(|n| n == name.as_bytes())
    }

    /// The first array whose name's bytes satisfy `pred`: a lookup that
    /// needs no name string of its own.
    pub fn find(&self, mut pred: impl FnMut(&[u8]) -> bool) -> Option<ArrayView<'a>> {
        self.raw()
            .find(|(name, _)| pred(name))
            .map(|(_, payload)| ArrayView::parsed(payload))
    }

    /// An owned copy.
    fn to_records(self) -> Records {
        let mut entries = Vec::with_capacity(self.count);
        entries.extend(self.iter().map(|(n, a)| (n.to_string(), a.to_array())));
        Records { entries }
    }
}

/// Splits one entry's name and payload off the front of `bytes`.
fn split_entry<'a>(bytes: &mut &'a [u8]) -> Result<(&'a [u8], &'a [u8])> {
    let len = take(bytes, 2, "record name length")?;
    let name = take(
        bytes,
        u16::from_le_bytes([len[0], len[1]]) as usize,
        "record name",
    )?;
    let size = take(bytes, 8, "record size")?;
    let size = usize::try_from(u64_at(size, 0)).unwrap_or(usize::MAX);
    Ok((name, take(bytes, size, "record payload")?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_roundtrip() {
        let a = Array::new(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Array::decode(&a.encode()).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.at2(1, 2), 6.0);
    }

    #[test]
    fn empty_and_1d_arrays() {
        let empty = Array::from_vec(vec![]);
        assert_eq!(Array::decode(&empty.encode()).unwrap(), empty);
        let one = Array::from_vec(vec![42.0]);
        assert_eq!(Array::decode(&one.encode()).unwrap(), one);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Array::decode(b"nope").is_err());
        assert!(Array::decode(b"MMA1\x02\x00\x00\x00").is_err());
        // Declared shape larger than payload.
        let mut enc = Array::from_vec(vec![1.0, 2.0]).encode();
        enc.truncate(enc.len() - 8);
        assert!(Array::decode(&enc).is_err());
    }

    /// A shape whose element count overflows `usize` is an error, not a
    /// panic or a zero-element array that claims 2^64 elements.
    #[test]
    fn decode_rejects_an_overflowing_shape() {
        let bytes: &[u8] = b"MMA1\x02\x00\x00\x00\
            \x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00";
        assert!(matches!(Array::decode(bytes), Err(DataError::Codec(_))));
    }

    #[test]
    fn records_roundtrip_and_replace() {
        let mut r = Records::new();
        r.insert("rdf", Array::from_vec(vec![0.1, 0.2]));
        r.insert("counts", Array::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        r.insert("rdf", Array::from_vec(vec![9.0])); // replace
        assert_eq!(r.len(), 2);
        let back = Records::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.get("rdf").unwrap().data(), &[9.0]);
        assert_eq!(back.names(), vec!["rdf", "counts"]);
    }

    /// The wire format, byte for byte: a 1-D and a 2-D entry. Frames in
    /// the store and on the wire must not change when the encoder does.
    #[test]
    fn records_encode_to_the_pinned_bytes() {
        let mut r = Records::new();
        r.insert("rdf", Array::from_vec(vec![0.5, -2.0]));
        r.insert("xy", Array::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let expected: &[u8] = b"MMR1\x02\x00\x00\x00\
            \x03\x00rdf\x20\x00\x00\x00\x00\x00\x00\x00\
            MMA1\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\xe0\x3f\x00\x00\x00\x00\x00\x00\x00\xc0\
            \x02\x00xy\x38\x00\x00\x00\x00\x00\x00\x00\
            MMA1\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\
            \x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\x00\x40\
            \x00\x00\x00\x00\x00\x00\x08\x40\x00\x00\x00\x00\x00\x00\x10\x40";
        assert_eq!(&r.encode()[..], expected);
        assert_eq!(Records::decode(expected).unwrap(), r);
    }

    #[test]
    fn records_decode_rejects_truncation() {
        let mut r = Records::new();
        r.insert("x", Array::from_vec(vec![1.0, 2.0, 3.0]));
        let enc = r.encode();
        for cut in [3, 6, 10, enc.len() - 1] {
            assert!(Records::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "shape/product mismatch")]
    fn bad_shape_panics() {
        let _ = Array::new(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn zeros_has_right_shape() {
        let z = Array::zeros(vec![3, 4]);
        assert_eq!(z.len(), 12);
        assert!(z.data().iter().all(|&v| v == 0.0));
    }
}
