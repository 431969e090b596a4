//! Byte-stream codecs for numeric payloads.
//!
//! The paper's data interfaces make it "possible to have custom
//! implementations of standard data formats, e.g., save a Numpy archive into
//! a byte stream that can be redirected effortlessly to a file, an archive,
//! or a database" (§4.2). [`Array`] is our n-dimensional f64 array with a
//! compact binary encoding; [`Records`] is the npz-like named bundle used
//! for patches, RDFs, and analysis outputs.

use bytes::{Buf, BufMut};

use crate::{DataError, Result};

const ARRAY_MAGIC: &[u8; 4] = b"MMA1";
const RECORDS_MAGIC: &[u8; 4] = b"MMR1";

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
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out);
        out
    }

    /// Length of [`Array::encode`]'s output.
    fn encoded_len(&self) -> usize {
        8 + self.shape.len() * 8 + self.data.len() * 8
    }

    /// Appends the encoding to `out`, which [`Records::encode`] sizes for
    /// the whole bundle so each array lands in place.
    fn write_to(&self, out: &mut Vec<u8>) {
        out.put_slice(ARRAY_MAGIC);
        out.put_u32_le(self.shape.len() as u32);
        for &d in &self.shape {
            out.put_u64_le(d as u64);
        }
        for &v in &self.data {
            out.put_f64_le(v);
        }
    }

    /// Decodes from the compact binary format.
    pub fn decode(mut bytes: &[u8]) -> Result<Array> {
        if bytes.len() < 8 || &bytes[..4] != ARRAY_MAGIC {
            return Err(DataError::Codec("bad array magic".into()));
        }
        bytes.advance(4);
        let ndim = bytes.get_u32_le() as usize;
        if bytes.remaining() < ndim * 8 {
            return Err(DataError::Codec("truncated array shape".into()));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(bytes.get_u64_le() as usize);
        }
        // The shape is foreign input: its product can overflow.
        let (n, payload) = shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .and_then(|n| Some((n, n.checked_mul(8)?)))
            .ok_or_else(|| DataError::Codec(format!("array shape {shape:?} overflows")))?;
        if bytes.remaining() != payload {
            return Err(DataError::Codec(format!(
                "array payload is {} bytes, expected {payload}",
                bytes.remaining(),
            )));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(bytes.get_f64_le());
        }
        Ok(Array { shape, data })
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
        let size = 8 + self
            .entries
            .iter()
            .map(|(name, array)| 2 + name.len() + 8 + array.encoded_len())
            .sum::<usize>();
        let mut out = Vec::with_capacity(size);
        out.put_slice(RECORDS_MAGIC);
        out.put_u32_le(self.entries.len() as u32);
        for (name, array) in &self.entries {
            out.put_u16_le(name.len() as u16);
            out.put_slice(name.as_bytes());
            out.put_u64_le(array.encoded_len() as u64);
            array.write_to(&mut out);
        }
        debug_assert_eq!(out.len(), size);
        out
    }

    /// Decodes a bundle from bytes.
    pub fn decode(mut bytes: &[u8]) -> Result<Records> {
        if bytes.len() < 8 || &bytes[..4] != RECORDS_MAGIC {
            return Err(DataError::Codec("bad records magic".into()));
        }
        bytes.advance(4);
        let count = bytes.get_u32_le() as usize;
        let mut out = Records::new();
        for _ in 0..count {
            if bytes.remaining() < 2 {
                return Err(DataError::Codec("truncated record name length".into()));
            }
            let name_len = bytes.get_u16_le() as usize;
            if bytes.remaining() < name_len {
                return Err(DataError::Codec("truncated record name".into()));
            }
            let name = std::str::from_utf8(&bytes[..name_len])
                .map_err(|_| DataError::Codec("non-utf8 record name".into()))?
                .to_string();
            bytes.advance(name_len);
            if bytes.remaining() < 8 {
                return Err(DataError::Codec("truncated record size".into()));
            }
            let sz = bytes.get_u64_le() as usize;
            if bytes.remaining() < sz {
                return Err(DataError::Codec("truncated record payload".into()));
            }
            let array = Array::decode(&bytes[..sz])?;
            bytes.advance(sz);
            out.insert(&name, array);
        }
        Ok(out)
    }
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
