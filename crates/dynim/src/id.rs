//! Payload ids: the names candidates carry from the driver's mint to
//! promotion.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Longest name held inline, in bytes.
const INLINE: usize = 30;

/// An application payload id: a patch, frame or simulation name.
///
/// A name of up to 30 bytes (every id the campaign mints, such as
/// `aa-0000000042`) is held inline, so making, copying and dropping one
/// touches no heap. A longer name is one shared `Arc<str>`, so a copy is
/// a reference-count bump. Equality, order, hashing, `Display` and
/// `Debug` are exactly those of the string, and a map keyed by ids is
/// searched with a `&str`.
#[derive(Clone)]
pub struct PayloadId(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Arc<str>),
}

/// The string an inline buffer holds: it is only ever filled from whole
/// `str`s, so it is UTF-8.
fn inline_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("an inline id holds whole strs")
}

impl PayloadId {
    /// An id naming `name`.
    pub fn new(name: &str) -> PayloadId {
        if name.len() <= INLINE {
            let mut bytes = [0; INLINE];
            bytes[..name.len()].copy_from_slice(name.as_bytes());
            PayloadId(Repr::Inline {
                len: name.len() as u8,
                bytes,
            })
        } else {
            PayloadId(Repr::Heap(Arc::from(name)))
        }
    }

    /// An id written by `args` (`format_args!("aa-{n:010}")`): a name
    /// that fits inline is formatted in place and builds no `String`.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> PayloadId {
        let mut w = IdWriter {
            len: 0,
            bytes: [0; INLINE],
            spill: String::new(),
        };
        // Neither sink can fail.
        let _ = w.write_fmt(args);
        if w.spill.is_empty() {
            PayloadId(Repr::Inline {
                len: w.len as u8,
                bytes: w.bytes,
            })
        } else {
            PayloadId(Repr::Heap(Arc::from(w.spill)))
        }
    }

    /// The name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => inline_str(&bytes[..*len as usize]),
            Repr::Heap(s) => s,
        }
    }

    /// The name's bytes, with no UTF-8 check.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }
}

/// Formats into the inline buffer until a piece no longer fits, then
/// into `spill`, which from then on holds the whole name.
struct IdWriter {
    len: usize,
    bytes: [u8; INLINE],
    spill: String,
}

impl fmt::Write for IdWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.spill.is_empty() && self.len + s.len() <= INLINE {
            self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            if self.spill.is_empty() {
                self.spill.push_str(inline_str(&self.bytes[..self.len]));
            }
            self.spill.push_str(s);
        }
        Ok(())
    }
}

impl Deref for PayloadId {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for PayloadId {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for PayloadId {
    fn eq(&self, other: &PayloadId) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for PayloadId {}

impl PartialOrd for PayloadId {
    fn partial_cmp(&self, other: &PayloadId) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, which is `str`'s order.
impl Ord for PayloadId {
    fn cmp(&self, other: &PayloadId) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for PayloadId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for PayloadId {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for PayloadId {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for PayloadId {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for PayloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for PayloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for PayloadId {
    fn from(name: &str) -> PayloadId {
        PayloadId::new(name)
    }
}

impl From<&String> for PayloadId {
    fn from(name: &String) -> PayloadId {
        PayloadId::new(name)
    }
}

impl From<String> for PayloadId {
    fn from(name: String) -> PayloadId {
        if name.len() <= INLINE {
            PayloadId::new(&name)
        } else {
            PayloadId(Repr::Heap(Arc::from(name)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_are_inline_and_long_ones_shared() {
        let short = PayloadId::new(&"x".repeat(INLINE));
        assert!(matches!(short.0, Repr::Inline { .. }));
        let long = PayloadId::new(&"x".repeat(INLINE + 1));
        assert!(matches!(long.0, Repr::Heap(_)));
        assert_eq!(std::mem::size_of::<PayloadId>(), 32);
    }

    #[test]
    fn formatting_spills_only_past_the_bound() {
        let minted = PayloadId::from_fmt(format_args!("aa-{:010}", 42));
        assert!(matches!(minted.0, Repr::Inline { .. }));
        assert_eq!(minted, "aa-0000000042");
        let long = PayloadId::from_fmt(format_args!("{}-{}", "é".repeat(15), 7));
        assert!(matches!(long.0, Repr::Heap(_)));
        assert_eq!(long.as_str(), format!("{}-7", "é".repeat(15)));
    }
}
