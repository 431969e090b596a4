//! Generic data management: one abstract interface, three backends.
//!
//! §4.2 of the paper: "Rather than speculating on all possible scenarios and
//! creating tailored implementations, we have developed an abstract notion of
//! a data interface to support different specific backends. Currently, we use
//! three backends: filesystem, taridx, and redis." Application modules are
//! written against the [`DataStore`] trait and the backend is "a single
//! configuration switch":
//!
//! - [`FsStore`] — plain files under a root directory, with I/O armoring
//!   (bounded retries, atomic rename into place);
//! - [`TarStore`] — one [`taridx::IndexedTar`] archive per namespace,
//!   append-only, for the billion-file problem;
//! - [`KvDataStore`] — key-value storage for high-throughput in-situ
//!   feedback data, over either the in-process [`kvstore`] cluster or the
//!   networked [`storeserver`] tier (loopback or TCP).
//!
//! The namespace-move operation ([`DataStore::move_ns`]) is the paper's
//! frame-tagging primitive: processed items are moved out of the live
//! namespace (file rename / archive append / key rename) so feedback cost
//! "scales only with the number of ongoing simulations, and not with the
//! total simulation frames ever generated."
//!
//! [`codec`] provides the byte-stream encoding of numeric arrays (the
//! "Numpy archive into a byte stream" of §4.2) used by analyses and
//! feedback. [`faults`] wraps any store with deterministic failure
//! injection for resilience testing.

//! ```
//! use datastore::{DataStore, KvDataStore};
//!
//! let mut store = KvDataStore::new(4); // one config switch picks a backend
//! store.write("rdf-new", "sim1:f0", b"frame").unwrap();
//! // Feedback tags the frame by moving it out of the live namespace.
//! store.move_ns("sim1:f0", "rdf-new", "rdf-done").unwrap();
//! assert_eq!(store.count("rdf-new").unwrap(), 0);
//! assert_eq!(store.read("rdf-done", "sim1:f0").unwrap(), b"frame");
//! ```

pub mod codec;
pub mod faults;
mod fs;
mod kv;
mod store;
mod tar;

pub use faults::{FaultWindow, Op, ScheduledFaultStore};
pub use fs::FsStore;
pub use kv::{KvDataStore, RemoteDataStore};
pub use store::DataStore;
pub use tar::TarStore;

use std::fmt;
use std::io;

/// Errors surfaced by data-store operations.
#[derive(Debug)]
pub enum DataError {
    /// Underlying filesystem failure (possibly after exhausting retries).
    Io(io::Error),
    /// Archive-layer failure.
    Tar(taridx::TarError),
    /// Key-value-layer failure.
    Kv(kvstore::KvError),
    /// The requested item does not exist in the namespace.
    NotFound { ns: String, key: String },
    /// Injected fault (testing only).
    Injected(String),
    /// Malformed encoded payload.
    Codec(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "i/o error: {e}"),
            DataError::Tar(e) => write!(f, "archive error: {e}"),
            DataError::Kv(e) => write!(f, "kv error: {e}"),
            DataError::NotFound { ns, key } => write!(f, "not found: {ns}/{key}"),
            DataError::Injected(m) => write!(f, "injected fault: {m}"),
            DataError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            DataError::Tar(e) => Some(e),
            DataError::Kv(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DataError {
    fn from(e: io::Error) -> Self {
        DataError::Io(e)
    }
}

impl From<taridx::TarError> for DataError {
    fn from(e: taridx::TarError) -> Self {
        match e {
            taridx::TarError::KeyNotFound(k) => DataError::NotFound {
                ns: String::new(),
                key: k,
            },
            other => DataError::Tar(other),
        }
    }
}

impl From<kvstore::KvError> for DataError {
    fn from(e: kvstore::KvError) -> Self {
        DataError::Kv(e)
    }
}

/// Convenience alias for data-store results.
pub type Result<T> = std::result::Result<T, DataError>;
