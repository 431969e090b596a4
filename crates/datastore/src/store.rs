//! The abstract data interface.

use crate::Result;

/// Abstract, namespaced binary storage.
///
/// A *namespace* groups related items (e.g. `rdf-new`, `rdf-done`,
/// `patches`); a *key* identifies one item inside it. Implementations map
/// these onto directories/files, archives/members, or key prefixes.
///
/// Methods take `&mut self` because the tar backend keeps seekable file
/// handles; thread-shared use goes through one store per worker or an
/// external lock, mirroring MuMMI's "thread-safe objects … with a mix of
/// blocking and nonblocking locks".
pub trait DataStore: Send {
    /// Writes `data` under `ns/key`, overwriting any existing item.
    fn write(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<()>;

    /// Reads the item at `ns/key`.
    fn read(&mut self, ns: &str, key: &str) -> Result<Vec<u8>>;

    /// Whether `ns/key` exists.
    fn exists(&mut self, ns: &str, key: &str) -> bool;

    /// Lists all keys in `ns`, in ascending lexicographic (byte) order.
    ///
    /// Ordering is part of the contract, not a courtesy: feedback
    /// managers fold over `list` output with order-sensitive running
    /// aggregates, so a backend-dependent order would make campaign
    /// results depend on the storage configuration switch.
    fn list(&mut self, ns: &str) -> Result<Vec<String>>;

    /// Moves `key` from namespace `from` to namespace `to` — the feedback
    /// "tagging" primitive. Fails if the source item does not exist.
    fn move_ns(&mut self, key: &str, from: &str, to: &str) -> Result<()>;

    /// Deletes `ns/key`; returns whether it existed.
    fn delete(&mut self, ns: &str, key: &str) -> Result<bool>;

    /// Persists any buffered state (indices, file syncs).
    fn flush(&mut self) -> Result<()>;

    /// Number of keys in `ns` (default: `list().len()`).
    fn count(&mut self, ns: &str) -> Result<usize> {
        Ok(self.list(ns)?.len())
    }

    /// Bulk read; default loops over [`DataStore::read`]. Backends with
    /// pipelining override this.
    fn read_many(&mut self, ns: &str, keys: &[String]) -> Result<Vec<Vec<u8>>> {
        keys.iter().map(|k| self.read(ns, k)).collect()
    }

    /// Bulk namespace move; default loops over [`DataStore::move_ns`].
    fn move_ns_many(&mut self, keys: &[String], from: &str, to: &str) -> Result<()> {
        for k in keys {
            self.move_ns(k, from, to)?;
        }
        Ok(())
    }
}
