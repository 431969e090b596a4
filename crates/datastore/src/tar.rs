//! Indexed-tar backend: one archive per namespace.
//!
//! This is the paper's inode-reduction strategy: "we had compiled over 1
//! billion files … across 114,552 tar archives — a 9000× reduction in the
//! number of files (and inodes) while retaining efficient random access."

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use taridx::IndexedTar;

use crate::store::DataStore;
use crate::{DataError, Result};

/// A store backed by one [`IndexedTar`] archive per namespace, living under
/// a common root directory as `<root>/<ns>.tar` (+ `.idx` sidecars).
#[derive(Debug)]
pub struct TarStore {
    root: PathBuf,
    // Ordered by namespace so `flush` touches archives in a stable order
    // regardless of open history.
    archives: BTreeMap<String, IndexedTar>,
}

impl TarStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<TarStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(TarStore {
            root,
            archives: BTreeMap::new(),
        })
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn archive(&mut self, ns: &str) -> Result<&mut IndexedTar> {
        match self.archives.entry(ns.to_string()) {
            Entry::Occupied(slot) => Ok(slot.into_mut()),
            Entry::Vacant(slot) => {
                let path = self.root.join(format!("{ns}.tar"));
                let tar = if path.exists() {
                    IndexedTar::open(&path)?
                } else {
                    IndexedTar::create(&path)?
                };
                Ok(slot.insert(tar))
            }
        }
    }
}

impl DataStore for TarStore {
    fn write(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<()> {
        self.archive(ns)?.append(key, data)?;
        Ok(())
    }

    fn read(&mut self, ns: &str, key: &str) -> Result<Vec<u8>> {
        self.archive(ns)?.read(key).map_err(|e| match e {
            taridx::TarError::KeyNotFound(k) => DataError::NotFound {
                ns: ns.to_string(),
                key: k,
            },
            other => DataError::Tar(other),
        })
    }

    fn exists(&mut self, ns: &str, key: &str) -> bool {
        self.archive(ns).map(|a| a.contains(key)).unwrap_or(false)
    }

    fn list(&mut self, ns: &str) -> Result<Vec<String>> {
        Ok(self.archive(ns)?.keys())
    }

    /// Append-to-destination then drop-from-source-index. The payload stays
    /// in the source tar (append-only format) but is no longer referenced —
    /// exactly the paper's "moving files to tar archives" semantics.
    fn move_ns(&mut self, key: &str, from: &str, to: &str) -> Result<()> {
        let data = self.read(from, key)?;
        self.write(to, key, &data)?;
        self.archive(from)?.remove_key(key);
        Ok(())
    }

    fn delete(&mut self, ns: &str, key: &str) -> Result<bool> {
        Ok(self.archive(ns)?.remove_key(key))
    }

    fn flush(&mut self) -> Result<()> {
        for tar in self.archives.values_mut() {
            tar.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> TarStore {
        let dir = std::env::temp_dir().join(format!("tarstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TarStore::open(dir).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store("rt");
        s.write("frames", "f1", b"frame-bytes").unwrap();
        assert_eq!(s.read("frames", "f1").unwrap(), b"frame-bytes");
        assert!(s.exists("frames", "f1"));
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn namespaces_map_to_archives() {
        let mut s = store("ns");
        s.write("a", "k", b"1").unwrap();
        s.write("b", "k", b"2").unwrap();
        s.flush().unwrap();
        assert!(s.root().join("a.tar").is_file());
        assert!(s.root().join("b.tar").is_file());
        assert_eq!(s.read("a", "k").unwrap(), b"1");
        assert_eq!(s.read("b", "k").unwrap(), b"2");
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn move_ns_appends_and_unindexes() {
        let mut s = store("mv");
        s.write("new", "f1", b"rdf").unwrap();
        s.move_ns("f1", "new", "done").unwrap();
        assert!(!s.exists("new", "f1"));
        assert_eq!(s.read("done", "f1").unwrap(), b"rdf");
        assert_eq!(s.count("new").unwrap(), 0);
        std::fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("tarstore-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = TarStore::open(&dir).unwrap();
            s.write("ns", "k", b"v").unwrap();
            s.flush().unwrap();
        }
        let mut s = TarStore::open(&dir).unwrap();
        assert_eq!(s.read("ns", "k").unwrap(), b"v");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_key_is_not_found() {
        let mut s = store("nf");
        assert!(matches!(
            s.read("ns", "ghost"),
            Err(DataError::NotFound { .. })
        ));
        std::fs::remove_dir_all(s.root()).unwrap();
    }
}
