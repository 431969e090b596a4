//! Filesystem backend with I/O armoring.
//!
//! "The simplest data interface accesses the filesystem directly … Where
//! needed, I/O armoring and redundancy is used to guard against filesystem
//! failures, e.g., backups of checkpoint files and retrials if
//! reading/writing fails" (§4.2). This backend implements the retrials:
//! every file operation gets `ATTEMPTS` tries, and writes land through
//! a temporary file renamed into place.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use trace::Tracer;

use crate::store::DataStore;
use crate::{DataError, Result};

/// Attempts per filesystem operation before its error surfaces.
const ATTEMPTS: u32 = 3;

/// Direct-filesystem store: `root/<ns>/<key>` files.
///
/// Writes are armored: data goes to a `.tmp` file that is renamed into
/// place (atomic on POSIX), with up to `ATTEMPTS` tries per operation.
#[derive(Debug)]
pub struct FsStore {
    root: PathBuf,
    tracer: Tracer,
}

impl FsStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<FsStore> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(FsStore {
            root,
            tracer: Tracer::disabled(),
        })
    }

    /// Installs a tracer; reads and writes record per-op events (with the
    /// retry count the armoring consumed) plus `datastore.fs.*` counters.
    /// The event timestamps come from the tracer's virtual clock — keep it
    /// current via [`Tracer::set_now`] (the WM tick does this).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn ns_dir(&self, ns: &str) -> PathBuf {
        self.root.join(ns)
    }

    fn item_path(&self, ns: &str, key: &str) -> PathBuf {
        self.ns_dir(ns).join(key)
    }

    fn retrying<T>(&self, op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        self.retrying_counted(op).map(|(v, _)| v)
    }

    /// Like [`FsStore::retrying`], but also reports how many attempts the
    /// operation consumed (1 = first try succeeded).
    fn retrying_counted<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<(T, u32)> {
        let mut attempt = 1;
        loop {
            match op() {
                Ok(v) => return Ok((v, attempt)),
                Err(e) if attempt >= ATTEMPTS => return Err(e),
                Err(_) => attempt += 1,
            }
        }
    }

    /// Records one store operation (retries = attempts beyond the first).
    fn trace_op(&self, op: &'static str, ns: &str, key: &str, bytes: usize, attempts: u32) {
        if !self.tracer.is_enabled() {
            return;
        }
        let retries = u64::from(attempts.saturating_sub(1));
        self.tracer.instant(
            "datastore",
            &format!("op.{op}"),
            &[
                ("backend", "fs".into()),
                ("ns", ns.into()),
                ("key", key.into()),
                ("bytes", bytes.into()),
                ("retries", retries.into()),
            ],
        );
        self.tracer.counter_add(&format!("datastore.fs.{op}s"), 1);
        if retries > 0 {
            self.tracer.counter_add("datastore.fs.retries", retries);
        }
    }
}

impl DataStore for FsStore {
    fn write(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<()> {
        let dir = self.ns_dir(ns);
        let mut attempts = 0;
        attempts += self.retrying_counted(|| fs::create_dir_all(&dir))?.1;
        let path = self.item_path(ns, key);
        let tmp = dir.join(format!(".{key}.tmp"));
        attempts += self.retrying_counted(|| fs::write(&tmp, data))?.1;
        attempts += self.retrying_counted(|| fs::rename(&tmp, &path))?.1;
        // Each write is 3 armored steps; report retries beyond one
        // attempt per step.
        self.trace_op("write", ns, key, data.len(), attempts - 2);
        Ok(())
    }

    fn read(&mut self, ns: &str, key: &str) -> Result<Vec<u8>> {
        let path = self.item_path(ns, key);
        match self.retrying_counted(|| fs::read(&path)) {
            Ok((data, attempts)) => {
                self.trace_op("read", ns, key, data.len(), attempts);
                Ok(data)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(DataError::NotFound {
                ns: ns.to_string(),
                key: key.to_string(),
            }),
            Err(e) => Err(DataError::Io(e)),
        }
    }

    fn exists(&mut self, ns: &str, key: &str) -> bool {
        self.item_path(ns, key).is_file()
    }

    fn list(&mut self, ns: &str) -> Result<Vec<String>> {
        let dir = self.ns_dir(ns);
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                // Skip in-flight `.tmp` writes.
                if name.starts_with('.') {
                    continue;
                }
                out.push(name.to_string());
            }
        }
        // `read_dir` order is filesystem-dependent; the trait promises
        // lexicographic order.
        out.sort_unstable();
        Ok(out)
    }

    fn move_ns(&mut self, key: &str, from: &str, to: &str) -> Result<()> {
        let src = self.item_path(from, key);
        if !src.is_file() {
            return Err(DataError::NotFound {
                ns: from.to_string(),
                key: key.to_string(),
            });
        }
        let dst_dir = self.ns_dir(to);
        self.retrying(|| fs::create_dir_all(&dst_dir))?;
        let dst = self.item_path(to, key);
        self.retrying(|| fs::rename(&src, &dst))?;
        Ok(())
    }

    fn delete(&mut self, ns: &str, key: &str) -> Result<bool> {
        let path = self.item_path(ns, key);
        match fs::remove_file(path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(DataError::Io(e)),
        }
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(tag: &str) -> FsStore {
        let dir = std::env::temp_dir().join(format!("fsstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        FsStore::open(dir).unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store("rt");
        s.write("patches", "p-0001", b"bytes").unwrap();
        assert_eq!(s.read("patches", "p-0001").unwrap(), b"bytes");
        assert!(s.exists("patches", "p-0001"));
        assert!(!s.exists("patches", "p-0002"));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn missing_read_is_not_found() {
        let mut s = store("nf");
        assert!(matches!(
            s.read("ns", "nope"),
            Err(DataError::NotFound { .. })
        ));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn list_skips_artifacts() {
        let mut s = store("list");
        s.write("ns", "b", b"1").unwrap();
        s.write("ns", "a", b"2").unwrap();
        fs::write(s.root().join("ns/.c.tmp"), b"torn").unwrap();
        assert_eq!(s.list("ns").unwrap(), vec!["a", "b"]);
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn list_of_missing_namespace_is_empty() {
        let mut s = store("empty");
        assert!(s.list("void").unwrap().is_empty());
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn move_ns_relocates_item() {
        let mut s = store("mv");
        s.write("rdf-new", "f1", b"rdf").unwrap();
        s.move_ns("f1", "rdf-new", "rdf-done").unwrap();
        assert!(!s.exists("rdf-new", "f1"));
        assert_eq!(s.read("rdf-done", "f1").unwrap(), b"rdf");
        assert!(matches!(
            s.move_ns("f1", "rdf-new", "rdf-done"),
            Err(DataError::NotFound { .. })
        ));
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn delete_reports_existence() {
        let mut s = store("del");
        s.write("ns", "k", b"v").unwrap();
        assert!(s.delete("ns", "k").unwrap());
        assert!(!s.delete("ns", "k").unwrap());
        fs::remove_dir_all(s.root()).unwrap();
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut s = store("ow");
        s.write("ns", "k", b"old").unwrap();
        s.write("ns", "k", b"new").unwrap();
        assert_eq!(s.read("ns", "k").unwrap(), b"new");
        fs::remove_dir_all(s.root()).unwrap();
    }
}
