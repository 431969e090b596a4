//! The `IndexedTar` archive: append-only writes, random-access reads.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::header::{TarHeader, BLOCK_SIZE};
use crate::index::{Index, IndexEntry};
use crate::{Result, TarError};

/// An indexed tar archive opened for appending and random-access reading.
///
/// The file layout is a standard ustar stream: for each member, a 512-byte
/// header followed by the payload padded to a block boundary. Two trailing
/// zero blocks terminate the archive; appends overwrite the terminator and
/// re-write it after the new member, so the file is always a valid tar.
#[derive(Debug)]
pub struct IndexedTar {
    file: File,
    path: PathBuf,
    index: Index,
    /// Byte offset where the next member header will be written (i.e. where
    /// the end-of-archive terminator currently starts).
    end: u64,
}

impl IndexedTar {
    /// Creates a new, empty archive at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<IndexedTar> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // Terminator for an empty archive.
        file.write_all(&[0u8; BLOCK_SIZE * 2])?;
        Ok(IndexedTar {
            file,
            path,
            index: Index::new(),
            end: 0,
        })
    }

    /// Opens an existing archive, loading the sidecar index if present and
    /// rebuilding it from the tar stream otherwise.
    pub fn open(path: impl AsRef<Path>) -> Result<IndexedTar> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut tar = IndexedTar {
            file,
            path,
            index: Index::new(),
            end: 0,
        };
        let idx_path = tar.index_path();
        match Index::load(&idx_path) {
            Ok(idx) => {
                tar.index = idx;
                // End offset = after the last member recorded in the scan;
                // scanning is still needed to find the append point, but we
                // can trust the index for reads immediately.
                tar.end = tar.scan_end_offset()?;
            }
            Err(_) => {
                tar.recover_index()?;
            }
        }
        Ok(tar)
    }

    /// Path of the sidecar index file.
    fn index_path(&self) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(".idx");
        PathBuf::from(os)
    }

    /// Path of the archive itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no live keys exist.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is live in the index.
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains(key)
    }

    /// Live keys, in ascending lexicographic order.
    pub fn keys(&self) -> Vec<String> {
        self.index.keys().map(str::to_string).collect()
    }

    /// Total member records ever appended (including superseded re-inserts).
    pub fn appended(&self) -> usize {
        self.index.appended()
    }

    /// Appends a member. If `key` already exists the new copy supersedes the
    /// old one in the index (the old payload stays in the file, unreferenced).
    pub fn append(&mut self, key: &str, data: &[u8]) -> Result<()> {
        let header = TarHeader::encode(key, data.len() as u64, 0)?;
        let data_offset = self.end + BLOCK_SIZE as u64;
        let padded = TarHeader::data_blocks(data.len() as u64) * BLOCK_SIZE as u64;

        self.file.seek(SeekFrom::Start(self.end))?;
        self.file.write_all(&header)?;
        self.file.write_all(data)?;
        let pad = padded - data.len() as u64;
        if pad > 0 {
            self.file.write_all(&vec![0u8; pad as usize])?;
        }
        // Re-write the end-of-archive terminator after the new member.
        self.file.write_all(&[0u8; BLOCK_SIZE * 2])?;

        self.end = data_offset + padded;
        self.index.insert(
            key,
            IndexEntry {
                offset: data_offset,
                size: data.len() as u64,
            },
        );
        Ok(())
    }

    /// Reads the live payload for `key`.
    pub fn read(&mut self, key: &str) -> Result<Vec<u8>> {
        let entry = self
            .index
            .get(key)
            .ok_or_else(|| TarError::KeyNotFound(key.to_string()))?;
        self.read_entry(entry)
    }

    /// Reads a payload by its index entry (used for bulk scans).
    fn read_entry(&mut self, entry: IndexEntry) -> Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(entry.offset))?;
        let mut buf = vec![0u8; entry.size as usize];
        self.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Looks up the index entry for `key` without reading the payload.
    pub fn entry(&self, key: &str) -> Option<IndexEntry> {
        self.index.get(key)
    }

    /// Removes `key` from the live index; the payload remains in the file.
    pub fn remove_key(&mut self, key: &str) -> bool {
        self.index.remove(key).is_some()
    }

    /// Persists the sidecar index and syncs archive data to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.file.flush()?;
        self.index.save(&self.index_path())?;
        Ok(())
    }

    /// Rebuilds the index by scanning tar headers from the start of the
    /// file — the recovery path when the sidecar is missing or corrupt.
    /// Re-inserted keys resolve to their **last** occurrence.
    pub fn recover_index(&mut self) -> Result<()> {
        self.index = Index::new();
        self.end = 0;
        let mut offset = 0u64;
        let file_len = self.file.metadata()?.len();
        let mut block = [0u8; BLOCK_SIZE];
        while offset + BLOCK_SIZE as u64 <= file_len {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(&mut block)?;
            match TarHeader::decode(&block)? {
                None => break, // end-of-archive marker
                Some(h) => {
                    let data_offset = offset + BLOCK_SIZE as u64;
                    self.index.insert(
                        &h.name,
                        IndexEntry {
                            offset: data_offset,
                            size: h.size,
                        },
                    );
                    offset = data_offset + TarHeader::data_blocks(h.size) * BLOCK_SIZE as u64;
                    self.end = offset;
                }
            }
        }
        Ok(())
    }

    /// Scans headers to locate the append point without touching the index.
    fn scan_end_offset(&mut self) -> Result<u64> {
        let mut offset = 0u64;
        let file_len = self.file.metadata()?.len();
        let mut block = [0u8; BLOCK_SIZE];
        let mut end = 0u64;
        while offset + BLOCK_SIZE as u64 <= file_len {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(&mut block)?;
            match TarHeader::decode(&block)? {
                None => break,
                Some(h) => {
                    offset +=
                        BLOCK_SIZE as u64 + TarHeader::data_blocks(h.size) * BLOCK_SIZE as u64;
                    end = offset;
                }
            }
        }
        Ok(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("taridx-arch-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tmpdir("rt");
        let mut tar = IndexedTar::create(dir.join("a.tar")).unwrap();
        tar.append("one", b"payload-1").unwrap();
        tar.append("two", &vec![7u8; 5000]).unwrap();
        assert_eq!(tar.read("one").unwrap(), b"payload-1");
        assert_eq!(tar.read("two").unwrap(), vec![7u8; 5000]);
        assert_eq!(tar.len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_key_errors() {
        let dir = tmpdir("miss");
        let mut tar = IndexedTar::create(dir.join("a.tar")).unwrap();
        assert!(matches!(tar.read("nope"), Err(TarError::KeyNotFound(_))));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reinsert_supersedes() {
        let dir = tmpdir("re");
        let mut tar = IndexedTar::create(dir.join("a.tar")).unwrap();
        tar.append("k", b"old").unwrap();
        tar.append("k", b"new-value").unwrap();
        assert_eq!(tar.read("k").unwrap(), b"new-value");
        assert_eq!(tar.len(), 1);
        assert_eq!(tar.appended(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn reopen_with_index_preserves_content_and_appends() {
        let dir = tmpdir("reopen");
        let p = dir.join("a.tar");
        {
            let mut tar = IndexedTar::create(&p).unwrap();
            tar.append("x", b"xx").unwrap();
            tar.flush().unwrap();
        }
        {
            let mut tar = IndexedTar::open(&p).unwrap();
            assert_eq!(tar.read("x").unwrap(), b"xx");
            tar.append("y", b"yy").unwrap();
            tar.flush().unwrap();
        }
        let mut tar = IndexedTar::open(&p).unwrap();
        assert_eq!(tar.read("x").unwrap(), b"xx");
        assert_eq!(tar.read("y").unwrap(), b"yy");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_rebuilds_index_after_sidecar_loss() {
        let dir = tmpdir("recover");
        let p = dir.join("a.tar");
        {
            let mut tar = IndexedTar::create(&p).unwrap();
            tar.append("a", b"alpha").unwrap();
            tar.append("b", b"beta").unwrap();
            tar.append("a", b"alpha-2").unwrap(); // re-insert: last must win
            tar.flush().unwrap();
        }
        fs::remove_file(format!("{}.idx", p.display())).unwrap();
        let mut tar = IndexedTar::open(&p).unwrap();
        assert_eq!(tar.len(), 2);
        assert_eq!(tar.read("a").unwrap(), b"alpha-2");
        assert_eq!(tar.read("b").unwrap(), b"beta");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn remove_key_hides_data_without_truncating() {
        let dir = tmpdir("rm");
        let p = dir.join("a.tar");
        let mut tar = IndexedTar::create(&p).unwrap();
        tar.append("hide", b"secret").unwrap();
        let size_before = fs::metadata(&p).unwrap().len();
        assert!(tar.remove_key("hide"));
        assert!(!tar.remove_key("hide"));
        assert!(matches!(tar.read("hide"), Err(TarError::KeyNotFound(_))));
        assert_eq!(fs::metadata(&p).unwrap().len(), size_before);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn archive_is_standard_tar() {
        // Validate the terminator and per-member layout by re-scanning with
        // the decoder alone (what an external `tar` does).
        let dir = tmpdir("std");
        let p = dir.join("a.tar");
        let mut tar = IndexedTar::create(&p).unwrap();
        tar.append("m1", &vec![1u8; 700]).unwrap();
        tar.append("m2", b"").unwrap();
        tar.flush().unwrap();
        drop(tar);

        let bytes = fs::read(&p).unwrap();
        assert_eq!(bytes.len() % BLOCK_SIZE, 0);
        // Member 1 header at 0, data 512..1212, padded to 1536.
        let h1: [u8; BLOCK_SIZE] = bytes[0..512].try_into().unwrap();
        let h1 = TarHeader::decode(&h1).unwrap().unwrap();
        assert_eq!((h1.name.as_str(), h1.size), ("m1", 700));
        // Member 2 header after 2 data blocks.
        let off2 = 512 + 1024;
        let h2: [u8; BLOCK_SIZE] = bytes[off2..off2 + 512].try_into().unwrap();
        let h2 = TarHeader::decode(&h2).unwrap().unwrap();
        assert_eq!((h2.name.as_str(), h2.size), ("m2", 0));
        // Terminator: two zero blocks after member 2's header.
        let term = off2 + 512;
        assert!(bytes[term..term + 1024].iter().all(|&b| b == 0));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn identical_writes_produce_identical_bytes() {
        // Archive bytes are a pure function of (keys, payloads): member
        // mtimes are zero, so no wall clock leaks into the format.
        let dir = tmpdir("det");
        let write = |name: &str| -> Vec<u8> {
            let p = dir.join(name);
            let mut tar = IndexedTar::create(&p).unwrap();
            tar.append("a", b"alpha").unwrap();
            tar.append("b", &vec![9u8; 1000]).unwrap();
            tar.flush().unwrap();
            fs::read(&p).unwrap()
        };
        assert_eq!(write("one.tar"), write("two.tar"));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn empty_payloads_are_allowed() {
        let dir = tmpdir("empty");
        let mut tar = IndexedTar::create(dir.join("a.tar")).unwrap();
        tar.append("nil", b"").unwrap();
        assert_eq!(tar.read("nil").unwrap(), Vec::<u8>::new());
        fs::remove_dir_all(dir).unwrap();
    }
}
