//! The RAM-disk / parallel-filesystem tier pair.
//!
//! §6 "Responsible Use of Shared Resources": "MuMMI employs a conscious
//! mix of the shared filesystem and local on-node RAM disk, which
//! alleviates its footprint by reducing frequency of high-bandwidth file
//! I/O operations" — e.g. backmapping "produces 2.9 GB data every 2 hours
//! on the local on-node RAM disk and about 0.5 GB data is backed up to
//! GPFS".
//!
//! [`TieredStore`] composes two backends: a **fast** tier absorbing all
//! traffic and a **durable** tier receiving write-through copies of the
//! namespaces that matter after the node dies (checkpoints, selected
//! frames). Reads prefer the fast tier and fall back to the durable one —
//! the recovery path after a node loss wipes the RAM disk.

use crate::store::DataStore;
use crate::{DataError, Result};

/// A two-tier store: fast front, durable back.
pub struct TieredStore<F: DataStore, D: DataStore> {
    fast: F,
    durable: D,
    /// Namespaces that are written through to the durable tier. Everything
    /// else lives only in the fast tier (scratch data).
    durable_namespaces: Vec<String>,
    writes_fast: u64,
    writes_durable: u64,
    fallback_reads: u64,
}

impl<F: DataStore, D: DataStore> TieredStore<F, D> {
    /// Composes the tiers; `durable_namespaces` are written through.
    pub fn new(fast: F, durable: D, durable_namespaces: &[&str]) -> TieredStore<F, D> {
        TieredStore {
            fast,
            durable,
            durable_namespaces: durable_namespaces.iter().map(|s| s.to_string()).collect(),
            writes_fast: 0,
            writes_durable: 0,
            fallback_reads: 0,
        }
    }

    fn is_durable(&self, ns: &str) -> bool {
        self.durable_namespaces.iter().any(|d| d == ns)
    }

    /// (fast writes, durable writes) — the paper's 2.9 GB vs 0.5 GB split
    /// is visible here as a write-count ratio.
    pub fn write_counts(&self) -> (u64, u64) {
        (self.writes_fast, self.writes_durable)
    }

    /// Reads that had to fall back to the durable tier.
    pub fn fallback_reads(&self) -> u64 {
        self.fallback_reads
    }

    /// Simulates losing the node: the fast tier's contents vanish.
    /// Durable namespaces remain readable through the fallback path.
    pub fn lose_fast_tier(&mut self) -> Result<()>
    where
        F: Default,
    {
        self.fast = F::default();
        Ok(())
    }

    /// Direct access to the durable tier (e.g. for post-campaign archival).
    pub fn durable_mut(&mut self) -> &mut D {
        &mut self.durable
    }
}

impl<F: DataStore, D: DataStore> DataStore for TieredStore<F, D> {
    fn write(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<()> {
        self.fast.write(ns, key, data)?;
        self.writes_fast += 1;
        if self.is_durable(ns) {
            self.durable.write(ns, key, data)?;
            self.writes_durable += 1;
        }
        Ok(())
    }

    fn read(&mut self, ns: &str, key: &str) -> Result<Vec<u8>> {
        match self.fast.read(ns, key) {
            Ok(v) => Ok(v),
            Err(DataError::NotFound { .. }) if self.is_durable(ns) => {
                self.fallback_reads += 1;
                self.durable.read(ns, key)
            }
            Err(e) => Err(e),
        }
    }

    fn exists(&mut self, ns: &str, key: &str) -> bool {
        self.fast.exists(ns, key) || (self.is_durable(ns) && self.durable.exists(ns, key))
    }

    fn list(&mut self, ns: &str) -> Result<Vec<String>> {
        let mut keys = self.fast.list(ns)?;
        if self.is_durable(ns) {
            for k in self.durable.list(ns)? {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            // The union of two sorted tiers is not sorted; restore the
            // trait's lexicographic order.
            keys.sort_unstable();
        }
        Ok(keys)
    }

    fn move_ns(&mut self, key: &str, from: &str, to: &str) -> Result<()> {
        // Move in the fast tier; mirror the move durably where applicable.
        let data = self.read(from, key)?;
        self.write(to, key, &data)?;
        let _ = self.fast.delete(from, key)?;
        if self.is_durable(from) {
            let _ = self.durable.delete(from, key)?;
        }
        Ok(())
    }

    fn delete(&mut self, ns: &str, key: &str) -> Result<bool> {
        let fast = self.fast.delete(ns, key)?;
        let durable = if self.is_durable(ns) {
            self.durable.delete(ns, key)?
        } else {
            false
        };
        Ok(fast || durable)
    }

    fn flush(&mut self) -> Result<()> {
        self.fast.flush()?;
        self.durable.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::KvDataStore;

    fn tiered() -> TieredStore<KvDataStore, KvDataStore> {
        TieredStore::new(
            KvDataStore::new(4),
            KvDataStore::new(4),
            &["checkpoints", "aa-input"],
        )
    }

    #[test]
    fn scratch_stays_fast_durable_is_mirrored() {
        let mut s = tiered();
        s.write("scratch", "traj", &vec![0u8; 1000]).unwrap();
        s.write("checkpoints", "ckpt-1", b"state").unwrap();
        let (fast, durable) = s.write_counts();
        assert_eq!((fast, durable), (2, 1));
        // Both readable through the tier.
        assert_eq!(s.read("scratch", "traj").unwrap().len(), 1000);
        assert_eq!(s.read("checkpoints", "ckpt-1").unwrap(), b"state");
        // The durable tier holds only the checkpoint.
        assert!(s.durable_mut().exists("checkpoints", "ckpt-1"));
        assert!(!s.durable_mut().exists("scratch", "traj"));
    }

    #[test]
    fn node_loss_keeps_durable_namespaces() {
        let mut s = tiered();
        s.write("scratch", "traj", b"big trajectory").unwrap();
        s.write("checkpoints", "ckpt-1", b"state").unwrap();
        s.lose_fast_tier().unwrap();
        // Scratch is gone; the checkpoint survives via fallback reads.
        assert!(matches!(
            s.read("scratch", "traj"),
            Err(DataError::NotFound { .. })
        ));
        assert_eq!(s.read("checkpoints", "ckpt-1").unwrap(), b"state");
        assert_eq!(s.fallback_reads(), 1);
        assert!(s.exists("checkpoints", "ckpt-1"));
        assert_eq!(s.list("checkpoints").unwrap(), vec!["ckpt-1"]);
    }

    #[test]
    fn move_ns_works_across_tiers() {
        let mut s = tiered();
        s.write("aa-input", "sys-1", b"backmapped").unwrap();
        s.move_ns("sys-1", "aa-input", "scratch").unwrap();
        assert!(!s.exists("aa-input", "sys-1"));
        assert_eq!(s.read("scratch", "sys-1").unwrap(), b"backmapped");
        // The durable copy of the source was cleaned up too.
        assert!(!s.durable_mut().exists("aa-input", "sys-1"));
    }

    #[test]
    fn delete_covers_both_tiers() {
        let mut s = tiered();
        s.write("checkpoints", "c", b"x").unwrap();
        assert!(s.delete("checkpoints", "c").unwrap());
        assert!(!s.exists("checkpoints", "c"));
        assert!(!s.durable_mut().exists("checkpoints", "c"));
        assert!(!s.delete("checkpoints", "c").unwrap());
    }
}
