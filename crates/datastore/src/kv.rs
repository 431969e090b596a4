//! Key-value backend over either key-value engine the workspace ships.
//!
//! Item `ns/key` maps to key `ns:{key}` — the user key is the hash tag, so
//! all namespaces of the same item co-locate on one shard and
//! [`DataStore::move_ns`] is a single-shard atomic rename. This is how the
//! CG→continuum feedback marks frames as processed without touching GPFS.
//!
//! Two engines sit behind the one adapter, chosen at construction:
//!
//! - the in-process [`kvstore`] cluster ([`KvDataStore::new`],
//!   [`KvDataStore::over`], [`KvDataStore::over_with_latency`]), whose
//!   client can charge a virtual network-latency model;
//! - the networked [`storeserver`] tier through a
//!   [`storeserver::StoreClient`] ([`KvDataStore::loopback`],
//!   [`KvDataStore::connect`]): every op travels as a wire frame, either
//!   through the deterministic in-process loopback transport (the campaign
//!   path: no sockets, no threads, no latency model) or over TCP to a
//!   durable, crash-recoverable server. Bulk reads are one `get_many`
//!   round trip and listing is a server-side glob.
//!
//! Both engines speak the same key mapping and the same `datastore.kv.*`
//! trace vocabulary (the counters describe the *operation mix*, which is
//! transport-independent), so a campaign traces byte-identical on either
//! (pinned by `campaign/tests/netstore.rs`).

use std::net::SocketAddr;
use std::sync::Arc;

use bytes::Bytes;
use kvstore::{Client, Cluster, KvError, LatencyModel};
use storeserver::{StoreClient, StoreEngine, StoreError};
use trace::Tracer;

use crate::store::DataStore;
use crate::{DataError, Result};

/// The engine one [`KvDataStore`] drives.
enum Engine {
    /// The in-process cluster.
    Local(Client),
    /// The store tier over the wire protocol.
    Wire(StoreClient),
}

/// A store backed by a key-value engine: the in-process cluster or the
/// networked store tier.
pub struct KvDataStore {
    engine: Engine,
    tracer: Tracer,
}

/// Former name of the wire-engine adapter, now [`KvDataStore::loopback`]
/// and [`KvDataStore::connect`]. Its last user is
/// `benchmark/src/layers/service.rs:65`, which names the type.
pub type RemoteDataStore = KvDataStore;

impl std::fmt::Debug for KvDataStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvDataStore").finish_non_exhaustive()
    }
}

impl Default for KvDataStore {
    /// A fresh four-shard cluster (handy for scratch tiers and tests).
    fn default() -> Self {
        KvDataStore::new(4)
    }
}

impl KvDataStore {
    fn with_engine(engine: Engine) -> KvDataStore {
        KvDataStore {
            engine,
            tracer: Tracer::disabled(),
        }
    }

    /// Creates a store over a fresh cluster of `shards` shards.
    pub fn new(shards: usize) -> KvDataStore {
        KvDataStore::over(Cluster::new(shards))
    }

    /// Creates a store over an existing cluster (shared with other
    /// components, as on the 4000-node run where all compute nodes mapped
    /// onto 20 Redis nodes).
    pub fn over(cluster: Arc<Cluster>) -> KvDataStore {
        KvDataStore::with_engine(Engine::Local(Client::new(cluster)))
    }

    /// Same, with a network latency model for throughput studies.
    pub fn over_with_latency(cluster: Arc<Cluster>, latency: LatencyModel) -> KvDataStore {
        KvDataStore::with_engine(Engine::Local(Client::with_latency(cluster, latency)))
    }

    /// A deterministic in-process store tier: a fresh memory-only engine
    /// of `shards` shards behind the loopback transport. The drop-in
    /// replacement for [`KvDataStore::new`] on the campaign path.
    pub fn loopback(shards: usize) -> KvDataStore {
        let engine = Arc::new(StoreEngine::in_memory(shards));
        KvDataStore::with_engine(Engine::Wire(StoreClient::loopback(engine)))
    }

    /// Connects to a store server over TCP.
    pub fn connect(addr: SocketAddr) -> std::io::Result<KvDataStore> {
        Ok(KvDataStore::with_engine(Engine::Wire(
            StoreClient::connect(addr)?,
        )))
    }

    /// Installs a tracer; each operation bumps a `datastore.kv.*` counter
    /// and feeds its virtual network latency (from the in-process client's
    /// latency model, in nanoseconds) into the `datastore.kv.op_ns`
    /// histogram. The wire client has no latency model, so on that engine
    /// the histogram never observes.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The in-process client (for virtual-time accounting in benchmarks);
    /// `None` on the wire engine.
    pub fn client(&self) -> Option<&Client> {
        match &self.engine {
            Engine::Local(client) => Some(client),
            Engine::Wire(_) => None,
        }
    }

    /// Virtual nanoseconds the in-process client has charged so far (0 on
    /// the wire engine).
    fn virtual_ns(&self) -> u64 {
        self.client().map_or(0, Client::virtual_ns)
    }

    /// Records one store operation: the op counter plus the virtual
    /// nanoseconds it cost (delta of the client's accumulator).
    fn trace_op(&self, op: &'static str, ns_before: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.counter_add(&format!("datastore.kv.{op}s"), 1);
        let delta = self.virtual_ns().saturating_sub(ns_before);
        if delta > 0 {
            self.tracer.observe("datastore.kv.op_ns", delta);
        }
    }

    fn full_key(ns: &str, key: &str) -> String {
        format!("{ns}:{{{key}}}")
    }

    fn strip_ns(ns: &str, full: &str) -> Option<String> {
        let prefix = format!("{ns}:{{");
        full.strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix('}'))
            .map(str::to_string)
    }
}

/// Maps a wire error onto the error the in-process engine would raise.
fn lift(e: StoreError) -> DataError {
    match e {
        StoreError::Io(e) => DataError::Io(e),
        StoreError::NoSuchKey(k) => DataError::Kv(KvError::NoSuchKey(k)),
        StoreError::CrossShardRename { from, to } => {
            DataError::Kv(KvError::CrossShardRename { from, to })
        }
        other => DataError::Io(std::io::Error::other(other.to_string())),
    }
}

fn not_found(ns: &str, key: &str) -> DataError {
    DataError::NotFound {
        ns: ns.to_string(),
        key: key.to_string(),
    }
}

impl DataStore for KvDataStore {
    fn write(&mut self, ns: &str, key: &str, data: &[u8]) -> Result<()> {
        let before = self.virtual_ns();
        let (full, value) = (Self::full_key(ns, key), Bytes::copy_from_slice(data));
        match &mut self.engine {
            Engine::Local(c) => c.set(&full, value),
            Engine::Wire(c) => {
                c.put(&full, value).map_err(lift)?;
            }
        }
        self.trace_op("write", before);
        Ok(())
    }

    fn read(&mut self, ns: &str, key: &str) -> Result<Vec<u8>> {
        let before = self.virtual_ns();
        let full = Self::full_key(ns, key);
        let got = match &mut self.engine {
            Engine::Local(c) => c.get(&full),
            Engine::Wire(c) => c.get(&full).map_err(lift)?,
        };
        self.trace_op("read", before);
        got.map(|b| b.to_vec()).ok_or_else(|| not_found(ns, key))
    }

    fn exists(&mut self, ns: &str, key: &str) -> bool {
        let full = Self::full_key(ns, key);
        match &mut self.engine {
            Engine::Local(c) => c.exists(&full),
            Engine::Wire(c) => c.exists(&full).unwrap_or(false),
        }
    }

    fn list(&mut self, ns: &str) -> Result<Vec<String>> {
        let pattern = format!("{ns}:{{*");
        let full = match &mut self.engine {
            Engine::Local(c) => c.keys(&pattern),
            Engine::Wire(c) => c.keys(&pattern).map_err(lift)?,
        };
        let mut keys: Vec<String> = full.iter().filter_map(|k| Self::strip_ns(ns, k)).collect();
        // Scans return keys grouped by shard; the trait promises
        // lexicographic order.
        keys.sort_unstable();
        Ok(keys)
    }

    fn move_ns(&mut self, key: &str, from: &str, to: &str) -> Result<()> {
        let before = self.virtual_ns();
        let (src, dst) = (Self::full_key(from, key), Self::full_key(to, key));
        let renamed = match &mut self.engine {
            Engine::Local(c) => c.rename(&src, &dst).map_err(DataError::Kv),
            Engine::Wire(c) => c.rename(&src, &dst).map_err(lift),
        };
        self.trace_op("move", before);
        renamed.map_err(|e| match e {
            DataError::Kv(KvError::NoSuchKey(_)) => not_found(from, key),
            other => other,
        })
    }

    fn delete(&mut self, ns: &str, key: &str) -> Result<bool> {
        let full = Self::full_key(ns, key);
        match &mut self.engine {
            Engine::Local(c) => Ok(c.del(&full)),
            Engine::Wire(c) => c.del(&full).map_err(lift),
        }
    }

    fn flush(&mut self) -> Result<()> {
        match &mut self.engine {
            Engine::Local(_) => Ok(()),
            // The wire durability barrier (a no-op on a memory-only engine).
            Engine::Wire(c) => c.sync().map_err(lift),
        }
    }

    fn read_many(&mut self, ns: &str, keys: &[String]) -> Result<Vec<Vec<u8>>> {
        let full: Vec<String> = keys.iter().map(|k| Self::full_key(ns, k)).collect();
        let before = self.virtual_ns();
        let vals = match &mut self.engine {
            Engine::Local(c) => c.mget(&full),
            Engine::Wire(c) => c.get_many(full).map_err(lift)?,
        };
        self.trace_op("read_many", before);
        keys.iter()
            .zip(vals)
            .map(|(k, v)| v.map(|b| b.to_vec()).ok_or_else(|| not_found(ns, k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_namespacing() {
        let mut s = KvDataStore::new(8);
        s.write("rdf-new", "sim1:f1", b"data").unwrap();
        s.write("other", "sim1:f1", b"other-data").unwrap();
        assert_eq!(s.read("rdf-new", "sim1:f1").unwrap(), b"data");
        assert_eq!(s.read("other", "sim1:f1").unwrap(), b"other-data");
        let keys = s.list("rdf-new").unwrap();
        assert_eq!(keys, vec!["sim1:f1"]);
    }

    #[test]
    fn move_ns_is_single_shard_rename() {
        let mut s = KvDataStore::new(20);
        for i in 0..100 {
            s.write("new", &format!("f{i}"), b"x").unwrap();
        }
        for i in 0..100 {
            s.move_ns(&format!("f{i}"), "new", "done").unwrap();
        }
        assert_eq!(s.count("new").unwrap(), 0);
        assert_eq!(s.count("done").unwrap(), 100);
    }

    #[test]
    fn missing_key_errors() {
        let mut s = KvDataStore::new(4);
        assert!(matches!(s.read("ns", "k"), Err(DataError::NotFound { .. })));
        assert!(matches!(
            s.move_ns("k", "a", "b"),
            Err(DataError::NotFound { .. })
        ));
        assert!(!s.delete("ns", "k").unwrap());
    }

    #[test]
    fn read_many_pipelines() {
        let mut s = KvDataStore::new(4);
        let keys: Vec<String> = (0..50).map(|i| format!("f{i}")).collect();
        for (i, k) in keys.iter().enumerate() {
            s.write("ns", k, &[i as u8]).unwrap();
        }
        let vals = s.read_many("ns", &keys).unwrap();
        assert_eq!(vals.len(), 50);
        assert_eq!(vals[7], vec![7u8]);
    }

    #[test]
    fn shared_cluster_sees_writes_from_clones() {
        let cluster = Cluster::new(4);
        let mut a = KvDataStore::over(Arc::clone(&cluster));
        let mut b = KvDataStore::over(cluster);
        a.write("ns", "k", b"v").unwrap();
        assert_eq!(b.read("ns", "k").unwrap(), b"v");
    }

    /// Every op, run against both engines: results (including error
    /// shapes and list order) must agree — the differential oracle for
    /// transport independence.
    #[test]
    fn remote_loopback_matches_in_process_kv() {
        let mut local = KvDataStore::new(20);
        let mut wire = KvDataStore::loopback(20);
        let mut both = |f: &dyn Fn(&mut dyn DataStore) -> String| {
            assert_eq!(f(&mut local), f(&mut wire));
        };

        for i in 0..50 {
            both(&|s| format!("{:?}", s.write("rdf-new", &format!("s{i}:f0"), &[i as u8])));
        }
        both(&|s| format!("{:?}", s.list("rdf-new")));
        both(&|s| format!("{:?}", s.read("rdf-new", "s7:f0")));
        both(&|s| format!("{:?}", s.read("rdf-new", "missing")));
        both(&|s| format!("{}", s.exists("rdf-new", "s3:f0")));
        for i in 0..25 {
            both(&|s| {
                format!(
                    "{:?}",
                    s.move_ns(&format!("s{i}:f0"), "rdf-new", "rdf-done")
                )
            });
        }
        both(&|s| format!("{:?}", s.move_ns("missing", "rdf-new", "rdf-done")));
        both(&|s| format!("{}", s.exists("rdf-new", "s3:f0")));
        both(&|s| format!("{}", s.exists("rdf-done", "s3:f0")));
        let keys: Vec<String> = (20..30).map(|i| format!("s{i}:f0")).collect();
        both(&|s| format!("{:?}", s.read_many("rdf-new", &keys)));
        both(&|s| format!("{:?}", s.delete("rdf-new", "s30:f0")));
        both(&|s| format!("{:?}", s.delete("rdf-new", "s30:f0")));
        both(&|s| format!("{:?}", s.count("rdf-done")));
        let batch: Vec<String> = (31..40).map(|i| format!("s{i}:f0")).collect();
        both(&|s| format!("{:?}", s.move_ns_many(&batch, "rdf-new", "rdf-done")));
        both(&|s| format!("{:?}", s.list("rdf-done")));
        // A batch that hits an already-moved key stops there, on both.
        both(&|s| format!("{:?}", s.move_ns_many(&batch, "rdf-new", "rdf-old")));
        both(&|s| format!("{:?}", s.count("never-written")));
        both(&|s| format!("{:?}", s.flush()));
    }

    /// One op script on each engine emits the same `datastore.kv.*`
    /// counter lines.
    #[test]
    fn traces_share_the_kv_vocabulary() {
        let counters = |mut store: KvDataStore| {
            let tracer = Tracer::enabled();
            store.set_tracer(tracer.clone());
            store.write("ns", "k", b"v").unwrap();
            store.write("ns", "k2", b"v").unwrap();
            store.read("ns", "k").unwrap();
            let _ = store.read("ns", "missing");
            store.move_ns("k", "ns", "done").unwrap();
            let _ = store.move_ns("missing", "ns", "done");
            store.read_many("done", &["k".to_string()]).unwrap();
            store.list("ns").unwrap();
            store.delete("ns", "k2").unwrap();
            tracer
                .to_jsonl()
                .lines()
                .filter(|l| l.contains("datastore.kv."))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let local = counters(KvDataStore::new(4));
        assert_eq!(local, counters(KvDataStore::loopback(4)));
        for counter in [
            "datastore.kv.writes",
            "datastore.kv.reads",
            "datastore.kv.moves",
            "datastore.kv.read_manys",
        ] {
            assert!(
                local.iter().any(|l| l.contains(counter)),
                "missing {counter} in {local:?}"
            );
        }
    }
}
