//! Figure 7: CG→continuum feedback queries through the Redis stand-in.
//!
//! "We used MuMMI's redis interface for feedback during the scaling run
//! (4000 nodes) and configured the database to use 20 nodes … MuMMI
//! achieved a throughput of ∽10,000 queries (retrieval of keys) and
//! deletions (of key-value pairs), and ∽2000 reads (retrieval of values)
//! per second."
//!
//! The three query types are measured for real against a 20-shard cluster
//! holding RDF payloads, with reported times combining measured compute
//! and the modeled Summit-interconnect cost (see `kvstore::LatencyModel`).

use bytes::Bytes;
use kvstore::{Client, Cluster, LatencyModel};
use mummi_bench::print_series;

/// RDF payload size: each CG analysis writes ~17 KB per frame interval.
const VALUE_BYTES: usize = 17 * 1024;

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    let sizes = [
        5_000u64, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000,
    ];
    let mut keys_rows = Vec::new();
    let mut values_rows = Vec::new();
    let mut delete_rows = Vec::new();
    let mut key_tput = Vec::new();
    let mut val_tput = Vec::new();
    let mut del_tput = Vec::new();

    for &n in &sizes {
        let cluster = Cluster::new(20);
        let client = Client::with_latency(cluster, LatencyModel::SUMMIT_IB);
        let payload = Bytes::from(vec![0u8; VALUE_BYTES]);
        let pairs: Vec<(String, Bytes)> = (0..n)
            .map(|i| (format!("rdf:new:{{s{}}}:f{}", i % 3600, i), payload.clone()))
            .collect();
        client.mset(&pairs);
        client.reset_virtual();

        // Retrieve keys: one pattern scan over every shard.
        let t0 = std::time::Instant::now();
        let keys = client.keys("rdf:new:*");
        let t_keys = t0.elapsed().as_secs_f64() + client.virtual_ns() as f64 * 1e-9;
        assert_eq!(keys.len() as u64, n);
        client.reset_virtual();

        // Retrieve values: serial fetch — "New frames can be fetched in
        // parallel (when reading from files) or serial (when using a
        // high-throughput database)" (§4.4 Task 4).
        let t0 = std::time::Instant::now();
        let mut fetched = 0u64;
        for k in &keys {
            if client.get(k).is_some() {
                fetched += 1;
            }
        }
        let t_values = t0.elapsed().as_secs_f64() + client.virtual_ns() as f64 * 1e-9;
        assert_eq!(fetched, n);
        client.reset_virtual();

        // Delete pairs: pipelined multi-delete (the "tag processed" step).
        let t0 = std::time::Instant::now();
        let deleted = client.del_many(&keys);
        let t_delete = t0.elapsed().as_secs_f64() + client.virtual_ns() as f64 * 1e-9;
        assert_eq!(deleted as u64, n);

        keys_rows.push((n as f64, t_keys));
        values_rows.push((n as f64, t_values));
        delete_rows.push((n as f64, t_delete));
        key_tput.push(n as f64 / t_keys);
        val_tput.push(n as f64 / t_values);
        del_tput.push(n as f64 / t_delete);
    }

    print_series(
        "Figure 7: retrieve keys",
        "cg_frames",
        "seconds",
        &keys_rows,
    );
    print_series(
        "Figure 7: retrieve values",
        "cg_frames",
        "seconds",
        &values_rows,
    );
    print_series(
        "Figure 7: delete (key, value) pairs",
        "cg_frames",
        "seconds",
        &delete_rows,
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("mean throughput:");
    println!(
        "  key scans : {:>8.0} keys/s   (paper: ~10,000/s)",
        mean(&key_tput)
    );
    println!(
        "  value gets: {:>8.0} reads/s  (paper: ~2,000/s)",
        mean(&val_tput)
    );
    println!(
        "  deletions : {:>8.0} dels/s   (paper: ~10,000/s)",
        mean(&del_tput)
    );
}
