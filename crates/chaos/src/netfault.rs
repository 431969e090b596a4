//! Seeded network/disk fault schedules for the datastore tier.
//!
//! Earlier chaos rounds injected store errors *inside* the process
//! (`FaultKind::StoreFaults`); with `storeserver` the store is a real
//! server, so the faults worth rehearsing are the real ones: a TCP
//! connection dying between request and response, and a write-ahead log
//! losing its tail to a crash mid-append. A [`StoreChaosPlan`] schedules
//! both deterministically — drops fire on the server's *logical* op
//! counter and truncations are fixed byte counts per shard log — so a
//! chaotic store run is replayable from its seed, exactly like the
//! worker-kill plans the farm uses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::SeedStream;

/// One scheduled WAL truncation: cut `bytes` off the tail of shard
/// `shard`'s log before recovery (simulating a torn final append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTruncation {
    /// Victim shard index (applied modulo the shard count).
    pub shard: usize,
    /// Bytes to cut off the log tail (clamped to the file size).
    pub bytes: u64,
}

/// A seeded schedule of store-tier faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreChaosPlan {
    /// The seed the plan was generated from (the reproduction recipe).
    pub seed: u64,
    /// Global op indices at which the serving connection is severed
    /// (after the op is applied and synced, before its ack is sent —
    /// the ambiguous window). Strictly increasing.
    pub conn_drops: Vec<u64>,
    /// Torn-tail truncations to apply to shard logs before recovery.
    pub wal_truncations: Vec<WalTruncation>,
}

impl StoreChaosPlan {
    /// Sorts and dedups drop points (two drops on one op index would
    /// just be one drop) and orders truncations by shard.
    pub fn normalize(&mut self) {
        self.conn_drops.sort_unstable();
        self.conn_drops.dedup();
        self.wal_truncations.sort_by_key(|t| t.shard);
    }

    /// Generates `drops` connection drops spread over a run expected to
    /// issue about `expected_ops` store ops, plus `truncations` torn
    /// tails of 1–64 bytes across `shards` shard logs. Same arguments,
    /// same plan. Drop points land in `[1, expected_ops)` so each drop
    /// hits a connection that has made progress and has work left.
    pub fn generate(
        seed: u64,
        expected_ops: u64,
        drops: usize,
        shards: usize,
        truncations: usize,
    ) -> StoreChaosPlan {
        let seeds = SeedStream::new(seed).fork("store-chaos-plan");
        let mut rng = StdRng::seed_from_u64(seeds.seed_for("net"));
        let hi = expected_ops.max(2);
        let mut conn_drops: Vec<u64> = (0..drops).map(|_| rng.gen_range(1..hi)).collect();
        let mut trunc_rng = StdRng::seed_from_u64(seeds.seed_for("disk"));
        let wal_truncations = (0..truncations)
            .map(|_| WalTruncation {
                shard: trunc_rng.gen_range(0..shards.max(1)),
                bytes: trunc_rng.gen_range(1..=64),
            })
            .collect();
        conn_drops.sort_unstable();
        conn_drops.dedup();
        let mut plan = StoreChaosPlan {
            seed,
            conn_drops,
            wal_truncations,
        };
        plan.normalize();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_sorted_and_in_range() {
        let a = StoreChaosPlan::generate(11, 500, 4, 8, 3);
        let b = StoreChaosPlan::generate(11, 500, 4, 8, 3);
        assert_eq!(a, b);
        assert!(a.conn_drops.len() <= 4 && !a.conn_drops.is_empty());
        assert!(a.conn_drops.windows(2).all(|w| w[0] < w[1]));
        assert!(a.conn_drops.iter().all(|&d| (1..500).contains(&d)));
        assert_eq!(a.wal_truncations.len(), 3);
        assert!(a
            .wal_truncations
            .iter()
            .all(|t| t.shard < 8 && (1..=64).contains(&t.bytes)));
        assert_ne!(a, StoreChaosPlan::generate(12, 500, 4, 8, 3));
    }
}
