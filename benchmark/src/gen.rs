//! Seeded input generators. The same seed gives the same inputs; the
//! program under test only ever sees the generated inputs, never the
//! seed-to-input mapping.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use resources::JobShape;
use sched::{JobClass, JobSpec};
use simcore::{SeedStream, SimDuration, SimTime};
use workload::WorkloadJob;

/// RDF payload size: each CG analysis writes ~17 KiB per frame interval.
pub const VALUE_BYTES: usize = 17 * 1024;

/// The saturating scheduler stream: one arrival every `gap` from the
/// `hetero` five-shape palette (thin sims, fat sims, whole-node bundles,
/// CPU set-ups, two-node continuum slabs) with 15–59 minute runtimes.
///
/// The seed decides the *order*, not the mix: every ten consecutive
/// jobs hold the palette in its 4:2:2:1:1 proportions and every 45
/// consecutive jobs hold each runtime once, shuffled. Drawing each job
/// independently made the policy passes up to 40 % cheaper on the seeds
/// that happened to put fewer wide jobs early, and a benchmark whose
/// cost depends on its seed cannot tell a regression from a lucky draw.
/// Arrivals are evenly spaced, so the offered load is the same in every
/// window.
pub fn churn_stream(seed: u64, jobs: usize, gap: SimDuration) -> Vec<WorkloadJob> {
    let mut rng = StdRng::seed_from_u64(SeedStream::new(seed).seed_for("bench-churn-stream"));
    let mut palette: Vec<(JobClass, JobShape)> = Vec::new();
    let mut minutes: Vec<u64> = Vec::new();
    let mut at = SimTime::ZERO;
    (0..jobs)
        .map(|_| {
            if palette.is_empty() {
                palette.extend([(JobClass::CgSim, JobShape::sim_standard()); 4]);
                palette.extend([(JobClass::AaSim, JobShape::sim(4)); 2]);
                palette.extend([(JobClass::CgSetup, JobShape::setup()); 2]);
                palette.push((JobClass::AaSim, JobShape::sim_bundled(6, 7)));
                palette.push((JobClass::Other, JobShape::continuum(2)));
                palette.shuffle(&mut rng);
            }
            if minutes.is_empty() {
                minutes.extend(15..60);
                minutes.shuffle(&mut rng);
            }
            at += gap;
            let (class, shape) = palette.pop().expect("refilled above");
            let runtime = SimDuration::from_mins(minutes.pop().expect("refilled above"));
            WorkloadJob {
                at,
                spec: JobSpec::new(class, shape, runtime),
            }
        })
        .collect()
}

/// Key `i` of client `client`'s share. The hash tag `{s…}` spreads the
/// share over the shards the way the CG feedback keys do, and keeps the
/// `new` → `done` rename on one shard.
pub fn store_key(ns: &str, client: usize, i: usize) -> String {
    format!("rdf:{ns}:c{client}:{{s{}}}:f{i}", i % 3600)
}

/// A 17 KiB value whose first eight bytes name the key index it belongs
/// to, so a batched read can be verified position by position.
pub fn store_value(filler: &[u8], i: usize) -> Bytes {
    let mut v = filler.to_vec();
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    Bytes::from(v)
}

/// The index a value written by [`store_value`] claims.
pub fn value_index(v: &[u8]) -> Option<usize> {
    (v.len() == VALUE_BYTES)
        .then(|| u64::from_le_bytes(v[..8].try_into().expect("8 bytes")) as usize)
}

/// Seeded incompressible filler for [`store_value`].
pub fn filler(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(SeedStream::new(seed).seed_for("bench-store-filler"));
    let mut v = vec![0u8; VALUE_BYTES];
    rng.fill_bytes(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_stream_is_seed_stable_and_seed_sensitive() {
        let gap = SimDuration::from_millis(800);
        let a = churn_stream(7, 500, gap);
        assert_eq!(a, churn_stream(7, 500, gap));
        assert_ne!(a, churn_stream(8, 500, gap));
        assert_eq!(a.len(), 500);
        assert_eq!(a[0].at, SimTime::ZERO + gap);
        assert!(a.windows(2).all(|w| w[1].at.since(w[0].at) == gap));
        // All five shapes of the palette appear.
        let shapes: std::collections::BTreeSet<(u32, u32, u32)> = a
            .iter()
            .map(|j| {
                let s = &j.spec.shape;
                (s.nodes, s.cores_per_node, s.gpus_per_node)
            })
            .collect();
        assert_eq!(shapes.len(), 5, "{shapes:?}");
        // The mix is the same on every seed: only the order differs.
        let sims = |jobs: &[WorkloadJob]| {
            jobs.iter()
                .filter(|j| j.spec.shape == JobShape::sim_standard())
                .count()
        };
        assert_eq!(sims(&a), 200);
        assert_eq!(sims(&churn_stream(8, 500, gap)), 200);
    }

    #[test]
    fn store_keys_and_values_are_seed_stable_and_verifiable() {
        assert_eq!(filler(3), filler(3));
        assert_ne!(filler(3), filler(4));
        let f = filler(3);
        let v = store_value(&f, 4242);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(value_index(&v), Some(4242));
        assert_eq!(value_index(&v[..100]), None);
        assert_eq!(store_key("new", 1, 3601), "rdf:new:c1:{s1}:f3601");
        let keys: std::collections::BTreeSet<String> =
            (0..5000).map(|i| store_key("new", 0, i)).collect();
        assert_eq!(keys.len(), 5000);
    }
}
