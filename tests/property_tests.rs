//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use mummi::datastore::codec::{Array, Records};
use mummi::kvstore::glob_match;
use mummi::simcore::stats::quantile;
use mummi::simcore::{Histogram, SimDuration, SimTime};
use mummi::taridx::IndexedTar;

// ---------------------------------------------------------------- taridx

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of (key, payload) appends round-trips, with
    /// last-write-wins on duplicate keys — both through the live index and
    /// after a full index recovery from the tar stream.
    fn taridx_appends_roundtrip(
        entries in prop::collection::vec(
            ("[a-z]{1,12}", prop::collection::vec(any::<u8>(), 0..2000)),
            1..25
        )
    ) {
        // Unique per process and per case without ambient randomness
        // (the determinism contract bans unseeded RNG workspace-wide).
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "taridx-prop-{}-{:x}",
            std::process::id(),
            CASE.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.tar");
        let mut tar = IndexedTar::create(&path).unwrap();
        let mut expected = std::collections::HashMap::new();
        for (k, v) in &entries {
            tar.append(k, v).unwrap();
            expected.insert(k.clone(), v.clone());
        }
        for (k, v) in &expected {
            prop_assert_eq!(&tar.read(k).unwrap(), v);
        }
        prop_assert_eq!(tar.len(), expected.len());

        // Rebuild the index from the raw stream: same state.
        tar.recover_index().unwrap();
        prop_assert_eq!(tar.len(), expected.len());
        for (k, v) in &expected {
            prop_assert_eq!(&tar.read(k).unwrap(), v);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------------------------ glob

/// Reference glob matcher: recursive, obviously correct.
fn glob_ref(p: &[u8], k: &[u8]) -> bool {
    match (p.first(), k.first()) {
        (None, None) => true,
        (Some(b'*'), _) => glob_ref(&p[1..], k) || (!k.is_empty() && glob_ref(p, &k[1..])),
        (Some(b'?'), Some(_)) => glob_ref(&p[1..], &k[1..]),
        (Some(a), Some(b)) if a == b => glob_ref(&p[1..], &k[1..]),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn glob_matches_reference(pattern in "[ab*?]{0,8}", key in "[ab]{0,10}") {
        prop_assert_eq!(
            glob_match(&pattern, &key),
            glob_ref(pattern.as_bytes(), key.as_bytes()),
            "pattern {:?} key {:?}", pattern, key
        );
    }

    fn glob_star_matches_everything(key in "[a-z:0-9]{0,20}") {
        prop_assert!(glob_match("*", &key));
    }

    fn glob_literal_matches_itself(key in "[a-z]{0,16}") {
        prop_assert!(glob_match(&key, &key));
    }
}

// ----------------------------------------------------------------- codec

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn array_codec_roundtrips(data in prop::collection::vec(-1e12f64..1e12, 0..200)) {
        let a = Array::from_vec(data);
        prop_assert_eq!(Array::decode(&a.encode()).unwrap(), a);
    }

    fn records_codec_roundtrips(
        entries in prop::collection::vec(
            ("[a-z]{1,10}", prop::collection::vec(-1e6f64..1e6, 0..50)),
            0..10
        )
    ) {
        let mut r = Records::new();
        for (name, data) in entries {
            r.insert(&name, Array::from_vec(data));
        }
        prop_assert_eq!(Records::decode(&r.encode()).unwrap(), r);
    }

    /// Truncated encodings never panic — they error.
    fn array_decode_never_panics(
        data in prop::collection::vec(-1e6f64..1e6, 1..50),
        cut_frac in 0.0f64..1.0
    ) {
        let enc = Array::from_vec(data).encode();
        let cut = ((enc.len() as f64) * cut_frac) as usize;
        let _ = Array::decode(&enc[..cut]); // must not panic
    }
}

// ------------------------------------------------------------ statistics

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn histogram_conserves_observations(values in prop::collection::vec(-50.0f64..150.0, 0..300)) {
        let mut h = Histogram::new(0.0, 100.0, 17);
        h.add_all(&values);
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), values.len() as u64);
    }

    fn quantiles_are_monotone_and_bounded(
        mut values in prop::collection::vec(-1e3f64..1e3, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = quantile(&values, lo);
        let v_hi = quantile(&values, hi);
        prop_assert!(v_lo <= v_hi);
        prop_assert!(v_lo >= values[0] - 1e-9);
        prop_assert!(v_hi <= values[values.len() - 1] + 1e-9);
    }

    fn sim_time_arithmetic_is_consistent(a in 0u64..1u64 << 40, d in 0u64..1u64 << 40) {
        let t = SimTime::from_micros(a);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t + dur).since(t), dur);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert!((t + dur) >= t);
    }
}

// ------------------------------------------------------------- selectors

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The farthest-point sampler never duplicates selections and always
    /// drains exactly the candidates it was given.
    fn fps_selects_each_candidate_once(
        coords in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..40)
    ) {
        use mummi::dynim::{ExactNn, FarthestPointSampler, FpsConfig, HdPoint, Sampler};
        let mut s = FarthestPointSampler::new(FpsConfig { cap: 0 }, ExactNn::new());
        for (i, &(x, y)) in coords.iter().enumerate() {
            s.add(HdPoint::new(format!("p{i}"), vec![x, y]));
        }
        let n = coords.len();
        let picked = s.select(n + 5);
        prop_assert_eq!(picked.len(), n);
        let ids: std::collections::HashSet<&str> =
            picked.iter().map(|p| p.id.as_str()).collect();
        prop_assert_eq!(ids.len(), n, "no duplicate selections");
        prop_assert_eq!(s.candidates(), 0);
    }

    /// The binned sampler conserves candidates across add/select/discard.
    fn binned_sampler_conserves_candidates(
        adds in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 1..60),
        k in 1usize..20
    ) {
        use mummi::dynim::{BinnedConfig, BinnedSampler, HdPoint, Sampler};
        let mut s = BinnedSampler::new(BinnedConfig::cg_frames());
        for (i, &(x, y, z)) in adds.iter().enumerate() {
            s.add(HdPoint::new(format!("f{i}"), vec![x, y, z]));
        }
        let before = s.candidates();
        let picked = s.select(k);
        prop_assert_eq!(picked.len(), k.min(before));
        prop_assert_eq!(s.candidates(), before - picked.len());
    }
}
