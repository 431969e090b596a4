//! Ablation: the binned sampler's importance/randomness balance.
//!
//! §4.4 Task 2: "The binned sampling approach also facilitates control
//! over the balance between importance and randomness — another functional
//! requirement for the selection of CG frames." This study quantifies the
//! trade-off: sweeping the importance parameter from pure random (0.0) to
//! pure importance (1.0) against a heavily skewed candidate population
//! (rare conformations are 1% of frames) and measuring
//!
//! - **rare-state coverage**: how many selections land in rare bins;
//! - **occupancy fidelity**: how closely selections follow the candidate
//!   distribution (what pure random would do).

use dynim::{BinnedConfig, BinnedSampler, HdPoint, Sampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    println!("# Binned sampler ablation: importance vs randomness\n");
    println!("importance\trare_selected_of_200\trare_fraction\tcommon_fraction");

    for &importance in &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut sampler = BinnedSampler::new(BinnedConfig {
            dims: vec![(0.0, 1.0, 10); 3],
            importance,
            seed: 11,
        });
        let mut rng = StdRng::seed_from_u64(3);
        // 50,000 frames: 99% cluster in one "common" conformation corner,
        // 1% spread over the rare rest of the space.
        let mut rare_ids = std::collections::HashSet::new();
        for i in 0..50_000u64 {
            let rare = rng.gen_bool(0.01);
            let coords = if rare {
                vec![
                    rng.gen_range(0.3..1.0),
                    rng.gen_range(0.3..1.0),
                    rng.gen_range(0.3..1.0),
                ]
            } else {
                vec![
                    rng.gen_range(0.0..0.1),
                    rng.gen_range(0.0..0.1),
                    rng.gen_range(0.0..0.1),
                ]
            };
            let id = format!("f{i}");
            if rare {
                rare_ids.insert(id.clone());
            }
            sampler.add(HdPoint::new(id, coords));
        }

        let picks = sampler.select(200);
        let rare_picked = picks
            .iter()
            .filter(|p| rare_ids.contains(p.id.as_str()))
            .count();
        println!(
            "{importance:.1}\t{rare_picked}\t{:.2}\t{:.2}",
            rare_picked as f64 / 200.0,
            1.0 - rare_picked as f64 / 200.0
        );
    }

    println!();
    println!("pure random tracks the candidate distribution (~1% rare);");
    println!("pure importance drives exploration of rare conformations;");
    println!("the campaign ran at 0.8 — mostly exploration with a random leaven.");
}
