//! Figure 3: distributions of CG and AA simulation lengths.
//!
//! "MuMMI enabled a large three-scale simulation of RAS-RAF-PM
//! interactions probed using thousands of CG and AA simulations with
//! varying lengths" — CG up to 5 µs (34,523 sims), AA 50–65 ns (9,632
//! sims). The campaign DES reproduces the shape: a broad mass of short
//! trajectories from late-spawned simulations plus a spike at the target
//! length for those that ran to completion across restarts.

use campaign::{Campaign, CampaignConfig};
use mummi_bench::print_histogram;
use simcore::Histogram;

fn main() {
    mummi_bench::Flags::from_env(&[], &[]);
    let mut c = Campaign::new(CampaignConfig::default());
    // A shortened but multi-restart schedule: enough 24 h runs for many
    // sims to reach the 5 µs CG target (~5 days at 1.04 µs/day).
    for _ in 0..8 {
        c.execute_run(1000, 24);
    }

    let cg = c.cg_lengths();
    let aa = c.aa_lengths();

    let mut h_cg = Histogram::new(0.0, 5.000001, 25);
    h_cg.add_all(&cg);
    print_histogram(
        &format!(
            "Figure 3 (left): CG simulation lengths (µs), total = {}",
            cg.len()
        ),
        "length_us",
        &h_cg,
    );

    let mut h_aa = Histogram::new(0.0, 70.0, 28);
    h_aa.add_all(&aa);
    print_histogram(
        &format!(
            "Figure 3 (right): AA simulation lengths (ns), total = {}",
            aa.len()
        ),
        "length_ns",
        &h_aa,
    );

    let cg_total_us: f64 = cg.iter().sum();
    let aa_total_ns: f64 = aa.iter().sum();
    println!(
        "accumulated CG trajectory: {:.2} µs  (paper: 96.67 ms across 34,523 sims)",
        cg_total_us
    );
    println!(
        "accumulated AA trajectory: {:.2} ns  (paper: 326 µs across 9,632 sims)",
        aa_total_ns
    );
    let at_cap = cg.iter().filter(|&&l| l >= 5.0 - 1e-9).count();
    println!(
        "CG sims that reached the 5 µs cap: {} of {} — the spike at the right edge",
        at_cap,
        cg.len()
    );
}
