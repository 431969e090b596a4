//! Figure 5: resource occupancy distribution.
//!
//! "Aggregating the profiles (computed every 10 mins) over all runs shows
//! that the GPU occupancy was over 98% for more than 83% of the total
//! time; CPU occupancy is low due to the need of the simulation" (GPU mean
//! 93.73%, median 99.93%; CPU mean 54.12%, median 50.48%).

use campaign::{Campaign, CampaignConfig};
use mummi_bench::{print_histogram, Flags, TraceOpts};

fn main() {
    let topts = TraceOpts::from_flags(&Flags::from_env(&[], &TraceOpts::FLAGS));
    let mut c = Campaign::new(CampaignConfig::default());
    c.set_tracer(topts.tracer());
    // A representative restartable schedule: one cold run, then warm
    // restarts — the occupancy distribution aggregates all profile events.
    for &(nodes, hours) in &[
        (100u32, 6u64),
        (500, 12),
        (1000, 24),
        (1000, 24),
        (1000, 24),
        (1000, 24),
        (1000, 24),
        (1000, 24),
    ] {
        c.execute_run(nodes, hours);
    }

    let p = c.profiler();
    print_histogram(
        "Figure 5: GPU occupancy (% of profile events per occupancy bin)",
        "occupancy_pct",
        &p.histogram(false, 20),
    );
    print_histogram(
        "Figure 5: CPU occupancy (% of profile events per occupancy bin)",
        "occupancy_pct",
        &p.histogram(true, 20),
    );

    let frac98 = p.fraction_gpu_at_least(98.0);
    let (gpu_mean, gpu_median) = p.gpu_mean_median();
    let (cpu_mean, cpu_median) = p.cpu_mean_median();
    println!(
        "GPU occupancy >= 98% for {:.1}% of profile events (paper: >83%)",
        frac98 * 100.0
    );
    println!(
        "GPU mean {:.2}% median {:.2}%   (paper: 93.73% / 99.93%)",
        gpu_mean, gpu_median
    );
    println!(
        "CPU mean {:.2}% median {:.2}%   (paper: 54.12% / 50.48%)",
        cpu_mean, cpu_median
    );
    topts.finish(c.tracer());
}
