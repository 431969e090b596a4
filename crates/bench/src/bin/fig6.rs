//! Figure 6: job-scheduling history at 1000 and 4000 nodes.
//!
//! "Whereas a typical 1000-node run took only an hour to load, our scaling
//! run (using 4000 nodes) revealed some scheduling bottlenecks where the
//! submitted jobs took much longer to run … the scheduling in Flux
//! happened in large chunks followed by large periods of inactivity."
//!
//! Both runs here restart from a warmed campaign (prepared simulations in
//! the ready buffers) and submit at ~100 jobs/min; the 4000-node run pays
//! the synchronous-Q↔R, exhaustive-matcher cost over a 4× larger graph.

use campaign::{Campaign, CampaignConfig};
use mummi_bench::{Flags, TraceOpts};
use simcore::Timeline;

fn print_timeline(title: &str, cg: &Timeline, aa: &Timeline) {
    println!("## {title}");
    println!("hours\tcg_running\tcg_pending\taa_running\taa_pending");
    for (c, a) in cg.points().iter().zip(aa.points()) {
        println!(
            "{:.2}\t{}\t{}\t{}\t{}",
            c.at.as_hours_f64(),
            c.running,
            c.pending,
            a.running,
            a.pending
        );
    }
    println!();
}

fn main() {
    let topts = TraceOpts::from_flags(&Flags::from_env(&[], &TraceOpts::FLAGS));
    let mut c = Campaign::new(CampaignConfig::default());
    c.set_tracer(topts.tracer());
    // Warm the campaign so ready buffers exist (the paper's runs restart).
    c.execute_run(1000, 24);

    let r1000 = c.execute_run(1000, 24);
    let r4000 = c.execute_run(4000, 16);

    print_timeline(
        "Figure 6 (left): 1000 nodes",
        &r1000.cg_timeline,
        &r1000.aa_timeline,
    );
    print_timeline(
        "Figure 6 (right): 4000 nodes",
        &r4000.cg_timeline,
        &r4000.aa_timeline,
    );

    println!(
        "1000-node load time: {}   (paper: ~1 hour)",
        r1000
            .load_time
            .map(|t| format!("{:.2} h", t.as_hours_f64()))
            .unwrap_or_else(|| "did not fully load".into())
    );
    println!(
        "4000-node load time: {}   (paper: still loading at ~15 h)",
        r4000
            .load_time
            .map(|t| format!("{:.2} h", t.as_hours_f64()))
            .unwrap_or_else(|| "did not fully load".into())
    );
    println!(
        "longest placement stall (profile samples with pending jobs but no growth): 1000-node {}, 4000-node {}",
        r1000.cg_timeline.longest_stall(),
        r4000.cg_timeline.longest_stall()
    );
    println!(
        "peak simultaneous GPU jobs at 4000 nodes: {} (paper: 24,000)",
        r4000.peak_gpu_jobs
    );
    topts.finish(c.tracer());
}
