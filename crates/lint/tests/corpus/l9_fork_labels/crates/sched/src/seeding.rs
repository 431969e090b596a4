//! Fixture, second crate: the duplicate "jobs" label lives here, so the
//! uniqueness check must correlate call sites across files.

fn scheduler_stream(seeds: &SeedStream) {
    let _dup = seeds.fork("jobs");
}
