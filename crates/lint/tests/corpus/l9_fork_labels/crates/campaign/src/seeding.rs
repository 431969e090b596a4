//! Fixture: L9 fork-label discipline — a computed label, a cross-file
//! duplicate, the fork_indexed idiom, and the reasoned escape.

fn run_streams(seeds: &SeedStream, i: u64) {
    let _dup = seeds.fork("jobs");
    let _computed = seeds.fork(&format!("run-{i}"));
    let _indexed = seeds.fork_indexed("worker", i);
    let _unique = seeds.fork("failures");
    let _escaped = seeds.fork(&label_of(i)); // lint: allow(L9: fixture escape for a computed label)
}
