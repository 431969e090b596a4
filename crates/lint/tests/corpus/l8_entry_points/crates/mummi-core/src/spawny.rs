//! Fixture: parallelism entry points outside the allowlist (L8), the
//! reasoned escape, the bare-allow violation, and the stale-entry check.

fn launch_thread() {
    std::thread::spawn(|| {});
}

fn launch_rayon_join() {
    rayon::join(|| {}, || {});
}

fn launch_rayon_spawn() {
    rayon::spawn(|| {});
}

fn allowed_sort(xs: &mut [u64]) {
    xs.par_sort_unstable(); // lint: allow(L8: in-place sort of a locally owned slice; result independent of schedule)
}

fn bare_allowed_sort(xs: &mut [u64]) {
    xs.par_sort(); // lint: allow(L8)
}
