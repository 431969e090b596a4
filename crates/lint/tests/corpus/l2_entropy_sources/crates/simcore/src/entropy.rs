//! Fixture: every broadened L2 entropy source plus the inline escape.

fn bad_os_rng() {
    let mut r = OsRng;
    let _ = r;
}

fn bad_from_entropy() {
    let _rng = StdRng::from_entropy();
}

fn bad_getrandom(buf: &mut [u8]) {
    getrandom(buf).ok();
}

fn allowed_tiebreak() {
    let _r = thread_rng(); // lint: allow(L2) deliberate fixture escape
}
