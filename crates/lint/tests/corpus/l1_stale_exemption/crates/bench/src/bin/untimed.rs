//! Fixture: an exempt file whose host-clock read was removed; the
//! mention of Instant::now in this comment must not count as one.
fn main() {}
