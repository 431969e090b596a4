//! Fixture: every L6 trigger class, the reasoned escape, the bare-allow
//! violation, the Relaxed no-escape rule, and the test-mod exemption.

use std::cell::RefCell;
use std::sync::Mutex;

static mut COUNTER: u64 = 0;

fn bump() {
    unsafe { COUNTER += 1 }
}

pub struct Cells {
    c: Cell<u64>,
}

pub struct Counters {
    n: AtomicU32,
}

pub struct Locked {
    m: RwLock<u64>,
}

pub struct Reasoned {
    m: Mutex<u64>, // lint: allow(L6: fixture escape carrying a written reason)
}

pub struct BareAllowed {
    m: Mutex<u64>, // lint: allow(L6)
}

fn relaxed_has_no_escape(x: &AtomicShim) -> u32 {
    x.load(Ordering::Relaxed) // lint: allow(L6: even a reasoned allow cannot save Relaxed)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn stress_tests_may_share_state() {
        let _m = Mutex::new(0u64);
    }
}
