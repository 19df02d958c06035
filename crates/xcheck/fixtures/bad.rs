// Synthetic-violation fixture for xcheck's own tests. NEVER compiled —
// it exists so the test suite proves each rule fires with a correct
// file:line, and that the binary exits non-zero on a dirty tree.

use std::sync::{Arc, Mutex}; // facade: std::sync::Mutex bypasses bsync
use parking_lot::RwLock; // facade: vendored lock import
use crossbeam::channel::unbounded; // facade: channel bypasses bsync
use std::sync::atomic::AtomicU64; // facade: atomics bypass bsync

pub fn wall_clock_sins() {
    let _t = std::time::Instant::now(); // wallclock
    let _s = std::time::SystemTime::now(); // wallclock
    std::thread::sleep(std::time::Duration::from_millis(1)); // wallclock
}

pub fn panicky(path: &str) -> u64 {
    let v: Option<u64> = path.parse().ok();
    v.unwrap() // unwrap
}

pub fn panicky_expect(v: Option<u64>) -> u64 {
    v.expect("present") // unwrap (.expect)
}

pub fn hard_exit(code: i32) {
    std::process::exit(code); // exit
}

pub fn hard_abort() {
    std::process::abort(); // exit (abort)
}

pub fn swallow_panics(f: impl FnOnce() + std::panic::UnwindSafe) {
    let _ = std::panic::catch_unwind(f); // catch-unwind, unjustified
}

#[cfg(test)]
mod tests {
    // Inside cfg(test): none of these may be reported.
    pub fn fine_here() {
        std::thread::sleep(std::time::Duration::from_millis(1));
        let _ = Some(1).unwrap();
        let _m = std::sync::Mutex::new(());
    }
}
