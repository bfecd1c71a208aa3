//! A fixed slice of host work, run between envelopes, that tells how fast
//! the host was running the pass.
//!
//! The benchmark shares its vCPUs with other tenants, and their load moves
//! this process's speed by 10–30 % over seconds to minutes, so a longer
//! run averages little of it away. Every slice does the same work in this
//! package's own code (nothing of the program under test runs in it):
//! fill a fresh hash map with a few thousand keys and look each one up,
//! the kind of keyed lookup the service's caches and the engines' task
//! tables do. On the same vCPU as the program (see `main`'s `pin`), the
//! slice's time tracked the program's pass time with a log-log slope of
//! about 1.1 and a correlation of 0.85–0.95; a register-only loop tracked
//! it with a slope above 2, so it saw under half of the program's
//! slowdown. The end-to-end times are scaled by the pass's mean slice
//! time against [`REFERENCE`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Keys inserted, then looked up, by one slice.
const KEYS: u64 = 6000;

/// A slice's time on the reference host (Intel Xeon, 2 vCPUs, release
/// build). Scaled times read as if the host had run at that speed.
pub const REFERENCE: Duration = Duration::from_micros(420);

/// Program time between two slices.
pub const EVERY: Duration = Duration::from_millis(20);

/// Runs one slice and returns its wall time.
pub fn slice() -> Duration {
    let t = Instant::now();
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut map = HashMap::new();
    for i in 0..KEYS {
        map.insert(key(i), i);
    }
    let sum: u64 = (0..KEYS).map(|i| map[&key(i)]).sum();
    std::hint::black_box(sum);
    t.elapsed()
}

/// How much slower than the reference host `slices` ran: their mean time
/// over [`REFERENCE`]; 1 when there are none.
pub fn slowdown(slices: &[Duration]) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    let mean = slices.iter().sum::<Duration>().as_secs_f64() / slices.len() as f64;
    mean / REFERENCE.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_mean_slice_time_over_the_reference() {
        assert_eq!(slowdown(&[]), 1.0);
        let slices = [REFERENCE, REFERENCE * 3];
        assert!((slowdown(&slices) - 2.0).abs() < 1e-12);
        assert!(slice() > Duration::ZERO);
    }
}
