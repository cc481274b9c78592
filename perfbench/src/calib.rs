//! Machine-speed normalization.
//!
//! The development VM shares its host: neighbours moved the wall time of
//! identical work by up to 30% between runs minutes apart, far beyond any
//! bound a regression check could use. A fixed reference kernel that
//! shares no code with the program is timed just before each operation,
//! and anon-wan and verify-fattree report their end-to-end timings at
//! reference speed: `wall × NOMINAL_MS / reference`. On anon-wan this cut
//! the range of the median across five runs from 12% to 4%. Raw wall times
//! are printed alongside. serve-mix stays in wall time: its timings held
//! steady across runs, and the kernel timed next to a live daemon did not.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the development VM (two vCPUs) in a
/// quiet period, in ms: normalized timings read as wall time on that
/// machine.
pub const NOMINAL_MS: f64 = 11.0;

/// One pass of the kernel: ordered-map inserts, small allocations and an
/// in-order walk — the allocation-heavy, pointer-chasing shape of the
/// simulator's inner loops. Returns its wall time in ms.
fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 150_000, vec![i; 6]);
    }
    let mut acc = 0u64;
    for _ in 0..4 {
        for (k, v) in &map {
            acc = acc.wrapping_add(k.wrapping_mul(v[0] | 1));
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// How much faster than nominal the machine runs right now (below 1 when
/// it is slower): `NOMINAL_MS` over the median of three kernel passes.
pub fn speed() -> f64 {
    speed_on(1)
}

/// [`speed`] with the kernel running on `threads` threads at once, for
/// work that keeps that many threads busy (they contend with each other
/// as well as with the neighbours): each pass counts as its slowest
/// thread.
pub fn speed_on(threads: usize) -> f64 {
    let mut v: Vec<f64> = (0..3)
        .map(|_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_ms)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the kernel does not panic"))
                    .fold(0.0, f64::max)
            })
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    NOMINAL_MS / v[1]
}
