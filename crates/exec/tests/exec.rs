//! Behavioural contract of the shared executor: determinism, panic
//! containment, degenerate inputs, and nested regions.
//!
//! Worker counts are set via `configure_threads` (not `CONFMASK_THREADS`)
//! so each case controls its own fan-out; tests that change the count are
//! serialized behind a lock because the override is process-global.

use confmask_exec::{configure_threads, par_map, try_par_map};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that touch the process-global worker-count override.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the default worker count even when the test body panics.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        configure_threads(0);
    }
}

#[test]
fn empty_input_yields_empty_output() {
    let _guard = threads_lock();
    let _restore = Restore;
    for threads in [1, 4] {
        configure_threads(threads);
        let out: Vec<u64> = par_map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
        assert!(try_par_map(&[] as &[u64], |&x| x).unwrap().is_empty());
    }
}

#[test]
fn single_worker_degenerate_case_matches_serial() {
    let _guard = threads_lock();
    let _restore = Restore;
    configure_threads(1);
    let items: Vec<u64> = (0..100).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
    assert_eq!(par_map(&items, |&x| x * x), expected);
}

#[test]
fn output_is_identical_across_worker_counts() {
    let _guard = threads_lock();
    let _restore = Restore;
    let items: Vec<u64> = (0..503).collect();
    let mut outputs = Vec::new();
    for threads in [1, 2, 8] {
        configure_threads(threads);
        outputs.push(par_map(&items, |&x| x.wrapping_mul(0x9E37_79B9).rotate_left(13)));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}

#[test]
fn panic_containment_joins_all_siblings_and_surfaces_payload() {
    let _guard = threads_lock();
    let _restore = Restore;
    configure_threads(4);
    let items: Vec<usize> = (0..64).collect();
    let completed = AtomicUsize::new(0);
    let err = try_par_map(&items, |&i| {
        if i == 7 {
            panic!("boom at {i}");
        }
        completed.fetch_add(1, Ordering::Relaxed);
        i
    })
    .expect_err("the panicking task must surface");
    // Sibling workers were joined (the scope returned), their completed
    // tasks observed, and the payload's message survived intact.
    assert_eq!(err.message(), "boom at 7");
    assert!(completed.load(Ordering::Relaxed) < items.len());
}

#[test]
fn panic_is_contained_inline_too() {
    let _guard = threads_lock();
    let _restore = Restore;
    configure_threads(1);
    let err = try_par_map(&[1, 2, 3], |&i: &i32| {
        if i == 2 {
            panic!("inline boom");
        }
        i
    })
    .expect_err("inline panics must also be contained");
    assert_eq!(err.message(), "inline boom");
}

#[test]
fn par_map_resumes_the_panic() {
    let _guard = threads_lock();
    let _restore = Restore;
    configure_threads(4);
    let result = std::panic::catch_unwind(|| {
        par_map(&(0..32).collect::<Vec<usize>>(), |&i| {
            if i == 3 {
                panic!("resumed");
            }
            i
        })
    });
    let payload = result.expect_err("par_map must re-raise the task panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"resumed"));
}

#[test]
fn nested_par_map_does_not_deadlock() {
    let _guard = threads_lock();
    let _restore = Restore;
    configure_threads(4);
    let outer: Vec<usize> = (0..16).collect();
    let out = par_map(&outer, |&i| {
        let inner: Vec<usize> = (0..32).collect();
        // Runs inline on the worker: same results, no second fan-out.
        par_map(&inner, |&j| i * 100 + j).iter().sum::<usize>()
    });
    let expected: Vec<usize> = outer
        .iter()
        .map(|&i| (0..32).map(|j| i * 100 + j).sum())
        .collect();
    assert_eq!(out, expected);
}
