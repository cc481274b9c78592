//! Determinism gate for the shared executor: every parallelized stage —
//! data-plane extraction, fault sweeps, spec mining, and the k-degree
//! candidate search — must produce **byte-identical** results at any
//! worker count. The whole suite runs under `CONFMASK_THREADS=1` and
//! `=N` in CI; this test additionally flips the thread count in-process
//! via `configure_threads` and compares the outputs directly, so a
//! completion-order dependency fails even in a single CI configuration.
//!
//! Everything lives in one `#[test]` because the executor's thread count
//! is process-global: concurrent test functions flipping it would race.

use confmask_netgen::{smallnets::university, synthesize};
use confmask_sim::fault::enumerate_single_link_failures;
use confmask_sim::simulate;
use confmask_sim::sweep::{DigestList, ScenarioDigest};
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use confmask_topology::kdegree::plan_k_degree;
use confmask_topology::{LinkInfo, NodeKind, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `f` with the executor pinned to `n` workers, restoring the
/// default afterwards even if `f` panics.
fn at_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            confmask_exec::configure_threads(0);
        }
    }
    let _restore = Restore;
    confmask_exec::configure_threads(n);
    f()
}

/// A star topology whose k-degree anonymization needs probing attempts
/// (parity forces perturbation), exercising the parallel candidate waves.
fn star(leaves: usize) -> Topology {
    let mut t = Topology::new();
    let c = t.add_node("c", NodeKind::Router);
    for i in 0..leaves {
        let l = t.add_node(&format!("l{i}"), NodeKind::Router);
        t.add_edge(c, l, LinkInfo::default());
    }
    t
}

/// `Result<ScenarioDigest, SimError>` with the error stringified, so
/// whole sweeps compare with `assert_eq!`.
fn comparable(
    runs: Vec<Result<ScenarioDigest, confmask_sim::SimError>>,
) -> Vec<Result<ScenarioDigest, String>> {
    runs.into_iter().map(|r| r.map_err(|e| e.to_string())).collect()
}

#[test]
fn every_parallel_stage_is_byte_identical_across_thread_counts() {
    let configs = synthesize(&university());
    let scenarios = enumerate_single_link_failures(&configs);
    assert!(scenarios.len() >= 4, "sweep must be non-trivial");

    // 1. Full simulation (parallel SPF + data-plane trace fan-out).
    let sim_serial = at_threads(1, || simulate(&configs)).expect("simulates");
    let sim_parallel = at_threads(8, || simulate(&configs)).expect("simulates");
    assert_eq!(
        sim_serial.dataplane, sim_parallel.dataplane,
        "data plane must not depend on thread count"
    );

    // 2. Incremental fault sweep: the streaming sweep at 1 and 8 workers,
    //    and the sequential per-scenario digest loop, must agree
    //    scenario-for-scenario.
    let sequential = at_threads(1, || {
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&configs).expect("converges");
        let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        scenarios
            .iter()
            .map(|s| sweep.digest(s))
            .collect::<Vec<_>>()
    });
    let sweep_at = |n: usize| {
        at_threads(n, || {
            let engine = DeltaEngine::new(4);
            let base = engine.converged(&configs).expect("converges");
            let sweep = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
            let mut list = DigestList::default();
            sweep.run(scenarios.iter(), &mut list);
            list.results
        })
    };
    let serial = comparable(sequential);
    assert_eq!(serial, comparable(sweep_at(1)), "1-worker sweep diverged");
    assert_eq!(serial, comparable(sweep_at(8)), "8-worker sweep diverged");

    // 3. Spec mining (university has 56 ordered host pairs, enough to take
    //    the parallel path).
    let spec_serial = at_threads(1, || confmask_spec::mine(&sim_serial.dataplane));
    let spec_parallel = at_threads(8, || confmask_spec::mine(&sim_serial.dataplane));
    assert!(spec_serial.len() > 32, "university must mine a real spec");
    assert_eq!(spec_serial, spec_parallel, "mined spec diverged");

    // 4. k-degree candidate search: same caller seed, same plan, at any
    //    thread count (the star's parity mismatch forces probing waves).
    let topo = star(8);
    let plan_at = |n: usize| {
        at_threads(n, || {
            plan_k_degree(&topo, 4, &mut StdRng::seed_from_u64(7)).expect("realizable")
        })
    };
    let plan_serial = plan_at(1);
    let plan_parallel = plan_at(8);
    assert_eq!(plan_serial.new_edges, plan_parallel.new_edges, "k-degree plan diverged");
    assert_eq!(plan_serial.achieved_k, plan_parallel.achieved_k);
}
