//! Pinned data planes: an FNV-1a digest of a canonical, name-level
//! rendering of whole data planes, for the evaluation networks A–H and for
//! ConfMask outputs (with and without fake routers).
//!
//! The data plane's in-memory encoding (router ids, path sets shared
//! between the pairs behind one gateway) may change for speed; what a pair
//! means by name may not. The rendering lists every pair in key order with
//! its source, destination, black-hole and loop flags and each path as
//! `h_s r_1 … h_d` names, so any change to a name, a path, its order or a
//! flag changes a digest. A deliberate change re-records the table from the
//! failure message, which prints every new digest.
//!
//! A second test pins the name-level answers of every comparison across
//! data planes whose router tables differ: the anonymized network's fake
//! router sorts before every real router, so each real router has a
//! different id on the two sides.

use confmask::equivalence::check_equivalence;
use confmask::{
    anonymize, simulate, verify_failure_equivalence, DataPlane, NetworkConfigs, Params,
};
use confmask_sim::fault::{enumerate_single_link_failures, run_scenario, FailureScenario, Fault};
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use std::collections::BTreeSet;

/// Evaluation networks whose original data plane is pinned.
const ORIGINAL: [(char, u64); 8] = [
    ('A', 0xea8017910b0a5589),
    ('B', 0xfc70210c36fa3765),
    ('C', 0x1540a76adb4e777e),
    ('D', 0x1623d4d718820aa9),
    ('E', 0xbb681787d6224d71),
    ('F', 0x520249ff79cc7703),
    ('G', 0x5a528f7c36eed505),
    ('H', 0x616769fae065c8f5),
];

/// `(network, seed, fake routers, digest)` of ConfMask outputs at
/// k_R = 4, k_H = 3.
const ANONYMIZED: [(char, u64, usize, u64); 7] = [
    ('A', 1, 0, 0x820734910ed2a580),
    ('A', 2, 0, 0x37ecde704818b001),
    ('B', 1, 0, 0xd21ad6c8edf2b8e6),
    ('B', 2, 0, 0x9368ff0690117cee),
    ('D', 1, 0, 0x2ab7f1e44c9db89d),
    ('A', 1, 3, 0xcbca5f27b770a114),
    ('B', 1, 3, 0x87703c05479f910c),
];

fn network(id: char) -> NetworkConfigs {
    confmask_netgen::full_suite()
        .into_iter()
        .find(|n| n.id == id)
        .unwrap_or_else(|| panic!("no evaluation network '{id}'"))
        .configs
}

/// 64-bit FNV-1a over the canonical rendering: one line per pair,
/// `src dst blackhole has_loop`, then one line per path.
fn dataplane_digest(dp: &DataPlane) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for ps in dp.pairs() {
        let line = format!(
            "{} {} {} {}\n",
            ps.src,
            ps.dst,
            ps.blackhole(),
            ps.has_loop()
        );
        eat(line.as_bytes());
        for path in ps.paths() {
            eat(path.join(" ").as_bytes());
            eat(b"\n");
        }
    }
    h
}

#[test]
fn data_planes_render_to_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (id, want) in ORIGINAL {
        let sim = confmask::simulate(&network(id)).unwrap_or_else(|e| panic!("net {id}: {e}"));
        let got = dataplane_digest(&sim.dataplane);
        if got != want {
            mismatches.push(format!("net {id} original: {got:#018x} != {want:#018x}"));
        }
    }
    for (id, seed, fake_routers, want) in ANONYMIZED {
        let params = Params {
            seed,
            fake_routers,
            ..Params::new(4, 3)
        };
        let result = anonymize(&network(id), &params)
            .unwrap_or_else(|e| panic!("net {id} seed {seed}: {e}"));
        let got = dataplane_digest(&result.final_sim.dataplane);
        if got != want {
            mismatches.push(format!(
                "net {id} seed {seed} fake routers {fake_routers}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "data planes changed:\n{}",
        mismatches.join("\n")
    );
}

/// Net A with routers `a0`…`a9` renamed `r5`…`r9`, `t0`…`t3` and `u0`.
/// Scale obfuscation names its fake router after the most common stem and
/// the next free number, `r10`, which sorts before every real router.
fn renamed_a() -> NetworkConfigs {
    let mut net = network('A');
    for (name, mut rc) in std::mem::take(&mut net.routers) {
        let i: usize = name[1..].parse().expect("net A routers are a<N>");
        let new = match i {
            0..=4 => format!("r{}", i + 5),
            5..=8 => format!("t{}", i - 5),
            _ => "u0".to_string(),
        };
        rc.hostname = new.clone();
        net.routers.insert(new, rc);
    }
    net
}

#[test]
fn comparisons_across_router_tables_keep_name_semantics() {
    let net = renamed_a();
    let params = Params {
        seed: 1,
        fake_routers: 1,
        ..Params::new(4, 3)
    };
    let result = anonymize(&net, &params).expect("anonymize");
    assert_eq!(result.scale.fake_routers, ["r10"]);
    assert!(net.routers.keys().all(|r| r.as_str() > "r10"));
    let real: BTreeSet<String> = net.hosts.keys().cloned().collect();
    let orig = &result.baseline.sim.dataplane;
    let anon = &result.final_sim.dataplane;
    assert_eq!(dataplane_digest(anon), 0xbcdaa6520f58bec9);

    assert!(anon.equivalent_on(orig, &real));
    assert!(orig.equivalent_on(anon, &real));
    assert!(anon.restricted_to(&real) == orig.restricted_to(&real));
    assert!(!(anon.restricted_to(&real) != orig.restricted_to(&real)));
    assert!(anon != orig, "the fake hosts' pairs exist on one side only");
    let report = check_equivalence(&net, orig, &result.configs, anon);
    assert!(report.holds(), "{:?}", report.violations);
    let failures = verify_failure_equivalence(&net, &result, 1, 0);
    assert!(failures.holds(), "{failures:?}");
    assert!(!failures.masked_baseline_differs);

    // Under each single-link failure of the anonymized network, whether
    // its real pairs still match the healthy original ('1') or not ('0').
    let answers: String = enumerate_single_link_failures(&result.configs)
        .iter()
        .map(|sc| {
            let failed = simulate(&sc.apply(&result.configs).expect("apply")).expect("simulate");
            if failed.dataplane.equivalent_on(orig, &real) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    assert_eq!(answers, "1111001000000100100010110000");
}

/// `failures --verify-failures 1 --fake-routers 1` on renamed net A (the
/// CLI defaults otherwise) finds fake links whose failure changes real
/// pairs. Each fake-element scenario's sweep digest must equal the cold
/// loop's, so whatever that verdict is, it is the cold simulator's and not
/// the incremental sweep's.
#[test]
fn fake_element_sweep_digests_match_the_cold_loop_on_renamed_a() {
    let net = renamed_a();
    let params = Params {
        fake_routers: 1,
        ..Params::default()
    };
    let result = anonymize(&net, &params).expect("anonymize");
    let anon_base = result
        .final_sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts);
    let mut scenarios: Vec<FailureScenario> = result
        .fake_links
        .iter()
        .map(|fl| {
            FailureScenario::single(Fault::LinkDown {
                a: fl.a.clone(),
                b: fl.b.clone(),
                added: true,
            })
        })
        .collect();
    scenarios.extend(
        result
            .scale
            .fake_routers
            .iter()
            .map(|r| FailureScenario::single(Fault::RouterDown { router: r.clone() })),
    );
    assert!(scenarios.len() > 1);
    let engine = DeltaEngine::new(4);
    let conv = engine.converged(&result.configs).expect("converges");
    let sweep = ScenarioSweep::new(&engine, &conv, &anon_base);
    let mut changed = Vec::new();
    for scenario in &scenarios {
        let warm = sweep.digest(scenario).expect("sweep");
        let cold = run_scenario(&result.configs, &anon_base, scenario).expect("cold");
        assert_eq!(warm.encode(), cold.encode(), "{scenario}");
        if cold.changed_classes().next().is_some() {
            changed.push(scenario.to_string());
        }
    }
    eprintln!("fake-element scenarios that change real pairs: {changed:?}");
}
