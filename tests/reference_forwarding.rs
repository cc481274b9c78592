//! Reference forwarding oracle, OSPF and RIP slices: on random OSPF
//! networks, cold `simulate` must forward every host pair exactly as a
//! brute-force shortest-path model of the generator's own graph and costs
//! says (`support/reference_ospf.rs`), on the healthy network, after every
//! single link failure, and after every round of random inbound
//! distribute-list edits, where the warm control plane's FIBs must agree
//! too; on random RIP networks, as a hop-count model of the graph says
//! (`support/reference_rip.rs`), healthy and after every single link
//! failure. Pairs are compared by router names: the path set (every
//! equal-cost shortest path) and the blackhole and loop flags.
//!
//! The reference shares no code with the simulator's SPF, FIBs or data
//! plane; the failed networks come from the simulator's fault injection
//! (`FailureScenario::apply`, a config edit) on the simulated side and
//! from removing the link from the spec's graph on the reference side.
//! Filter edits go through the patcher on the simulated side; the
//! reference reads them from the test's own log of the edits it made.
//!
//! `DELTA_DIFF_SEEDS` sets how many networks are generated (default 8; CI
//! runs 24).

#[path = "support/random_net.rs"]
mod random_net;
#[path = "support/reference_ospf.rs"]
mod reference_ospf;
#[path = "support/reference_rip.rs"]
mod reference_rip;

use confmask_config::patch::Patcher;
use confmask_config::NetworkConfigs;
use confmask_net_types::Ipv4Prefix;
use confmask_netgen::synthesize;
use confmask_sim::dataplane::trace;
use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
use confmask_sim::{simulate, Simulation};
use confmask_sim_delta::WarmControlPlane;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use random_net::random_spec;
use reference_ospf::{RefNet, RefPair};
use reference_rip::RipRef;
use std::collections::{BTreeMap, BTreeSet};

/// What a simulation forwards for one pair: the paths by name, their
/// count (a repeat would shrink the set), and the blackhole and loop flags.
struct Forwarded {
    paths: Vec<Vec<String>>,
    blackhole: bool,
    has_loop: bool,
}

/// What a reference forwards: every ordered host pair by name.
type RefPairs = Vec<((String, String), RefPair)>;

/// Asserts `forwarded` answers every pair the reference lists (`None` when
/// it lacks the pair) as the reference does; returns how many pairs were
/// compared.
fn assert_forwards_as(
    tag: &str,
    want: &RefPairs,
    forwarded: impl Fn(&str, &str) -> Option<Forwarded>,
) -> usize {
    for ((src, dst), expected) in want {
        let pair = forwarded(src, dst)
            .unwrap_or_else(|| panic!("{tag}: the simulation lacks {src} → {dst}"));
        let count = pair.paths.len();
        let got = RefPair {
            paths: pair.paths.into_iter().collect(),
            blackhole: pair.blackhole,
        };
        assert_eq!(
            count,
            got.paths.len(),
            "{tag}: {src} → {dst} repeats a path"
        );
        assert!(!pair.has_loop, "{tag}: {src} → {dst} loops");
        assert_eq!(&got, expected, "{tag}: {src} → {dst}");
    }
    want.len()
}

/// Asserts the simulation's data plane forwards every pair as the
/// reference does; returns the number of pairs compared.
fn assert_matches_reference(tag: &str, sim: &Simulation, want: &RefPairs) -> usize {
    assert_eq!(sim.dataplane.len(), want.len(), "{tag}: pair count");
    assert_forwards_as(tag, want, |src, dst| {
        let pair = sim.dataplane.between(src, dst)?;
        Some(Forwarded {
            paths: pair
                .paths()
                .map(|p| p.into_iter().map(String::from).collect())
                .collect(),
            blackhole: pair.blackhole(),
            has_loop: pair.has_loop(),
        })
    })
}

/// Asserts the warm handle's FIBs, traced pair by pair, forward as the
/// reference does.
fn assert_warm_matches_reference(tag: &str, cp: &WarmControlPlane, reference: &RefNet) {
    let net = cp.net();
    assert_forwards_as(tag, &reference.pairs(), |src, dst| {
        let set = trace(net, cp.fibs(), net.host_id(src)?, net.host_id(dst)?);
        let paths = set.paths().map(|hops| {
            let mut path = vec![src.to_string()];
            path.extend(hops.iter().map(|&r| net.router(r).name.clone()));
            path.push(dst.to_string());
            path
        });
        Some(Forwarded {
            paths: paths.collect(),
            blackhole: set.blackhole,
            has_loop: set.has_loop,
        })
    });
}

#[test]
fn cold_simulation_forwards_as_the_reference_on_random_ospf_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let (mut scenarios, mut pairs, mut blackholed) = (0usize, 0usize, 0usize);
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x0AC1_E000 ^ i);
        let spec = random_spec(&mut rng, 0);
        let configs = synthesize(&spec);
        let reference = RefNet::from_spec(&spec);
        let links = reference.link_names();
        assert_eq!(
            enumerate_single_link_failures(&configs).len(),
            links.len(),
            "seed {i}: every spec link is one k = 1 failure"
        );
        let healthy = simulate(&configs).unwrap();
        pairs +=
            assert_matches_reference(&format!("seed {i} healthy"), &healthy, &reference.pairs());
        for (li, (a, b)) in links.iter().enumerate() {
            let tag = format!("seed {i} link {a}–{b} down");
            let scenario = FailureScenario::single(Fault::LinkDown {
                a: a.clone(),
                b: b.clone(),
                added: false,
            });
            let failed = simulate(&scenario.apply(&configs).unwrap()).unwrap();
            let down = reference.without_link(li).pairs();
            pairs += assert_matches_reference(&tag, &failed, &down);
            blackholed += down.iter().filter(|(_, p)| p.blackhole).count();
            scenarios += 1;
        }
    }
    // Tree links exist in every network, so some failures partition it.
    assert!(blackholed > 0, "no failure partitioned a network");
    eprintln!(
        "reference: {seeds} network(s), {scenarios} failure(s), {pairs} pair(s) \
         ({blackholed} blackholed), zero mismatches"
    );
}

/// The RIP slice: on random RIP networks, cold `simulate` forwards every
/// pair as the hop-count reference does, healthy and after every single
/// link failure. `DELTA_DIFF_SEEDS` sets how many networks are generated
/// (default 8; CI runs 24).
#[test]
fn cold_simulation_forwards_as_the_hop_count_reference_on_random_rip_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let (mut scenarios, mut pairs, mut ecmp, mut blackholed) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x0A1B_E000 ^ i);
        let spec = random_spec(&mut rng, 1);
        let configs = synthesize(&spec);
        let reference = RipRef::from_spec(&spec);
        let links = reference.link_names();
        assert_eq!(
            enumerate_single_link_failures(&configs).len(),
            links.len(),
            "seed {i}: every spec link is one k = 1 failure"
        );
        let healthy = reference.pairs();
        ecmp += healthy.iter().filter(|(_, p)| p.paths.len() > 1).count();
        pairs += assert_matches_reference(
            &format!("seed {i} healthy"),
            &simulate(&configs).unwrap(),
            &healthy,
        );
        for (li, (a, b)) in links.iter().enumerate() {
            let scenario = FailureScenario::single(Fault::LinkDown {
                a: a.clone(),
                b: b.clone(),
                added: false,
            });
            let failed = simulate(&scenario.apply(&configs).unwrap()).unwrap();
            let down = reference.without_link(li).pairs();
            let tag = format!("seed {i} link {a}–{b} down");
            pairs += assert_matches_reference(&tag, &failed, &down);
            blackholed += down.iter().filter(|(_, p)| p.blackhole).count();
            scenarios += 1;
        }
    }
    // Equal-hop branches and partitioning tree links both occur.
    assert!(ecmp > 0, "no pair has equal-hop paths");
    assert!(blackholed > 0, "no failure partitioned a network");
    eprintln!(
        "RIP reference: {seeds} network(s), {scenarios} failure(s), {pairs} pair(s) \
         ({ecmp} healthy with ECMP, {blackholed} blackholed), zero mismatches"
    );
}

/// Every router interface on a point-to-point link, as `(router,
/// interface)`, with the router at the link's other end.
fn link_ends(configs: &NetworkConfigs) -> BTreeMap<(String, String), String> {
    let mut by_link: BTreeMap<Ipv4Prefix, Vec<(String, String)>> = BTreeMap::new();
    for (router, rc) in &configs.routers {
        for iface in &rc.interfaces {
            if let (Some((_, 31)), Some(prefix)) = (iface.address, iface.prefix()) {
                let end = (router.clone(), iface.name.clone());
                by_link.entry(prefix).or_default().push(end);
            }
        }
    }
    let mut out = BTreeMap::new();
    for ends in by_link.into_values() {
        let [a, b] = <[_; 2]>::try_from(ends).expect("a link has two ends");
        out.insert(a.clone(), b.0.clone());
        out.insert(b, a.0);
    }
    out
}

/// Random inbound distribute-list edits, the kinds the repair loops make
/// (`ensure_deny_entry`, `bind_igp_filter`, `remove_added_deny_entry`,
/// with exact and covering deny prefixes and one list shared between
/// interfaces): after each round, a cold simulation and the warm handle's
/// refreshed FIBs must both forward every pair as the reference does with
/// the same filters. `DELTA_DIFF_SEEDS` sets how many networks are
/// generated (default 8; CI runs 24).
#[test]
fn cold_and_warm_forward_as_the_reference_under_random_filters() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let (mut rounds, mut partial, mut dropped) = (0usize, 0usize, 0usize);
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x0F17_E000 ^ i);
        let spec = random_spec(&mut rng, 0);
        let configs = synthesize(&spec);
        let healthy = RefNet::from_spec(&spec);
        let ends = link_ends(&configs);
        let lans: BTreeMap<String, Ipv4Prefix> = configs
            .hosts
            .iter()
            .map(|(name, h)| (name.clone(), h.prefix().expect("hosts have a LAN")))
            .collect();
        let prefixes: Vec<Ipv4Prefix> = lans.values().copied().collect();
        let ifaces: Vec<&(String, String)> = ends.keys().collect();
        let mut patcher = Patcher::new(configs.clone());
        let mut cp = WarmControlPlane::new(patcher.network()).expect("healthy network converges");
        // The edit log the reference reads: deny entries per (router,
        // list), and the lists bound per (router, interface).
        let mut entries: BTreeSet<(String, String, Ipv4Prefix)> = BTreeSet::new();
        let mut bound: BTreeSet<(String, String, String)> = BTreeSet::new();
        for round in 0..8 {
            let mut touched = Vec::new();
            for _ in 0..rng.gen_range(1..=3) {
                let (router, iface) = ifaces[rng.gen_range(0..ifaces.len())].clone();
                let list = if rng.gen_bool(0.2) {
                    "Rej-shared".to_string()
                } else {
                    format!("Rej-{iface}")
                };
                let mut prefix = prefixes[rng.gen_range(0..prefixes.len())];
                if rng.gen_bool(0.2) {
                    prefix = Ipv4Prefix::new(prefix.network(), prefix.len() - 8).expect("supernet");
                }
                let mut bind = |patcher: &mut Patcher, router: &str, list: &str| {
                    patcher.bind_igp_filter(router, list, &iface).unwrap();
                    bound.insert((router.to_string(), iface.clone(), list.to_string()));
                };
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        patcher.ensure_deny_entry(&router, &list, prefix).unwrap();
                        entries.insert((router.clone(), list.clone(), prefix));
                        bind(&mut patcher, &router, &list);
                    }
                    // An entry on a list that may be bound only later.
                    2 => {
                        patcher.ensure_deny_entry(&router, &list, prefix).unwrap();
                        entries.insert((router.clone(), list, prefix));
                    }
                    _ if !entries.is_empty() => {
                        let at = rng.gen_range(0..entries.len());
                        let entry = entries.iter().nth(at).cloned().expect("in range");
                        let (r, l, p) = &entry;
                        assert!(patcher.remove_added_deny_entry(r, l, *p).unwrap());
                        entries.remove(&entry);
                        // The patcher drops a list it empties, and with it
                        // the list's bindings.
                        if !entries.iter().any(|(er, el, _)| (er, el) == (r, l)) {
                            bound.retain(|(br, _, bl)| (br, bl) != (r, l));
                        }
                        touched.push(cp.net().router_id(r).expect("router"));
                        continue;
                    }
                    _ => bind(&mut patcher, &router, &list),
                }
                touched.push(cp.net().router_id(&router).expect("router"));
            }
            let denies: Vec<(String, String, Ipv4Prefix)> = bound
                .iter()
                .flat_map(|(router, iface, list)| {
                    let neighbour = &ends[&(router.clone(), iface.clone())];
                    entries
                        .iter()
                        .filter(move |(r, l, _)| (r, l) == (router, list))
                        .map(move |(_, _, p)| (router.clone(), neighbour.clone(), *p))
                })
                .collect();
            let reference = healthy.with_filters(&lans, &denies);
            let tag = format!("seed {i} round {round}");
            let cold = simulate(patcher.network()).unwrap();
            assert_matches_reference(&format!("{tag} cold"), &cold, &reference.pairs());
            cp.refresh(patcher.network(), &touched).unwrap();
            assert_warm_matches_reference(&format!("{tag} warm"), &cp, &reference);
            let pairs = reference.pairs();
            partial += pairs
                .iter()
                .filter(|(_, p)| p.blackhole && !p.paths.is_empty())
                .count();
            dropped += pairs.iter().filter(|(_, p)| p.blackhole).count();
            rounds += 1;
        }
    }
    // The filters bite: some pair is dropped, and (over the default seeds)
    // some keeps paths next to a blackholed branch.
    assert!(dropped > 0, "no filter dropped a pair");
    if seeds >= 8 {
        assert!(partial > 0, "no pair held both paths and a blackhole");
    }
    eprintln!(
        "reference under filters: {seeds} network(s), {rounds} round(s), {dropped} dropped \
         pair(s) ({partial} with paths too), zero mismatches"
    );
}
