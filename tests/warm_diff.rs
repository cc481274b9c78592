//! Differential harness for the warm control plane: after every
//! [`WarmControlPlane::refresh`], every router's FIB and every interface's
//! resolved `igp_filters` must equal a `cold_control_plane` build of the
//! same configurations.
//!
//! Networks: random OSPF-only, RIP and two-AS BGP+OSPF networks, plus the
//! output of a ConfMask run with scale-obfuscation fake routers. Edits:
//! random sequences of the patcher calls the repair loops make —
//! `ensure_deny_entry`, `bind_igp_filter`, `remove_added_deny_entry` — on
//! random routers, with exact and covering (supernet) deny prefixes and
//! lists shared between interfaces; every sixth round instead adds an
//! interface or a host, which must take the cold path. After filter-only
//! edits OSPF-only networks must take the local path every time
//! (`sim.warm.full_fallbacks` stays 0); RIP and BGP networks must fall back
//! to the cold build.
//!
//! `DELTA_DIFF_SEEDS` controls how many random networks are generated
//! (default 8; CI runs more).

use confmask::{anonymize, Params};
use confmask_config::patch::Patcher;
use confmask_config::NetworkConfigs;
use confmask_net_types::{Ipv4Prefix, PrefixAllocator, RouterId};
use confmask_netgen::synthesize;
use confmask_sim::cold_control_plane;
use confmask_sim_delta::WarmControlPlane;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

#[path = "support/random_net.rs"]
mod random_net;
use random_net::random_spec;

/// The warm counters are process-global; tests that read them hold this.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    confmask_obs::report().counter(name).unwrap_or(0)
}

/// Asserts the warm handle equals a cold control-plane build of `configs`.
fn assert_matches_cold(tag: &str, cp: &WarmControlPlane, configs: &NetworkConfigs) {
    let (net, fibs, _) = cold_control_plane(configs).expect("cold build");
    assert_eq!(
        cp.net().router_count(),
        net.router_count(),
        "{tag}: router count"
    );
    for (rid, cold) in net.routers_iter() {
        let warm = cp.net().router(rid);
        assert_eq!(warm.name, cold.name, "{tag}: router order");
        assert_eq!(
            warm.ifaces.len(),
            cold.ifaces.len(),
            "{tag}: {} ifaces",
            cold.name
        );
        for (wi, ci) in warm.ifaces.iter().zip(&cold.ifaces) {
            assert_eq!(
                wi.igp_filters, ci.igp_filters,
                "{tag}: {} {} filters",
                cold.name, ci.name
            );
        }
        assert_eq!(
            cp.fibs().of(rid),
            fibs.of(rid),
            "{tag}: FIB of {} differs",
            cold.name
        );
    }
}

/// What one edit sequence did.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Refreshes after filter-only edits.
    refreshes: u64,
    /// How many of those fell back to the cold build.
    fallbacks: u64,
    /// How many of those changed some FIB.
    fib_changes: u64,
}

const FALLBACKS: &str = "sim.warm.full_fallbacks";

/// Applies `steps` rounds of random edits to `configs`, refreshing the warm
/// handle after each round and checking it against a cold build. Every
/// sixth round makes a structural edit (a new interface, or a new host and
/// its LAN), which must take the cold path; the others edit filters only.
fn run_edits(tag: &str, configs: NetworkConfigs, rng: &mut StdRng, steps: usize) -> Tally {
    let mut alloc = PrefixAllocator::new(configs.used_prefixes());
    let mut patcher = Patcher::new(configs);
    let mut cp = WarmControlPlane::new(patcher.network()).expect("baseline converges");
    let names: Vec<String> = patcher.network().routers.keys().cloned().collect();
    let prefixes: Vec<Ipv4Prefix> = cp.net().destinations.iter().map(|(p, _)| *p).collect();
    let mut added: Vec<(String, String, Ipv4Prefix)> = Vec::new();
    let mut tally = Tally::default();

    for step in 0..steps {
        let structural = step % 6 == 5;
        let mut touched: Vec<RouterId> = Vec::new();
        if structural {
            let router = &names[rng.gen_range(0..names.len())];
            let lan = alloc.allocate(24).expect("free address space");
            if step % 12 == 5 {
                patcher
                    .add_interface(router, lan.first_host(), lan.len(), None, None)
                    .unwrap();
            } else {
                patcher
                    .add_fake_host(router, &format!("warm-h{step}"), lan, false)
                    .unwrap();
            }
            touched.push(cp.net().router_id(router).expect("router"));
        }
        let filter_edits = if structural { 0 } else { rng.gen_range(1..=3) };
        for _ in 0..filter_edits {
            let router = &names[rng.gen_range(0..names.len())];
            let ifaces: Vec<String> = patcher.network().routers[router]
                .interfaces
                .iter()
                .filter(|i| i.address.is_some() && !i.shutdown)
                .map(|i| i.name.clone())
                .collect();
            if ifaces.is_empty() {
                continue;
            }
            let iface = &ifaces[rng.gen_range(0..ifaces.len())];
            let list = if rng.gen_bool(0.2) {
                "Rej-shared".to_string()
            } else {
                format!("Rej-{iface}")
            };
            let mut prefix = prefixes[rng.gen_range(0..prefixes.len())];
            if rng.gen_bool(0.2) {
                prefix = Ipv4Prefix::new(prefix.network(), prefix.len().saturating_sub(8))
                    .expect("supernet");
            }
            match rng.gen_range(0..4) {
                0 | 1 => {
                    patcher.ensure_deny_entry(router, &list, prefix).unwrap();
                    patcher.bind_igp_filter(router, &list, iface).unwrap();
                    added.push((router.clone(), list, prefix));
                }
                2 => {
                    // An entry on a list that may be bound only later.
                    patcher.ensure_deny_entry(router, &list, prefix).unwrap();
                    added.push((router.clone(), list, prefix));
                }
                _ if !added.is_empty() => {
                    let (r, l, p) = added.swap_remove(rng.gen_range(0..added.len()));
                    patcher.remove_added_deny_entry(&r, &l, p).unwrap();
                    touched.push(cp.net().router_id(&r).expect("router"));
                    continue;
                }
                _ => patcher.bind_igp_filter(router, &list, iface).unwrap(),
            }
            touched.push(cp.net().router_id(router).expect("router"));
        }
        let before = cp.fibs().clone();
        let fallbacks_before = counter(FALLBACKS);
        let step_tag = format!("{tag} step {step}");
        match cp.refresh(patcher.network(), &touched) {
            Ok(()) => assert_matches_cold(&step_tag, &cp, patcher.network()),
            Err(e) => {
                // A filter can make BGP diverge; the cold build must agree.
                let cold = cold_control_plane(patcher.network()).map(|_| ());
                assert_eq!(
                    cold.map_err(|e| e.to_string()),
                    Err(e.to_string()),
                    "{step_tag}"
                );
                break;
            }
        }
        let fell_back = counter(FALLBACKS) - fallbacks_before;
        if structural {
            assert_eq!(
                fell_back, 1,
                "{step_tag}: a structural edit must take the cold path"
            );
        } else {
            tally.refreshes += 1;
            tally.fallbacks += fell_back;
            tally.fib_changes += u64::from(&before != cp.fibs());
        }
    }
    tally
}

#[test]
fn warm_refresh_matches_cold_build_on_random_networks() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::set_enabled(true);
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    // Per flavor (OSPF, RIP, BGP+OSPF): networks checked and their tally.
    let mut per_flavor = [(0u64, Tally::default()); 3];
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x3A2A_0000 ^ i);
        let flavor = (i % 3) as u8;
        let configs = synthesize(&random_spec(&mut rng, flavor));
        // An unsimulatable healthy network is a generator artifact (e.g. a
        // BGP split isolating hosts), not a warm-refresh case: skip it.
        if cold_control_plane(&configs).is_err() {
            continue;
        }
        let tally = run_edits(&format!("seed {i} flavor {flavor}"), configs, &mut rng, 12);
        let (nets, total) = &mut per_flavor[flavor as usize];
        *nets += 1;
        total.refreshes += tally.refreshes;
        total.fallbacks += tally.fallbacks;
        total.fib_changes += tally.fib_changes;
    }
    let [(ospf_nets, ospf), (rip_nets, rip), (bgp_nets, bgp)] = &per_flavor;
    eprintln!(
        "warm-diff: {ospf_nets} OSPF, {rip_nets} RIP, {bgp_nets} BGP network(s); {} refreshes, zero mismatches",
        ospf.refreshes + rip.refreshes + bgp.refreshes
    );
    assert!(*ospf_nets > 0, "no OSPF network generated");
    assert_eq!(ospf.fallbacks, 0, "OSPF-only refreshes must stay local");
    assert!(ospf.fib_changes > 0, "the edits never moved a FIB");
    if seeds >= 3 {
        assert!(
            rip.fallbacks > 0,
            "RIP refreshes must fall back to the cold build"
        );
        assert!(
            bgp.fallbacks > 0,
            "BGP refreshes must fall back to the cold build"
        );
    }
}

#[test]
fn warm_refresh_matches_cold_build_with_fake_routers() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::set_enabled(true);
    let params = Params {
        k_r: 4,
        k_h: 2,
        fake_routers: 3,
        ..Params::default()
    };
    let net = confmask_netgen::smallnets::example_network();
    let result = anonymize(&net, &params).expect("scale pipeline");
    assert_eq!(result.scale.fake_routers.len(), 3);
    let mut rng = StdRng::seed_from_u64(0x3A2A_F00D);
    let tally = run_edits("fake routers", result.configs, &mut rng, 24);
    assert_eq!(
        tally.fallbacks, 0,
        "an OSPF-only ConfMask output refreshes locally"
    );
    assert!(tally.fib_changes > 0, "the edits never moved a FIB");
}
