//! Differential harness for data-plane extraction: for every ordered host
//! pair, [`extract_dataplane`]'s per-destination graphs must give exactly
//! what the per-pair DFS ([`dataplane::trace`]) gives — the same keys, the
//! same sorted paths, and the same `blackhole` and `has_loop` flags.
//!
//! Networks: random OSPF-only, RIP and two-AS BGP+OSPF networks; the
//! evaluation nets A–H, original and ConfMask-anonymized (where no pair may
//! need the per-pair fallback); a static r1↔r2 forwarding loop; and an
//! ECMP ladder whose path count passes [`MAX_PATHS_PER_PAIR`] (where the
//! fallback must reproduce the DFS's truncation).
//!
//! Every network also checks the lazy per-destination tracer
//! ([`DestTracer`]) that fault sweeps re-trace through: asked about the
//! sources in reverse order, or about one source alone, it must give what
//! the per-pair DFS gives, and send the same pairs to the DFS as
//! extraction does; the shape it reports behind an exact gateway, before
//! building the set, must be the per-pair set's.
//!
//! `DELTA_DIFF_SEEDS` controls how many random networks are generated
//! (default 8; CI runs more).

use confmask::{anonymize, Params};
use confmask_config::{parse_router, HostConfig, NetworkConfigs, StaticRoute};
use confmask_net_types::HostId;
use confmask_netgen::synthesize;
use confmask_sim::dataplane::{self, extract_dataplane, DestTracer, Reach, MAX_PATHS_PER_PAIR};
use confmask_sim::{simulate, PathSet, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

#[path = "support/random_net.rs"]
mod random_net;
use random_net::random_spec;

/// The fallback counter is process-global; tests that read it hold this.
static COUNTERS: Mutex<()> = Mutex::new(());

fn fallbacks() -> u64 {
    confmask_obs::report()
        .counter("sim.dataplane.dfs_fallbacks")
        .unwrap_or(0)
}

/// What a tracer's answer reads as: the path set [`dataplane::trace`]
/// returns for the pair.
fn reach_set(reach: Reach) -> PathSet {
    match reach {
        Reach::Unattached => PathSet::blackholed(),
        Reach::SameLan => PathSet::direct(),
        Reach::Paths(set) => (*set).clone(),
    }
}

/// Asserts a lazy tracer per destination, asked about the sources in
/// reverse order, equals per-pair tracing on every ordered pair; with
/// `alone`, also a fresh tracer per pair that is asked about that source
/// only. Returns the pairs the reverse-order tracers sent to the DFS.
fn assert_lazy_matches_per_pair(tag: &str, sim: &Simulation, alone: bool) -> u64 {
    let hosts: Vec<HostId> = sim.net.hosts_iter().map(|(id, _)| id).collect();
    let mut fell_back = 0;
    for &d in &hosts {
        let mut tracer = DestTracer::new(&sim.net, &sim.fibs, d);
        for &s in hosts.iter().rev().filter(|&&s| s != d) {
            let oracle = dataplane::trace(&sim.net, &sim.fibs, s, d);
            let (sn, dn) = (&sim.net.host(s).name, &sim.net.host(d).name);
            if let Some(shape) = tracer.exact_shape(s) {
                assert_eq!(
                    shape,
                    oracle.shape(),
                    "{tag}: lazy {sn}→{dn} shape differs from the per-pair DFS"
                );
            }
            assert_eq!(
                reach_set(tracer.reach(s)),
                oracle,
                "{tag}: lazy {sn}→{dn} differs from the per-pair DFS"
            );
            if alone {
                let mut single = DestTracer::new(&sim.net, &sim.fibs, d);
                assert_eq!(
                    reach_set(single.reach(s)),
                    oracle,
                    "{tag}: lazy {sn}→{dn} alone differs from the per-pair DFS"
                );
            }
        }
        fell_back += tracer.stats().dfs_fallbacks;
    }
    fell_back
}

/// Asserts the extracted data plane and the lazy tracers equal per-pair
/// tracing on every ordered pair, and returns the pairs the extraction
/// sent to the DFS.
fn assert_matches_per_pair(tag: &str, sim: &Simulation) -> u64 {
    let before = fallbacks();
    let dp = extract_dataplane(&sim.net, &sim.fibs).expect("extraction");
    let fell_back = fallbacks() - before;
    assert_eq!(dp, sim.dataplane, "{tag}: extraction is not deterministic");
    let hosts: Vec<HostId> = sim.net.hosts_iter().map(|(id, _)| id).collect();
    let n = hosts.len();
    assert_eq!(dp.len(), n * n.saturating_sub(1), "{tag}: pair count");
    for &s in &hosts {
        for &d in &hosts {
            if s == d {
                continue;
            }
            let (sn, dn) = (&sim.net.host(s).name, &sim.net.host(d).name);
            let oracle = dataplane::trace(&sim.net, &sim.fibs, s, d);
            assert_eq!(
                dp.between(sn, dn).map(|p| &**p.set),
                Some(&oracle),
                "{tag}: {sn}→{dn} differs from the per-pair DFS"
            );
        }
    }
    let lazy_fell_back = assert_lazy_matches_per_pair(tag, sim, false);
    assert_eq!(lazy_fell_back, fell_back, "{tag}: lazy DFS fallbacks");
    fell_back
}

#[test]
fn extraction_matches_per_pair_dfs_on_random_networks() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::set_enabled(true);
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mut checked = [0u64; 3];
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xDA7A_0000 ^ i);
        let flavor = (i % 3) as u8;
        let configs = synthesize(&random_spec(&mut rng, flavor));
        // An unsimulatable network is a generator artifact (e.g. a BGP
        // split isolating hosts), not an extraction case: skip it.
        let Ok(sim) = simulate(&configs) else {
            continue;
        };
        assert_matches_per_pair(&format!("seed {i} flavor {flavor}"), &sim);
        checked[flavor as usize] += 1;
    }
    let flavors = checked.iter().filter(|&&c| c > 0).count() as u64;
    assert_eq!(flavors, seeds.min(3), "every flavor ran: {checked:?}");
}

#[test]
fn extraction_matches_per_pair_dfs_on_evaluation_nets() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::set_enabled(true);
    for net in confmask_netgen::full_suite() {
        if !('A'..='H').contains(&net.id) {
            continue;
        }
        let before = fallbacks();
        let result = anonymize(&net.configs, &Params::default().with_seed(1))
            .unwrap_or_else(|e| panic!("net {}: {e}", net.id));
        assert_matches_per_pair(&format!("net {} original", net.id), &result.baseline.sim);
        assert_matches_per_pair(&format!("net {} anonymized", net.id), &result.final_sim);
        assert_eq!(
            fallbacks() - before,
            0,
            "net {}: every extraction of the run stays on the graph",
            net.id
        );
    }
}

fn host(name: &str, addr: &str, gw: &str) -> HostConfig {
    HostConfig {
        hostname: name.into(),
        iface_name: "eth0".into(),
        address: (addr.parse().unwrap(), 24),
        gateway: gw.parse().unwrap(),
        extra: vec![],
        added: false,
    }
}

fn router(text: &str) -> confmask_config::RouterConfig {
    parse_router(text).expect("router parses")
}

const OSPF_ALL: &str = "router ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n";

#[test]
fn static_loop_pairs_fall_back_and_keep_their_loop_flag() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::set_enabled(true);
    // Triangle r1–r2–r3, hosts on r1 and r3; r1 and r2 send a prefix no
    // one owns to each other, and h9 claims to live in it.
    let static_to = |prefix: &str, next_hop: &str| StaticRoute {
        prefix: prefix.parse().unwrap(),
        next_hop: next_hop.parse().unwrap(),
        added: false,
    };
    let mut r1 = router(&format!("hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.12.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.13.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.1.1 255.255.255.0\n!\n{OSPF_ALL}"));
    let mut r2 = router(&format!("hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.12.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.0 255.255.255.254\n!\n{OSPF_ALL}"));
    let r3 = router(&format!("hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.1 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.3.1 255.255.255.0\n!\n{OSPF_ALL}"));
    r1.static_routes.push(static_to("10.9.9.0/24", "10.0.12.1"));
    r2.static_routes.push(static_to("10.9.9.0/24", "10.0.12.0"));
    let net = NetworkConfigs::new(
        [r1, r2, r3],
        [
            host("h1", "10.1.1.100", "10.1.1.1"),
            host("h3", "10.1.3.100", "10.1.3.1"),
            host("h9", "10.9.9.100", "10.9.9.1"),
        ],
    );
    let sim = simulate(&net).unwrap();
    assert!(sim.dataplane.between("h1", "h9").unwrap().has_loop());
    assert!(sim.dataplane.between("h3", "h9").unwrap().blackhole());
    let fell_back = assert_matches_per_pair("static loop", &sim);
    assert_eq!(fell_back, 1, "only h1→h9 reaches the loop");
    assert_eq!(assert_lazy_matches_per_pair("static loop", &sim, true), 1);
}

#[test]
fn ladder_past_the_cap_falls_back_with_identical_truncation() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::set_enabled(true);
    // rsrc fans out to 20 middles into rdst, which fans out to 20 more
    // into rzfin: 400 equal-cost hs→hd2 paths, past the cap of 256.
    let mut src = String::from(
        "hostname rsrc\n!\ninterface Ethernet1/0\n ip address 10.1.1.1 255.255.255.0\n!\n",
    );
    let mut dst = String::from(
        "hostname rdst\n!\ninterface Ethernet1/0\n ip address 10.1.2.1 255.255.255.0\n!\n",
    );
    let mut fin = String::from(
        "hostname rzfin\n!\ninterface Ethernet1/0\n ip address 10.1.3.1 255.255.255.0\n!\n",
    );
    let mut routers = Vec::new();
    for m in 0..20 {
        src.push_str(&format!(
            "interface Ethernet0/{m}\n ip address 10.0.{m}.0 255.255.255.254\n!\n"
        ));
        dst.push_str(&format!(
            "interface Ethernet0/{m}\n ip address 10.0.{m}.3 255.255.255.254\n!\n"
        ));
        dst.push_str(&format!(
            "interface Ethernet2/{m}\n ip address 10.2.{m}.0 255.255.255.254\n!\n"
        ));
        fin.push_str(&format!(
            "interface Ethernet0/{m}\n ip address 10.2.{m}.3 255.255.255.254\n!\n"
        ));
        for (name, net) in [("rmid", 0), ("rnid", 2)] {
            routers.push(router(&format!(
                "hostname {name}{m:02}\n!\ninterface Ethernet0/0\n ip address 10.{net}.{m}.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.{net}.{m}.2 255.255.255.254\n!\n{OSPF_ALL}"
            )));
        }
    }
    for mut text in [src, dst, fin] {
        text.push_str(OSPF_ALL);
        routers.push(router(&text));
    }
    let net = NetworkConfigs::new(
        routers,
        [
            host("hs", "10.1.1.100", "10.1.1.1"),
            host("hd", "10.1.2.100", "10.1.2.1"),
            host("hd2", "10.1.3.100", "10.1.3.1"),
        ],
    );
    let sim = simulate(&net).unwrap();
    let capped = sim.dataplane.between("hs", "hd2").unwrap();
    assert!(capped.path_count() <= MAX_PATHS_PER_PAIR && capped.clean());
    assert_eq!(sim.dataplane.between("hs", "hd").unwrap().path_count(), 20);
    let fell_back = assert_matches_per_pair("ladder", &sim);
    assert_eq!(fell_back, 2, "only hs↔hd2 pass the cap");
    assert_eq!(assert_lazy_matches_per_pair("ladder", &sim, true), 2);
}
