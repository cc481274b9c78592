//! Differential harness for longest-prefix match: [`Fib::lookup`] must
//! return exactly the entry a linear scan of the table picks (the longest
//! prefix containing the address), on every probe.
//!
//! The linear scan lives only here. The simulator's other differentials
//! (`delta_diff`, `dataplane_diff`, `warm_diff`) call `Fib::lookup` on both
//! of their sides, so they cannot catch a lookup bug.
//!
//! Tables: random FIBs with prefix lengths 0–32 (a `/0` default on every
//! other table, `/32` host routes, nested prefixes and an insert that
//! overwrites an existing prefix), and every router FIB of the evaluation
//! nets A–H, original and ConfMask-anonymized. Probes: every host address,
//! each entry's first and last address and their neighbours, and random
//! addresses.
//!
//! `DELTA_DIFF_SEEDS` controls how many random FIBs are generated
//! (default 8; CI runs more).

use confmask::{anonymize, Params};
use confmask_net_types::{Ipv4Addr, Ipv4Prefix};
use confmask_sim::{Fib, FibEntry, NextHop, RouteSource, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference rule: the longest entry whose prefix contains `addr`.
fn linear_lookup(fib: &Fib, addr: Ipv4Addr) -> Option<&FibEntry> {
    fib.entries()
        .filter(|e| e.prefix.contains_addr(addr))
        .max_by_key(|e| e.prefix.len())
}

/// Each entry's first and last address, and the addresses just outside.
fn edge_probes(fib: &Fib) -> Vec<Ipv4Addr> {
    let mut out = Vec::new();
    for e in fib.entries() {
        let first = u32::from(e.prefix.network());
        let last = first | u32::MAX.checked_shr(u32::from(e.prefix.len())).unwrap_or(0);
        for a in [first.wrapping_sub(1), first, last, last.wrapping_add(1)] {
            out.push(Ipv4Addr::from(a));
        }
    }
    out
}

fn assert_lookups_match(tag: &str, fib: &Fib, probes: impl IntoIterator<Item = Ipv4Addr>) {
    for addr in probes {
        assert_eq!(
            fib.lookup(addr),
            linear_lookup(fib, addr),
            "{tag}: lookup of {addr} differs from the linear scan"
        );
    }
}

fn entry(prefix: Ipv4Prefix, source: RouteSource, iface: usize) -> FibEntry {
    FibEntry {
        prefix,
        source,
        next_hops: vec![NextHop::Deliver { iface }],
    }
}

/// Addresses drawn mostly from a small pool (10.0–3.0–3.x) so prefixes
/// nest and overlap, sometimes from the whole space.
fn random_addr(rng: &mut StdRng) -> Ipv4Addr {
    if rng.gen_bool(0.8) {
        Ipv4Addr::from(0x0A00_0000 | (rng.gen::<u32>() & 0x0003_03FF))
    } else {
        Ipv4Addr::from(rng.gen::<u32>())
    }
}

#[test]
fn lookup_matches_linear_scan_on_random_fibs() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xF1B_0000 ^ i);
        let tag = format!("seed {i}");
        let mut fib = Fib::default();
        let mut prefixes: Vec<Ipv4Prefix> = Vec::new();
        if i % 2 == 0 {
            fib.insert(entry(Ipv4Prefix::DEFAULT_ROUTE, RouteSource::Static, 0));
            prefixes.push(Ipv4Prefix::DEFAULT_ROUTE);
        }
        let mut hosts = Vec::new();
        for k in 0..rng.gen_range(8usize..64) {
            let prefix = match rng.gen_range(0u8..4) {
                // Nested inside an existing prefix, one to eight bits longer.
                0 if !prefixes.is_empty() => {
                    let outer = prefixes[rng.gen_range(0..prefixes.len())];
                    let len = (outer.len() + rng.gen_range(1u8..=8)).min(32);
                    let inner = u32::from(outer.network())
                        | (u32::from(random_addr(&mut rng)) & !u32::from(outer.subnet_mask()));
                    Ipv4Prefix::new(Ipv4Addr::from(inner), len).unwrap()
                }
                // A /32 host route.
                1 => {
                    let addr = random_addr(&mut rng);
                    hosts.push(addr);
                    Ipv4Prefix::new(addr, 32).unwrap()
                }
                _ => Ipv4Prefix::new(random_addr(&mut rng), rng.gen_range(0u8..=32)).unwrap(),
            };
            fib.insert(entry(prefix, RouteSource::Ospf, k + 1));
            prefixes.push(prefix);
        }
        // Overwrite an existing prefix: the lookup must see the new entry.
        let victim = prefixes[rng.gen_range(0..prefixes.len())];
        let replacement = entry(victim, RouteSource::Connected, 999);
        fib.insert(replacement.clone());
        assert_eq!(fib.entry(&victim), Some(&replacement), "{tag}: overwrite");
        let victim_addr = victim.network();
        let hit = fib
            .lookup(victim_addr)
            .expect("the overwritten prefix matches");
        assert!(hit.prefix.len() >= victim.len(), "{tag}: overwrite hidden");

        let random: Vec<Ipv4Addr> = (0..256).map(|_| random_addr(&mut rng)).collect();
        assert_lookups_match(&tag, &fib, edge_probes(&fib));
        assert_lookups_match(&tag, &fib, hosts);
        assert_lookups_match(&tag, &fib, random);
        assert_lookups_match(
            &tag,
            &fib,
            [Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(255, 255, 255, 255)],
        );
    }
}

#[test]
fn lookup_matches_linear_scan_on_evaluation_nets() {
    fn check_sim(tag: &str, sim: &Simulation, rng: &mut StdRng) {
        let host_addrs: Vec<Ipv4Addr> = sim.net.hosts_iter().map(|(_, h)| h.addr).collect();
        for (rid, router) in sim.net.routers_iter() {
            let fib = sim.fibs.of(rid);
            let tag = format!("{tag} router {}", router.name);
            let random: Vec<Ipv4Addr> = (0..64).map(|_| Ipv4Addr::from(rng.gen::<u32>())).collect();
            assert_lookups_match(&tag, fib, host_addrs.iter().copied());
            assert_lookups_match(&tag, fib, edge_probes(fib));
            assert_lookups_match(&tag, fib, random);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xF1B);
    for net in confmask_netgen::full_suite() {
        if !('A'..='H').contains(&net.id) {
            continue;
        }
        let result = anonymize(&net.configs, &Params::default().with_seed(1))
            .unwrap_or_else(|e| panic!("net {}: {e}", net.id));
        check_sim(
            &format!("net {} original", net.id),
            &result.baseline.sim,
            &mut rng,
        );
        check_sim(
            &format!("net {} anonymized", net.id),
            &result.final_sim,
            &mut rng,
        );
    }
}
