//! Differential harness for longest-prefix match and the flat FIB
//! layout: [`Fib::lookup`] must return exactly the entry a linear scan of
//! the table picks (the longest prefix containing the address), on every
//! probe, and [`FibBuilder`] and [`Fib::patched`] must produce the table a
//! plain prefix map describes.
//!
//! The linear scan lives only here. The simulator's other differentials
//! (`delta_diff`, `dataplane_diff`, `warm_diff`) call `Fib::lookup` on both
//! of their sides, so they cannot catch a lookup bug.
//!
//! Tables: random FIBs with prefix lengths 0–32 (a `/0` default on every
//! other table, `/32` host routes, nested prefixes and a push that
//! overwrites an existing prefix, all pushed in random order), their
//! patched copies (every entry renumbered, a random owned subset replaced
//! or dropped, new owned prefixes added), and every router FIB of the
//! evaluation nets A–H, original and ConfMask-anonymized. Probes: every
//! host address, each entry's first and last address and their
//! neighbours, and random addresses.
//!
//! `DELTA_DIFF_SEEDS` controls how many random FIBs are generated
//! (default 8; CI runs more).

use confmask::{anonymize, Params};
use confmask_net_types::{Ipv4Addr, Ipv4Prefix};
use confmask_sim::{Fib, FibBuilder, FibEntry, NextHop, RouteSource, Simulation};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The reference rule: the longest entry whose prefix contains `addr`.
fn linear_lookup(fib: &Fib, addr: Ipv4Addr) -> Option<FibEntry<'_>> {
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

/// Every kind of probe over `fib`, plus `extra` addresses.
fn assert_all_lookups_match(tag: &str, fib: &Fib, extra: &[Ipv4Addr]) {
    assert_lookups_match(tag, fib, edge_probes(fib));
    assert_lookups_match(tag, fib, extra.iter().copied());
    assert_lookups_match(
        tag,
        fib,
        [Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(255, 255, 255, 255)],
    );
}

/// A plain model of a table: prefix → (source, next hops).
type Model = BTreeMap<Ipv4Prefix, (RouteSource, Vec<NextHop>)>;

fn assert_table_is(tag: &str, fib: &Fib, model: &Model) {
    let got: Vec<_> = fib.entries().collect();
    let want: Vec<_> = model
        .iter()
        .map(|(prefix, (source, hops))| FibEntry {
            prefix: *prefix,
            source: *source,
            next_hops: hops,
        })
        .collect();
    assert_eq!(got, want, "{tag}: table differs from its model");
    for e in &want {
        assert_eq!(fib.entry(&e.prefix).as_ref(), Some(e), "{tag}: entry");
    }
}

fn build(pushes: &[(Ipv4Prefix, RouteSource, Vec<NextHop>)]) -> Fib {
    let mut b = FibBuilder::default();
    for (prefix, source, hops) in pushes {
        b.push(*prefix, *source, hops.iter().copied());
    }
    b.build()
}

fn deliver(ifaces: &[usize]) -> Vec<NextHop> {
    ifaces
        .iter()
        .map(|&iface| NextHop::Deliver { iface })
        .collect()
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

/// A random prefix: nested inside one of `prefixes`, a /32 host route
/// (recorded in `hosts`), or any length.
fn random_prefix(
    rng: &mut StdRng,
    prefixes: &[Ipv4Prefix],
    hosts: &mut Vec<Ipv4Addr>,
) -> Ipv4Prefix {
    match rng.gen_range(0u8..4) {
        // Nested inside an existing prefix, one to eight bits longer.
        0 if !prefixes.is_empty() => {
            let outer = prefixes[rng.gen_range(0..prefixes.len())];
            let len = (outer.len() + rng.gen_range(1u8..=8)).min(32);
            let inner = u32::from(outer.network())
                | (u32::from(random_addr(rng)) & !u32::from(outer.subnet_mask()));
            Ipv4Prefix::new(Ipv4Addr::from(inner), len).unwrap()
        }
        1 => {
            let addr = random_addr(rng);
            hosts.push(addr);
            Ipv4Prefix::new(addr, 32).unwrap()
        }
        _ => Ipv4Prefix::new(random_addr(rng), rng.gen_range(0u8..=32)).unwrap(),
    }
}

#[test]
fn builder_keeps_the_last_push_and_covers_both_length_extremes() {
    let empty = FibBuilder::default().build();
    assert!(empty.is_empty());
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.entries().count(), 0);
    assert_eq!(empty.lookup(Ipv4Addr::new(10, 0, 0, 1)), None);
    assert_eq!(empty, Fib::default());

    let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
    let pushes = [
        (p("10.1.2.3/32"), RouteSource::Static, deliver(&[3])),
        (p("0.0.0.0/0"), RouteSource::Static, deliver(&[0])),
        (p("10.1.0.0/16"), RouteSource::Ospf, deliver(&[1, 2])),
        (p("0.0.0.0/0"), RouteSource::Ebgp, deliver(&[4, 5])),
        (p("10.1.2.3/32"), RouteSource::Connected, deliver(&[6])),
    ];
    let fib = build(&pushes);
    let model: Model = pushes
        .iter()
        .map(|(prefix, source, hops)| (*prefix, (*source, hops.clone())))
        .collect();
    assert_table_is("duplicates", &fib, &model);
    let at = |addr: [u8; 4]| {
        fib.lookup(Ipv4Addr::from(addr))
            .map(|e| (e.prefix, e.source))
    };
    assert_eq!(
        at([10, 1, 2, 3]),
        Some((p("10.1.2.3/32"), RouteSource::Connected))
    );
    assert_eq!(
        at([10, 1, 2, 4]),
        Some((p("10.1.0.0/16"), RouteSource::Ospf))
    );
    assert_eq!(at([0, 0, 0, 0]), Some((p("0.0.0.0/0"), RouteSource::Ebgp)));
    assert_eq!(
        at([255, 255, 255, 255]),
        Some((p("0.0.0.0/0"), RouteSource::Ebgp))
    );
    assert_all_lookups_match("duplicates", &fib, &[]);
    // The layout is canonical: the same entries pushed once each, in
    // order, give an equal table.
    let sorted: Vec<_> = model
        .iter()
        .map(|(prefix, (source, hops))| (*prefix, *source, hops.clone()))
        .collect();
    assert_eq!(build(&sorted), fib);

    // A table of only /0 and only /32.
    let only = build(&[(p("0.0.0.0/0"), RouteSource::Static, deliver(&[0]))]);
    assert_eq!(
        only.lookup(Ipv4Addr::new(1, 2, 3, 4)).unwrap().prefix,
        p("0.0.0.0/0")
    );
    let host = build(&[(p("10.0.0.1/32"), RouteSource::Static, deliver(&[0]))]);
    assert!(host.lookup(Ipv4Addr::new(10, 0, 0, 1)).is_some());
    assert!(host.lookup(Ipv4Addr::new(10, 0, 0, 0)).is_none());
    assert!(host.lookup(Ipv4Addr::new(10, 0, 0, 2)).is_none());
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
        let mut pushes: Vec<(Ipv4Prefix, RouteSource, Vec<NextHop>)> = Vec::new();
        let mut prefixes: Vec<Ipv4Prefix> = Vec::new();
        if i % 2 == 0 {
            pushes.push((
                Ipv4Prefix::DEFAULT_ROUTE,
                RouteSource::Static,
                deliver(&[0]),
            ));
            prefixes.push(Ipv4Prefix::DEFAULT_ROUTE);
        }
        let mut hosts = Vec::new();
        for k in 0..rng.gen_range(8usize..64) {
            let prefix = random_prefix(&mut rng, &prefixes, &mut hosts);
            let ifaces: Vec<usize> = (0..rng.gen_range(1..4)).map(|j| 4 * k + j + 1).collect();
            pushes.push((prefix, RouteSource::Ospf, deliver(&ifaces)));
            prefixes.push(prefix);
        }
        pushes.shuffle(&mut rng);
        // Overwrite an existing prefix, last: the table must hold the new
        // entry.
        let victim = prefixes[rng.gen_range(0..prefixes.len())];
        pushes.push((victim, RouteSource::Connected, deliver(&[999])));
        let fib = build(&pushes);
        let model: Model = pushes
            .iter()
            .map(|(prefix, source, hops)| (*prefix, (*source, hops.clone())))
            .collect();
        assert_table_is(&tag, &fib, &model);
        assert_eq!(
            fib.entry(&victim).map(|e| e.source),
            Some(RouteSource::Connected),
            "{tag}: overwrite"
        );
        let hit = fib
            .lookup(victim.network())
            .expect("the overwritten prefix matches");
        assert!(hit.prefix.len() >= victim.len(), "{tag}: overwrite hidden");

        let mut probes: Vec<Ipv4Addr> = (0..256).map(|_| random_addr(&mut rng)).collect();
        probes.extend(&hosts);
        assert_all_lookups_match(&tag, &fib, &probes);

        // Patch: renumber every copied hop (interface i → i + 1), and own
        // a random subset of the keys plus some new prefixes. An owned
        // prefix is replaced, dropped, or (when new) added.
        let mut owned: Vec<Ipv4Prefix> = prefixes
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.2))
            .collect();
        for _ in 0..rng.gen_range(0..4) {
            let fresh = random_prefix(&mut rng, &prefixes, &mut hosts);
            owned.push(fresh);
        }
        owned.sort_unstable();
        owned.dedup();
        let replacement: BTreeMap<Ipv4Prefix, Option<Vec<NextHop>>> = owned
            .iter()
            .map(|p| {
                (
                    *p,
                    rng.gen_bool(0.7).then(|| deliver(&[rng.gen_range(0..8)])),
                )
            })
            .collect();
        let renumber = |hop: NextHop| hop.renumbered(|i| Some(i + 1));
        let patched = fib
            .patched(&owned, renumber, |b, k| {
                let p = owned[k];
                if let Some(hops) = &replacement[&p] {
                    b.push(p, RouteSource::Ospf, hops.iter().copied());
                }
            })
            .expect("every copied hop renumbers");
        let mut want: Model = model
            .iter()
            .filter(|(p, _)| owned.binary_search(p).is_err())
            .map(|(p, (source, hops))| {
                let hops = hops.iter().map(|h| renumber(*h).unwrap()).collect();
                (*p, (*source, hops))
            })
            .collect();
        for (p, hops) in &replacement {
            if let Some(hops) = hops {
                want.insert(*p, (RouteSource::Ospf, hops.clone()));
            }
        }
        let tag = format!("{tag} patched");
        assert_table_is(&tag, &patched, &want);
        probes.extend(owned.iter().map(|p| p.network()));
        assert_all_lookups_match(&tag, &patched, &probes);
        // A copied hop that does not renumber declines the patch; one
        // under an owned prefix is never asked.
        let copied = model
            .keys()
            .find(|p| owned.binary_search(p).is_err())
            .expect("some key is not owned");
        let gone = model[copied].1[0];
        let declined = fib.patched(&owned, |h| (h != gone).then_some(h), |_, _| {});
        assert!(declined.is_none(), "{tag}: a copied hop failed to renumber");
        if let Some(p) = owned.iter().find(|p| model.contains_key(p)) {
            let owned_hops = model[p].1.clone();
            let kept = fib.patched(
                &owned,
                |h| (!owned_hops.contains(&h)).then_some(h),
                |_, _| {},
            );
            assert!(
                kept.is_some(),
                "{tag}: an owned entry's hops were renumbered"
            );
        }
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
