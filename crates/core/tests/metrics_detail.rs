//! Detailed metric coverage: N_r grouping corner cases and path
//! preservation against partially broken data planes.

use confmask::metrics::{config_utility, path_preservation, route_anonymity};
use confmask_sim::{DataPlane, DataPlaneBuilder};
use std::collections::BTreeSet;

fn path(nodes: &[&str]) -> Vec<String> {
    nodes.iter().map(|s| s.to_string()).collect()
}

#[test]
fn route_anonymity_single_router_pairs() {
    // Paths whose ingress == egress router (two LANs on one router) form
    // their own (r, r) group.
    let mut dp = DataPlaneBuilder::new();
    dp.insert("h1", "h2", vec![path(&["h1", "r1", "h2"])], false, false);
    let nr = route_anonymity(&dp.build());
    assert_eq!(nr.per_pair.len(), 1);
    assert_eq!(nr.per_pair[&("r1".to_string(), "r1".to_string())], 1);
}

#[test]
fn route_anonymity_directional_groups() {
    // (r1, r2) and (r2, r1) are distinct ingress/egress groups.
    let mut dp = DataPlaneBuilder::new();
    dp.insert("a", "b", vec![path(&["a", "r1", "r2", "b"])], false, false);
    dp.insert("b", "a", vec![path(&["b", "r2", "r1", "a"])], false, false);
    let nr = route_anonymity(&dp.build());
    assert_eq!(nr.per_pair.len(), 2);
}

#[test]
fn path_preservation_counts_blackholes_as_lost() {
    let mut orig = DataPlaneBuilder::new();
    orig.insert("h1", "h2", vec![path(&["h1", "r1", "h2"])], false, false);
    let mut broken = DataPlaneBuilder::new();
    broken.insert("h1", "h2", Vec::<Vec<String>>::new(), true, false);
    let (orig, broken) = (orig.build(), broken.build());
    let hosts: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
    assert_eq!(path_preservation(&orig, &broken, &hosts), 0.0);
    // A missing pair also counts as lost.
    let empty = DataPlane::default();
    assert_eq!(path_preservation(&orig, &empty, &hosts), 0.0);
}

#[test]
fn config_utility_saturates() {
    assert_eq!(config_utility(100, 0), 1.0);
    assert!(config_utility(100, 100) <= 0.0 + 1e-12);
}

#[test]
fn route_anonymity_counts_cross_host_duplicates_once() {
    // Two different host pairs with the SAME router sequence contribute a
    // single distinct path to the group.
    let seq = ["r1", "r2", "r3"];
    let mut dp = DataPlaneBuilder::new();
    for (s, d) in [("a", "x"), ("b", "y")] {
        let mut p = vec![s.to_string()];
        p.extend(seq.iter().map(|r| r.to_string()));
        p.push(d.to_string());
        dp.insert(s, d, vec![p], false, false);
    }
    let nr = route_anonymity(&dp.build());
    assert_eq!(nr.per_pair[&("r1".to_string(), "r3".to_string())], 1);
}
