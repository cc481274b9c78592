//! De-anonymization attacks — the adversary's toolkit (§2.2 threat model,
//! §4.3's de-anonymization discussion, §5.4's privacy analysis).
//!
//! These are the attacks ConfMask is designed to defeat, implemented so the
//! defense can be *measured* rather than asserted:
//!
//! * [`degree_reidentification`] — the adversary knows a victim router's
//!   degree in the original network (e.g. from partial knowledge of the
//!   deployment) and tries to locate it in the shared topology. k-degree
//!   anonymity bounds the success probability by `1/k`.
//! * [`detect_unified_filter_pattern`] — the §4.3 attack on Strawman 1:
//!   "an adversary can potentially identify the fake interfaces that always
//!   bind to a minimal subset of dropped prefixes shared by all routers."
//! * [`dead_link_detection`] — the §3.2 attack on the "large cost"
//!   strawman: fake links that carry no traffic at all are identifiable by
//!   simulating the shared network (Batfish is available to the adversary
//!   per the threat model).

use confmask_config::NetworkConfigs;
use confmask_sim::Simulation;
use confmask_topology::Topology;
use std::collections::{BTreeMap, BTreeSet};

/// Result of a degree re-identification attempt.
#[derive(Debug, Clone, Default)]
pub struct ReidentificationReport {
    /// For each original router: size of its anonymity set (routers in the
    /// shared topology whose degree matches the victim's *anonymized*
    /// degree — the best the adversary can narrow down to).
    pub anonymity_sets: BTreeMap<String, usize>,
}

impl ReidentificationReport {
    /// Expected success probability of picking the victim uniformly from
    /// its anonymity set, averaged over victims.
    pub fn expected_success(&self) -> f64 {
        if self.anonymity_sets.is_empty() {
            return 0.0;
        }
        self.anonymity_sets
            .values()
            .map(|&s| if s == 0 { 0.0 } else { 1.0 / s as f64 })
            .sum::<f64>()
            / self.anonymity_sets.len() as f64
    }

    /// The worst-case (smallest) anonymity set.
    pub fn min_set(&self) -> usize {
        self.anonymity_sets.values().copied().min().unwrap_or(0)
    }
}

/// Degree re-identification: for every router of the original topology,
/// how many routers of the shared topology share its (shared-topology)
/// router-degree? k-degree anonymity guarantees every set has size ≥ k, so
/// the attack's expected success is ≤ 1/k.
pub fn degree_reidentification(original: &Topology, shared: &Topology) -> ReidentificationReport {
    // Degree histogram of the shared graph.
    let mut classes: BTreeMap<usize, usize> = BTreeMap::new();
    for r in shared.routers() {
        *classes.entry(shared.router_degree(r)).or_insert(0) += 1;
    }
    let mut report = ReidentificationReport::default();
    for r in original.routers() {
        let name = original.name(r);
        // The victim is in the shared graph under the same name (ConfMask
        // does not rename; PII renaming is an add-on). Its anonymity set is
        // its shared-degree class.
        let set = shared
            .node(name)
            .map(|v| classes.get(&shared.router_degree(v)).copied().unwrap_or(0))
            .unwrap_or(0);
        report.anonymity_sets.insert(name.to_string(), set);
    }
    report
}

/// The Strawman 1 detector (§4.3): "an adversary can potentially identify
/// the fake interfaces that always bind to a minimal subset of dropped
/// prefixes **shared by all routers**". The detector groups bound deny-lists
/// by their exact deny-set and flags a large set (≥ 5 entries and at least
/// half the size of the largest deny-set present) replicated on several
/// routers — the unified pattern Strawman 1 necessarily leaves. ConfMask's
/// per-destination lists are small and vary per attachment point, so
/// nothing reaches the size floor.
///
/// Returns `(router, filter-list name)` pairs carrying the pattern.
pub fn detect_unified_filter_pattern(net: &NetworkConfigs) -> Vec<(String, String)> {
    // Collect every bound deny-set per router.
    let mut by_set: BTreeMap<Vec<confmask_net_types::Ipv4Prefix>, Vec<(String, String)>> =
        BTreeMap::new();
    let mut filtering_routers: BTreeSet<&String> = BTreeSet::new();
    for (rname, rc) in &net.routers {
        for pl in &rc.prefix_lists {
            let mut denied: Vec<_> = pl
                .entries
                .iter()
                .filter(|e| e.action == confmask_config::FilterAction::Deny)
                .map(|e| e.prefix)
                .collect();
            if denied.is_empty() {
                continue;
            }
            denied.sort();
            denied.dedup();
            filtering_routers.insert(rname);
            by_set
                .entry(denied)
                .or_default()
                .push((rname.clone(), pl.name.clone()));
        }
    }
    if filtering_routers.len() < 2 {
        return Vec::new(); // no cross-router pattern possible
    }
    // The pattern: the *dominating* deny-set — one at least 5 entries long
    // and at least half the size of the largest deny-set in the network —
    // replicated verbatim on several routers. ConfMask's per-destination
    // lists stay small and varied (empirically ≤ ~4 entries, rarely
    // repeated), while Strawman 1 stamps the full host-prefix list on every
    // fake attachment point.
    let max_set = by_set.keys().map(|s| s.len()).max().unwrap_or(0);
    let size_floor = 5.max(max_set.div_ceil(2));
    let mut suspicious = Vec::new();
    for (set, holders) in by_set {
        if set.len() < size_floor {
            continue;
        }
        let routers: BTreeSet<&String> = holders.iter().map(|(r, _)| r).collect();
        if routers.len() >= 2 {
            suspicious.extend(holders);
        }
    }
    suspicious
}

/// Traffic census over a simulated shared network: which router-router
/// links carry at least one host-to-host forwarding path?
#[derive(Debug, Clone, Default)]
pub struct LinkTraffic {
    /// Links carrying traffic, as sorted name pairs.
    pub used: BTreeSet<(String, String)>,
    /// Links carrying no traffic at all.
    pub dead: BTreeSet<(String, String)>,
}

/// The dead-link detector (§3.2's "set a large cost" attack): simulate the
/// shared network and flag links no path ever crosses. In a ConfMask output
/// the fake links carry fake-host traffic, so they do not stand out; in the
/// "large cost" strawman every fake link is dead.
pub fn dead_link_detection(sim: &Simulation) -> LinkTraffic {
    let mut all_links: BTreeSet<(String, String)> = BTreeSet::new();
    for (rid, r) in sim.net.routers_iter() {
        for iface in &r.ifaces {
            for peer in &iface.peers {
                if let confmask_sim::Peer::Router { router, .. } = peer {
                    let a = sim.net.router(rid).name.clone();
                    let b = sim.net.router(*router).name.clone();
                    all_links.insert((a.clone().min(b.clone()), a.max(b)));
                }
            }
        }
    }

    let mut used: BTreeSet<(String, String)> = BTreeSet::new();
    for ps in sim.dataplane.pairs() {
        for path in ps.paths() {
            for w in path.windows(2) {
                // Only router-router hops (endpoints are hosts).
                let (a, b) = (w[0], w[1]);
                if sim.net.router_id(a).is_some() && sim.net.router_id(b).is_some() {
                    used.insert((a.min(b).to_string(), a.max(b).to_string()));
                }
            }
        }
    }

    let dead = all_links.difference(&used).cloned().collect();
    LinkTraffic { used, dead }
}

/// Fraction of *fake* links that carry traffic in a shared network
/// (1.0 = fully camouflaged; 0.0 = every fake link is detectable as dead).
pub fn fake_link_camouflage(
    sim: &Simulation,
    fake_links: &[crate::topo_anon::FakeLink],
) -> f64 {
    if fake_links.is_empty() {
        return 1.0;
    }
    let traffic = dead_link_detection(sim);
    let covered = fake_links
        .iter()
        .filter(|l| {
            let key = (l.a.clone().min(l.b.clone()), l.a.clone().max(l.b.clone()));
            traffic.used.contains(&key)
        })
        .count();
    covered as f64 / fake_links.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{anonymize, EquivalenceMode, Params};
    use confmask_netgen::smallnets::example_network;
    use confmask_topology::extract::extract_topology;

    #[test]
    fn reidentification_bounded_by_k() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
        let k = 6;
        let result = anonymize(&net, &Params::new(k, 2)).unwrap();
        let orig = extract_topology(&net);
        let shared = extract_topology(&result.configs);

        let before = degree_reidentification(&orig, &orig);
        let after = degree_reidentification(&orig, &shared);
        assert!(after.min_set() >= k, "anonymity set ≥ k, got {}", after.min_set());
        assert!(
            after.expected_success() <= 1.0 / k as f64 + 1e-9,
            "success {:.3} > 1/k",
            after.expected_success()
        );
        assert!(
            after.expected_success() < before.expected_success(),
            "anonymization must reduce the attack: {:.3} -> {:.3}",
            before.expected_success(),
            after.expected_success()
        );
    }

    #[test]
    fn strawman1_detected_confmask_not() {
        let net = confmask_netgen::synthesize(&confmask_netgen::smallnets::university());
        let s1 = anonymize(
            &net,
            &Params::new(3, 2).with_mode(EquivalenceMode::Strawman1),
        )
        .unwrap();
        assert!(
            !detect_unified_filter_pattern(&s1.configs).is_empty(),
            "the adversary finds S1's pattern"
        );
        let cm = anonymize(&net, &Params::new(3, 2)).unwrap();
        assert!(
            detect_unified_filter_pattern(&cm.configs).is_empty(),
            "ConfMask leaves no unified pattern"
        );
    }

    #[test]
    fn dead_link_census_is_complete() {
        let net = example_network();
        let sim = confmask_sim::simulate(&net).unwrap();
        let traffic = dead_link_detection(&sim);
        // The example network is a line r1–r3–r2–r4: every link carries
        // traffic.
        assert_eq!(traffic.used.len(), 3);
        assert!(traffic.dead.is_empty());
    }

    #[test]
    fn confmask_fake_links_are_mostly_camouflaged() {
        let net = example_network();
        let result = anonymize(&net, &Params::new(4, 4)).unwrap();
        assert!(!result.fake_links.is_empty());
        let cam = fake_link_camouflage(&result.final_sim, &result.fake_links);
        assert!(
            cam > 0.0,
            "at least some fake links must carry fake-host traffic"
        );
    }
}
