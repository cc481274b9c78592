//! Functional-equivalence checking (Definition 3.3, Appendix A/B).
//!
//! The pipeline *constructs* networks that satisfy the strong functional
//! equivalence conditions; this module *verifies* the result, defensively:
//!
//! * **topology preservation** — every original router, host and link is
//!   still present in the anonymized topology;
//! * **route equivalence** — the data planes are identical on the real
//!   hosts (which, by Theorem B.7, implies preservation of reachability,
//!   path lengths, black holes, multipath consistency, waypointing, and
//!   routing loops);
//! * **append-only audit** — no original configuration item was modified or
//!   deleted (the SFE precondition of §5.2).

use confmask_config::NetworkConfigs;
use confmask_sim::DataPlane;
use confmask_topology::extract::extract_topology;
use std::collections::BTreeSet;

/// Result of checking functional equivalence.
#[derive(Debug, Clone, Default)]
pub struct EquivalenceReport {
    /// All original nodes and links survive.
    pub topology_preserved: bool,
    /// Data planes identical on the real hosts.
    pub route_equivalent: bool,
    /// No original configuration item was modified or deleted.
    pub originals_untouched: bool,
    /// Human-readable details for any failed check.
    pub violations: Vec<String>,
}

impl EquivalenceReport {
    /// All three checks passed — `CFG ≃F ĈFG`.
    pub fn holds(&self) -> bool {
        self.topology_preserved && self.route_equivalent && self.originals_untouched
    }
}

/// Checks functional equivalence of `anon` against `original`.
pub fn check_equivalence(
    original: &NetworkConfigs,
    original_dp: &DataPlane,
    anon: &NetworkConfigs,
    anon_dp: &DataPlane,
) -> EquivalenceReport {
    let mut report = EquivalenceReport::default();
    let real_hosts: BTreeSet<String> = original.hosts.keys().cloned().collect();

    // --- Topology preservation ----------------------------------------------
    let orig_topo = extract_topology(original);
    let anon_topo = extract_topology(anon);
    report.topology_preserved = true;
    for i in 0..orig_topo.node_count() {
        let name = orig_topo.name(i);
        match anon_topo.node(name) {
            Some(j) if anon_topo.kind(j) == orig_topo.kind(i) => {}
            _ => {
                report.topology_preserved = false;
                report
                    .violations
                    .push(format!("node {name} missing from anonymized topology"));
            }
        }
    }
    for (a, b, _) in orig_topo.edges() {
        let (na, nb) = (orig_topo.name(a), orig_topo.name(b));
        let present = match (anon_topo.node(na), anon_topo.node(nb)) {
            (Some(x), Some(y)) => anon_topo.has_edge(x, y),
            _ => false,
        };
        if !present {
            report.topology_preserved = false;
            report
                .violations
                .push(format!("link {na}–{nb} missing from anonymized topology"));
        }
    }

    // --- Route equivalence ---------------------------------------------------
    report.route_equivalent = anon_dp.equivalent_on(original_dp, &real_hosts);
    if !report.route_equivalent {
        let real = |s: &str, d: &str| real_hosts.contains(s) && real_hosts.contains(d);
        for orig_ps in original_dp.pairs().filter(|p| real(p.src, p.dst)) {
            let anon_ps = anon_dp.between(orig_ps.src, orig_ps.dst);
            if anon_ps != Some(orig_ps) {
                report.violations.push(format!(
                    "paths {}→{} differ: {:?} vs {:?}",
                    orig_ps.src,
                    orig_ps.dst,
                    orig_ps.paths().collect::<Vec<_>>(),
                    anon_ps.map(|p| p.paths().collect::<Vec<_>>())
                ));
            }
        }
    }

    // --- Append-only audit -----------------------------------------------------
    report.originals_untouched = true;
    for (name, orig_rc) in &original.routers {
        let Some(anon_rc) = anon.routers.get(name) else {
            report.originals_untouched = false;
            report.violations.push(format!("router {name} deleted"));
            continue;
        };
        if anon_rc.interfaces.len() < orig_rc.interfaces.len()
            || anon_rc.interfaces[..orig_rc.interfaces.len()] != orig_rc.interfaces[..]
        {
            report.originals_untouched = false;
            report
                .violations
                .push(format!("router {name}: original interfaces modified"));
        }
        let stmts = |rc: &confmask_config::RouterConfig| -> Vec<_> {
            rc.ospf
                .iter()
                .flat_map(|o| o.networks.iter())
                .chain(rc.rip.iter().flat_map(|r| r.networks.iter()))
                .chain(rc.bgp.iter().flat_map(|b| b.networks.iter()))
                .filter(|n| !n.added)
                .cloned()
                .collect()
        };
        if stmts(orig_rc) != stmts(anon_rc) {
            report.originals_untouched = false;
            report
                .violations
                .push(format!("router {name}: original network statements modified"));
        }
        if orig_rc.extra_lines != anon_rc.extra_lines {
            report.originals_untouched = false;
            report
                .violations
                .push(format!("router {name}: uninterpreted lines modified"));
        }
    }
    for (name, orig_h) in &original.hosts {
        match anon.hosts.get(name) {
            Some(h) if h == orig_h => {}
            _ => {
                report.originals_untouched = false;
                report
                    .violations
                    .push(format!("host {name} modified or deleted"));
            }
        }
    }

    // Fake devices must be flagged as such (provenance audit).
    for (name, rc) in &anon.routers {
        if !original.routers.contains_key(name) && !rc.added {
            report.originals_untouched = false;
            report
                .violations
                .push(format!("router {name} added without provenance flag"));
        }
    }
    for (name, h) in &anon.hosts {
        if !original.hosts.contains_key(name) && !h.added {
            report.originals_untouched = false;
            report
                .violations
                .push(format!("host {name} added without provenance flag"));
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_netgen::smallnets::example_network;
    use confmask_sim::simulate;

    #[test]
    fn identity_is_equivalent() {
        let net = example_network();
        let sim = simulate(&net).unwrap();
        let report = check_equivalence(&net, &sim.dataplane, &net, &sim.dataplane);
        assert!(report.holds(), "{:?}", report.violations);
    }

    #[test]
    fn deleted_link_fails_topology_preservation() {
        let net = example_network();
        let sim = simulate(&net).unwrap();
        let mut broken = net.clone();
        broken.routers.get_mut("r3").unwrap().interfaces.remove(0);
        let broken_sim = simulate(&broken).unwrap();
        let report = check_equivalence(&net, &sim.dataplane, &broken, &broken_sim.dataplane);
        assert!(!report.topology_preserved);
        assert!(!report.holds());
    }

    #[test]
    fn changed_forwarding_fails_route_equivalence() {
        let net = example_network();
        let sim = simulate(&net).unwrap();
        let mut changed = net.clone();
        // Shut down r2's link toward r4: h4 becomes unreachable, so the
        // data plane differs (and the edit itself violates append-only).
        let r2 = changed.routers.get_mut("r2").unwrap();
        let idx = r2
            .interfaces
            .iter()
            .position(|i| i.description.as_deref() == Some("to-r4"))
            .unwrap();
        r2.interfaces[idx].shutdown = true;
        let changed_sim = simulate(&changed).unwrap();
        let report = check_equivalence(&net, &sim.dataplane, &changed, &changed_sim.dataplane);
        assert!(!report.route_equivalent);
        assert!(!report.originals_untouched, "shutdown edit is a modification");
        assert!(!report.holds());
    }

    #[test]
    fn unflagged_new_host_fails_provenance() {
        let net = example_network();
        let sim = simulate(&net).unwrap();
        let mut sneaky = net.clone();
        let mut h = sneaky.hosts["h1"].clone();
        h.hostname = "intruder".into();
        h.address = ("10.103.0.100".parse().unwrap(), 24);
        h.gateway = "10.103.0.1".parse().unwrap();
        // not marked `added` → provenance violation (also dangling gateway,
        // but we check the flag here)
        sneaky.hosts.insert("intruder".into(), h);
        let sneaky_sim = simulate(&sneaky).unwrap();
        let report = check_equivalence(&net, &sim.dataplane, &sneaky, &sneaky_sim.dataplane);
        assert!(!report.originals_untouched);
    }
}
