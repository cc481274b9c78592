//! Evaluation metrics (§7.1): route anonymity `N_r`, route utility `P_U`,
//! topology anonymity `k_d`, topology utility (clustering coefficient), and
//! configuration utility `U_C`.

use confmask_sim::DataPlane;
use std::collections::{BTreeMap, BTreeSet};

/// Route-anonymity statistics: distinct routing paths per (ingress router,
/// egress router) pair — Figure 5's `N_r`.
#[derive(Debug, Clone, Default)]
pub struct RouteAnonymity {
    /// Distinct paths per edge-router pair.
    pub per_pair: BTreeMap<(String, String), usize>,
}

impl RouteAnonymity {
    /// Average `N_r` over pairs.
    pub fn avg(&self) -> f64 {
        if self.per_pair.is_empty() {
            return 0.0;
        }
        self.per_pair.values().sum::<usize>() as f64 / self.per_pair.len() as f64
    }

    /// Minimum `N_r` over pairs (how exposed the most identifiable pair is).
    pub fn min(&self) -> usize {
        self.per_pair.values().copied().min().unwrap_or(0)
    }
}

/// Computes `N_r` from a data plane: for each (ingress, egress) router pair
/// carrying host traffic, the number of distinct *router sequences* among
/// all host-to-host paths between them (Definition 3.2's `p ∼ p'`
/// equivalence groups paths by ingress and egress router).
pub fn route_anonymity(dp: &DataPlane) -> RouteAnonymity {
    let mut groups: BTreeMap<(&str, &str), BTreeSet<Vec<&str>>> = BTreeMap::new();
    for ps in dp.pairs() {
        for path in ps.paths() {
            if path.len() < 3 {
                continue; // same-LAN delivery has no routers
            }
            let routers = path[1..path.len() - 1].to_vec();
            let key = (
                *routers.first().expect("non-empty"),
                *routers.last().expect("non-empty"),
            );
            groups.entry(key).or_default().insert(routers);
        }
    }
    RouteAnonymity {
        per_pair: groups
            .into_iter()
            .map(|((a, b), v)| ((a.to_string(), b.to_string()), v.len()))
            .collect(),
    }
}

/// Route utility `P_U` (Figure 8): the fraction of host pairs whose path
/// sets are *exactly* preserved. Pairs are restricted to `real_hosts`.
pub fn path_preservation(
    original: &DataPlane,
    anonymized: &DataPlane,
    real_hosts: &BTreeSet<String>,
) -> f64 {
    let orig = original.restricted_to(real_hosts);
    if orig.is_empty() {
        return 1.0;
    }
    let kept = orig
        .pairs()
        .filter(|ps| anonymized.between(ps.src, ps.dst) == Some(*ps))
        .count();
    kept as f64 / orig.len() as f64
}

/// Configuration utility `U_C = 1 − N_l / P_l` (§7.1): `added` injected
/// lines against the `total` lines of the anonymized configurations.
pub fn config_utility(total_lines: usize, added_lines: usize) -> f64 {
    if total_lines == 0 {
        return 1.0;
    }
    1.0 - added_lines as f64 / total_lines as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_sim::DataPlaneBuilder;

    fn path(nodes: &[&str]) -> Vec<String> {
        nodes.iter().map(|s| s.to_string()).collect()
    }

    fn dp(entries: &[(&str, &str, Vec<Vec<String>>)]) -> DataPlane {
        let mut dp = DataPlaneBuilder::new();
        for (s, d, paths) in entries {
            dp.insert(s, d, paths, false, false);
        }
        dp.build()
    }

    #[test]
    fn route_anonymity_counts_distinct_router_sequences() {
        let d = dp(&[
            ("h1", "h2", vec![path(&["h1", "r1", "r2", "h2"])]),
            ("h1x", "h2", vec![path(&["h1x", "r1", "r3", "r2", "h2"])]),
            ("h2", "h1", vec![path(&["h2", "r2", "r1", "h1"])]),
        ]);
        let nr = route_anonymity(&d);
        assert_eq!(nr.per_pair[&("r1".to_string(), "r2".to_string())], 2);
        assert_eq!(nr.per_pair[&("r2".to_string(), "r1".to_string())], 1);
        assert_eq!(nr.min(), 1);
        assert!((nr.avg() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn route_anonymity_ignores_same_lan_paths() {
        let d = dp(&[("h1", "h1b", vec![path(&["h1", "h1b"])])]);
        assert!(route_anonymity(&d).per_pair.is_empty());
    }

    #[test]
    fn path_preservation_full_and_partial() {
        let orig = dp(&[
            ("h1", "h2", vec![path(&["h1", "r1", "r2", "h2"])]),
            ("h2", "h1", vec![path(&["h2", "r2", "r1", "h1"])]),
        ]);
        let hosts: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        assert!((path_preservation(&orig, &orig, &hosts) - 1.0).abs() < 1e-12);

        let half = dp(&[
            ("h1", "h2", vec![path(&["h1", "r1", "r3", "r2", "h2"])]), // changed
            ("h2", "h1", vec![path(&["h2", "r2", "r1", "h1"])]),       // kept
        ]);
        assert!((path_preservation(&orig, &half, &hosts) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn config_utility_formula() {
        assert!((config_utility(1000, 100) - 0.9).abs() < 1e-12);
        assert!((config_utility(0, 0) - 1.0).abs() < 1e-12);
    }
}
