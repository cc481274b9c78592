//! Network specification mining — the Config2Spec \[7\] substitute.
//!
//! Config2Spec mines a network's *specification*: a set of policies, each
//! capturing one behaviour (reachability of two endpoints, a waypoint, a
//! load-balancing degree). The paper uses it (Figure 9) to quantify how
//! much of the original network's behaviour an anonymization preserves and
//! how much fictitious behaviour it introduces.
//!
//! This crate mines five policy families from a simulated data plane
//! (Config2Spec's data-plane mode) — reachability, waypoint, load balance,
//! isolation, and path length — and computes the kept / missing /
//! introduced breakdown of Figure 9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use confmask_sim::{DataPlane, Pair};
use std::collections::BTreeSet;

/// One mined policy.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// `dst` is reachable from `src` along at least one clean path.
    Reachability {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
    },
    /// Every `src → dst` path traverses router `via`.
    Waypoint {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
        /// The waypoint router.
        via: String,
    },
    /// Traffic `src → dst` is split over `paths ≥ 2` equal paths.
    LoadBalance {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
        /// Number of forwarding paths.
        paths: usize,
    },
    /// `dst` is *not* reachable from `src` (isolation — black hole or
    /// missing route; Config2Spec mines these as negative policies).
    Isolation {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
    },
    /// Every `src → dst` path has exactly `hops` router hops.
    PathLength {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
        /// Router hops on every path.
        hops: usize,
    },
}

impl Policy {
    /// The hosts this policy mentions.
    pub fn hosts(&self) -> (&str, &str) {
        match self {
            Policy::Reachability { src, dst }
            | Policy::Waypoint { src, dst, .. }
            | Policy::LoadBalance { src, dst, .. }
            | Policy::Isolation { src, dst }
            | Policy::PathLength { src, dst, .. } => (src, dst),
        }
    }
}

/// A network specification: the set of all mined policies.
pub type Specification = BTreeSet<Policy>;

/// Pair count below which mining stays sequential: the per-pair work is a
/// handful of set operations, so tiny data planes are not worth a fan-out.
const PARALLEL_MINE_THRESHOLD: usize = 32;

/// Mines the specification of a data plane.
///
/// Each host pair mines independently; large data planes fan the pairs out
/// across the shared executor ([`confmask_exec`]). The result is a set, and
/// per-pair policies are merged in pair order, so the mined specification
/// is identical at any thread count.
pub fn mine(dp: &DataPlane) -> Specification {
    let pairs: Vec<Pair> = dp.pairs().collect();
    let per_pair: Vec<Vec<Policy>> = if pairs.len() >= PARALLEL_MINE_THRESHOLD {
        confmask_exec::par_map(&pairs, |ps| mine_pair(ps))
    } else {
        pairs.iter().map(mine_pair).collect()
    };
    per_pair.into_iter().flatten().collect()
}

/// Mines every policy one host pair contributes.
fn mine_pair(ps: &Pair) -> Vec<Policy> {
    let (src, dst) = (ps.src, ps.dst);
    let mut out = Vec::new();
    if !ps.clean() {
        out.push(Policy::Isolation {
            src: src.to_owned(),
            dst: dst.to_owned(),
        });
        return out;
    }
    out.push(Policy::Reachability {
        src: src.to_owned(),
        dst: dst.to_owned(),
    });
    // Uniform path length (Theorem B.2's preserved property).
    let paths: Vec<Vec<&str>> = ps.paths().collect();
    let lengths: BTreeSet<usize> = paths.iter().map(|p| p.len() - 2).collect();
    if lengths.len() == 1 {
        out.push(Policy::PathLength {
            src: src.to_owned(),
            dst: dst.to_owned(),
            hops: *lengths.iter().next().expect("non-empty"),
        });
    }
    if paths.len() >= 2 {
        out.push(Policy::LoadBalance {
            src: src.to_owned(),
            dst: dst.to_owned(),
            paths: paths.len(),
        });
    }
    // Waypoints: routers on *every* path (excluding endpoints).
    let mut common: Option<BTreeSet<&str>> = None;
    for path in &paths {
        let routers: BTreeSet<&str> = path[1..path.len() - 1].iter().copied().collect();
        common = Some(match common {
            None => routers,
            Some(prev) => prev.intersection(&routers).copied().collect(),
        });
    }
    for via in common.unwrap_or_default() {
        out.push(Policy::Waypoint {
            src: src.to_owned(),
            dst: dst.to_owned(),
            via: via.to_owned(),
        });
    }
    out
}

/// The Figure 9 comparison between an original and an anonymized
/// specification.
#[derive(Debug, Clone, Default)]
pub struct SpecDiff {
    /// Policies present in both (the "kept spec" bar).
    pub kept: usize,
    /// Original policies lost by anonymization.
    pub missing: usize,
    /// Policies of the anonymized network absent from the original.
    pub introduced: usize,
    /// Introduced policies that mention at least one fake host (benign —
    /// "96.9% of the introduced specifications by ConfMask are for the new
    /// fake hosts and links").
    pub introduced_fake: usize,
    /// Total original policies.
    pub original_total: usize,
}

impl SpecDiff {
    /// Fraction of original policies kept (Figure 9's headline number).
    pub fn kept_ratio(&self) -> f64 {
        if self.original_total == 0 {
            return 1.0;
        }
        self.kept as f64 / self.original_total as f64
    }

    /// Introduced policies relative to the original total (the bars above
    /// 1 in Figure 9).
    pub fn introduced_ratio(&self) -> f64 {
        if self.original_total == 0 {
            return 0.0;
        }
        self.introduced as f64 / self.original_total as f64
    }

    /// Fraction of introduced policies attributable to fake hosts.
    pub fn introduced_fake_fraction(&self) -> f64 {
        if self.introduced == 0 {
            return 0.0;
        }
        self.introduced_fake as f64 / self.introduced as f64
    }
}

/// Diffs two specifications; `real_hosts` identifies the original hosts so
/// introduced policies can be attributed to fakes.
pub fn diff(
    original: &Specification,
    anonymized: &Specification,
    real_hosts: &BTreeSet<String>,
) -> SpecDiff {
    let kept = original.intersection(anonymized).count();
    let introduced_set: Vec<&Policy> = anonymized.difference(original).collect();
    let introduced_fake = introduced_set
        .iter()
        .filter(|p| {
            let (s, d) = p.hosts();
            !real_hosts.contains(s) || !real_hosts.contains(d)
        })
        .count();
    SpecDiff {
        kept,
        missing: original.len() - kept,
        introduced: introduced_set.len(),
        introduced_fake,
        original_total: original.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_sim::DataPlaneBuilder;

    fn dp(entries: &[(&str, &str, Vec<Vec<&str>>)]) -> DataPlane {
        let mut dp = DataPlaneBuilder::new();
        for (s, d, paths) in entries {
            dp.insert(s, d, paths, false, false);
        }
        dp.build()
    }

    #[test]
    fn mines_reachability_waypoint_loadbalance() {
        let d = dp(&[(
            "h1",
            "h2",
            vec![vec!["h1", "r1", "r2", "r4", "h2"], vec!["h1", "r1", "r3", "r4", "h2"]],
        )]);
        let spec = mine(&d);
        assert!(spec.contains(&Policy::Reachability {
            src: "h1".into(),
            dst: "h2".into()
        }));
        assert!(spec.contains(&Policy::LoadBalance {
            src: "h1".into(),
            dst: "h2".into(),
            paths: 2
        }));
        // r1 and r4 are on every path; r2/r3 are not.
        assert!(spec.contains(&Policy::Waypoint {
            src: "h1".into(),
            dst: "h2".into(),
            via: "r1".into()
        }));
        assert!(spec.contains(&Policy::Waypoint {
            src: "h1".into(),
            dst: "h2".into(),
            via: "r4".into()
        }));
        assert!(!spec.contains(&Policy::Waypoint {
            src: "h1".into(),
            dst: "h2".into(),
            via: "r2".into()
        }));
    }

    #[test]
    fn blackholed_pairs_mine_isolation() {
        let mut d = DataPlaneBuilder::new();
        d.insert("h1", "h2", Vec::<Vec<&str>>::new(), true, false);
        let spec = mine(&d.build());
        assert_eq!(spec.len(), 1);
        assert!(spec.contains(&Policy::Isolation {
            src: "h1".into(),
            dst: "h2".into()
        }));
    }

    #[test]
    fn path_length_policy_requires_uniform_lengths() {
        let d = dp(&[
            ("h1", "h2", vec![vec!["h1", "r1", "r2", "h2"]]),
            (
                "h1",
                "h3",
                vec![
                    vec!["h1", "r1", "r3", "h3"],
                    vec!["h1", "r1", "r2", "r3", "h3"],
                ],
            ),
        ]);
        let spec = mine(&d);
        assert!(spec.contains(&Policy::PathLength {
            src: "h1".into(),
            dst: "h2".into(),
            hops: 2
        }));
        assert!(!spec.iter().any(|p| matches!(
            p,
            Policy::PathLength { src, dst, .. } if src == "h1" && dst == "h3"
        )));
    }

    #[test]
    fn diff_classifies_kept_missing_introduced() {
        let orig = dp(&[("h1", "h2", vec![vec!["h1", "r1", "r2", "h2"]])]);
        let anon = dp(&[
            ("h1", "h2", vec![vec!["h1", "r1", "r3", "h2"]]), // changed path: waypoint r2 lost
            ("hx", "h2", vec![vec!["hx", "r9", "r3", "h2"]]), // fake host traffic
        ]);
        let so = mine(&orig);
        let sa = mine(&anon);
        let real: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        let d = diff(&so, &sa, &real);
        // kept: Reachability(h1,h2), PathLength(h1,h2,2), Waypoint(h1,h2,r1);
        // missing: Waypoint(h1,h2,r2).
        assert_eq!(d.kept, 3);
        assert_eq!(d.missing, 1);
        assert!(d.introduced >= 3); // r3 waypoint + fake-host policies
        assert!(d.introduced_fake >= 2);
        assert!(d.kept_ratio() > 0.0 && d.kept_ratio() < 1.0);
    }

    #[test]
    fn identical_specs_diff_cleanly() {
        let d0 = dp(&[("h1", "h2", vec![vec!["h1", "r1", "h2"]])]);
        let s = mine(&d0);
        let real: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        let d = diff(&s, &s, &real);
        assert_eq!(d.missing, 0);
        assert_eq!(d.introduced, 0);
        assert!((d.kept_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn confmask_keeps_all_original_specs() {
        // End-to-end: mine original vs ConfMask-anonymized FatTree-04.
        let net = confmask_netgen::synthesize(&confmask_netgen::fattree::fattree_spec(4));
        let result = confmask::anonymize(&net, &confmask::Params::new(4, 2)).unwrap();
        let so = mine(&result.baseline.sim.dataplane);
        let sa = mine(&result.final_sim.dataplane);
        let d = diff(&so, &sa, &result.baseline.real_hosts);
        assert_eq!(d.missing, 0, "functional equivalence ⇒ no spec lost");
        assert!((d.kept_ratio() - 1.0).abs() < 1e-12);
        assert!(
            d.introduced_fake_fraction() > 0.9,
            "introduced specs belong to fake hosts: {:.3}",
            d.introduced_fake_fraction()
        );
    }
}
