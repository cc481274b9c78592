//! Equivalence under failure — does the anonymized network *degrade* the
//! same way the original does?
//!
//! ConfMask's functional-equivalence guarantee (Definition 3.3) is stated
//! for the healthy network. A config consumer, however, typically wants to
//! study what-if scenarios: take the shared configurations, fail a link,
//! and see what breaks. This module verifies the natural extension of the
//! guarantee to that workflow:
//!
//! 1. **Real-element equivalence** — failing an element the original
//!    network *has* (an original link) must put every real host pair into
//!    the same [`DegradationClass`] in the original network and in the
//!    anonymized network *with its fake elements masked* (every
//!    anonymization-added interface administratively shut). Masking is
//!    what the network owner does when running what-if analysis on the
//!    shared configurations — they hold the provenance map — and it is
//!    the strongest failure guarantee the anonymization can offer:
//!    original lines are never modified, so the real substrate must
//!    degrade identically.
//!
//!    The *unmasked* anonymized network intentionally degrades
//!    differently: fake links add physical connectivity (healing
//!    partitions), and equivalence route filters permanently pin
//!    forwarding to original paths (turning some reroutes into black
//!    holes). That divergence is inherent to the scheme — Definition 3.3
//!    equivalence is stated for the healthy network — so it is *reported*
//!    per scenario rather than treated as a violation.
//! 2. **Fake-element inertness** — failing an element that only the
//!    anonymization added (a fake link, a fake router) in the *unmasked*
//!    anonymized network must change *nothing* for real host pairs: fake
//!    elements carry no real traffic, so their failure must be invisible.

use crate::pipeline::Anonymized;
use confmask_config::NetworkConfigs;
use confmask_sim::fault::{enumerate_scenarios, DegradationClass, FailureScenario, Fault};
use confmask_sim::sweep::{DigestList, ScenarioDigest};
use confmask_sim::{DataPlane, NameJoin, SimError};
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};

/// One real host pair whose degradation class differs between the original
/// and the masked anonymized network under the same failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMismatch {
    /// Source host.
    pub src: String,
    /// Destination host.
    pub dst: String,
    /// The pair's class in the failed original network.
    pub original: DegradationClass,
    /// The pair's class in the failed masked anonymized network.
    pub anonymized: DegradationClass,
}

/// Original-vs-(masked-)anonymized comparison for one real-element failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioEquivalence {
    /// The injected scenario.
    pub scenario: FailureScenario,
    /// Simulation error in the failed *original* network, if any (e.g.
    /// post-failure BGP oscillation).
    pub original_error: Option<String>,
    /// Simulation error in the failed *masked anonymized* network, if any.
    pub anonymized_error: Option<String>,
    /// Degradation class of the worst-affected pair in the original
    /// network (reported for context; `None` when simulation failed).
    pub worst: Option<DegradationClass>,
    /// Pairs whose classes disagree between the original and the masked
    /// anonymized network. Empty iff behaviour is equivalent (given both
    /// simulations succeeded).
    pub mismatches: Vec<PairMismatch>,
}

impl ScenarioEquivalence {
    /// Whether this scenario degrades equivalently: both simulations agree
    /// on failure/success, and every pair's class matches.
    pub fn holds(&self) -> bool {
        self.original_error == self.anonymized_error && self.mismatches.is_empty()
    }
}

/// Inertness check for one fake-element failure (anonymized network only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FakeElementCheck {
    /// The injected scenario (fake link down / fake router down).
    pub scenario: FailureScenario,
    /// Simulation error in the failed anonymized network, if any. A fake
    /// element whose failure makes the network un-simulatable is itself a
    /// violation.
    pub error: Option<String>,
    /// Real host pairs whose forwarding changed at all. Must be empty.
    pub changed_pairs: Vec<(String, String)>,
}

impl FakeElementCheck {
    /// Whether the fake element was inert.
    pub fn holds(&self) -> bool {
        self.error.is_none() && self.changed_pairs.is_empty()
    }
}

/// The full equivalence-under-failure verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureEquivalenceReport {
    /// The masked anonymized network failed to simulate even before any
    /// fault was injected (fatal for the whole sweep).
    pub masked_baseline_error: Option<String>,
    /// The healthy masked anonymized network's real-pair data plane
    /// differs from the original's — every classification below is
    /// suspect when this is set.
    pub masked_baseline_differs: bool,
    /// One comparison per real-element scenario.
    pub real: Vec<ScenarioEquivalence>,
    /// One inertness check per fake-element scenario.
    pub fake: Vec<FakeElementCheck>,
}

impl FailureEquivalenceReport {
    /// Whether every scenario upholds equivalence under failure.
    pub fn holds(&self) -> bool {
        self.masked_baseline_error.is_none()
            && !self.masked_baseline_differs
            && self.real.iter().all(|s| s.holds())
            && self.fake.iter().all(|s| s.holds())
    }

    /// Rendered violations, one line each (empty when [`holds`]).
    ///
    /// [`holds`]: FailureEquivalenceReport::holds
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(e) = &self.masked_baseline_error {
            out.push(format!("masked anonymized network failed to simulate: {e}"));
        }
        if self.masked_baseline_differs {
            out.push(
                "healthy masked anonymized network's real-pair data plane differs from original"
                    .to_string(),
            );
        }
        for s in &self.real {
            if s.original_error != s.anonymized_error {
                out.push(format!(
                    "{}: simulation outcomes differ (original: {:?}, anonymized: {:?})",
                    s.scenario, s.original_error, s.anonymized_error
                ));
            }
            for m in &s.mismatches {
                out.push(format!(
                    "{}: {}→{} degrades {} in original but {} in anonymized",
                    s.scenario, m.src, m.dst, m.original, m.anonymized
                ));
            }
        }
        for s in &self.fake {
            if let Some(e) = &s.error {
                out.push(format!("{}: anonymized network failed to simulate: {e}", s.scenario));
            }
            for (src, dst) in &s.changed_pairs {
                out.push(format!(
                    "{}: fake-element failure changed real pair {src}→{dst}",
                    s.scenario
                ));
            }
        }
        out
    }

    /// Total scenarios checked.
    pub fn scenario_count(&self) -> usize {
        self.real.len() + self.fake.len()
    }
}

/// Returns the anonymized configurations with every fake element masked:
/// each anonymization-added interface is administratively shut, detaching
/// fake links and fake routers while leaving every original line intact.
pub fn mask_fake_elements(configs: &NetworkConfigs) -> NetworkConfigs {
    let mut masked = configs.clone();
    for rc in masked.routers.values_mut() {
        for iface in &mut rc.interfaces {
            if iface.added {
                iface.shutdown = true;
            }
        }
    }
    masked
}

/// Verifies equivalence under failure for an anonymization result.
///
/// Sweeps every single-link (k = 1) failure of the *original* network —
/// plus, when `k >= 2`, a seeded sample of `k2_sample` double-link
/// scenarios — through the original and the masked anonymized network and
/// compares per-pair degradation classes on the real hosts. Then fails
/// every fake link and fake router of the (unmasked) anonymized network
/// and checks real traffic is unaffected.
///
/// Per-scenario simulation failures are captured in the report rather than
/// aborting the sweep, so one pathological scenario cannot hide the rest.
/// A healthy network that fails to converge fails closed: its error is
/// recorded on every scenario of its sweep, so the report cannot hold.
pub fn verify_failure_equivalence(
    original: &NetworkConfigs,
    result: &Anonymized,
    k: usize,
    k2_sample: usize,
) -> FailureEquivalenceReport {
    let orig_base: DataPlane = result
        .baseline
        .sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts);
    let anon_base: DataPlane = result
        .final_sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts);
    let masked = mask_fake_elements(&result.configs);

    let mut report = FailureEquivalenceReport::default();

    // The whole sweep runs through the incremental simulation engine:
    // every scenario is a shutdown perturbation of one of three converged
    // baselines (original / masked / anonymized), exactly the workload the
    // delta recomputation is built for. Results are byte-identical to cold
    // simulation. All three baselines already converged through this engine
    // when the pipeline ran; one that fails to converge here fails closed:
    // every scenario of its sweep records the error.
    let engine = DeltaEngine::global();

    // The masked network's healthy data plane must equal the original's on
    // real pairs: functional equivalence holds with the fakes up, and
    // masking only removes candidates the filters already suppressed. A
    // divergence here poisons every per-scenario classification, so it is
    // recorded as its own violation.
    let masked_conv = match engine.converged(&masked) {
        Ok(conv) => conv,
        Err(e) => {
            report.masked_baseline_error = Some(e.to_string());
            return report;
        }
    };
    let masked_base: DataPlane = masked_conv
        .sim
        .dataplane
        .restricted_to(&result.baseline.real_hosts);
    if masked_base != orig_base {
        report.masked_baseline_differs = true;
    }

    // 1. Real-element scenarios, enumerated from the original network (so
    //    fake links can never leak into the "real" sweep). Each network's
    //    scenarios stream through the incremental engine into compact
    //    digests — two digest lists are all that is ever retained, not two
    //    per-pair maps per scenario. Digests arrive in scenario order, so
    //    the report is byte-identical to the sequential sweep.
    let scenarios = enumerate_scenarios(original, k, result.params.seed, k2_sample);
    let mut orig_list = DigestList::default();
    match engine.converged(original) {
        Ok(conv) => {
            ScenarioSweep::new(engine, &conv, &orig_base).run(scenarios.iter(), &mut orig_list);
        }
        Err(e) => orig_list.results = vec![Err(baseline_failed("original", e)); scenarios.len()],
    }
    // The masked digests index the masked baseline; each original pair
    // finds its masked counterpart by name once, and a pair absent from the
    // anonymized side reads as `Partitioned` (worst case).
    let mut anon_list = DigestList::default();
    ScenarioSweep::new(engine, &masked_conv, &masked_base).run(scenarios.iter(), &mut anon_list);
    let aligned = align_pairs(&orig_base, &masked_base);

    report.real = scenarios
        .iter()
        .zip(orig_list.results.iter().zip(anon_list.results.iter()))
        .map(|(scenario, (orig_run, anon_run))| ScenarioEquivalence {
            scenario: scenario.clone(),
            original_error: orig_run.as_ref().err().map(|e| e.to_string()),
            anonymized_error: anon_run.as_ref().err().map(|e| e.to_string()),
            worst: orig_run.as_ref().ok().map(|d| d.worst),
            mismatches: match (orig_run, anon_run) {
                (Ok(orig), Ok(anon)) => class_mismatches(&orig_base, &aligned, orig, anon),
                _ => Vec::new(),
            },
        })
        .collect();

    // 2. Fake-element scenarios: every fake link and every fake router.
    let mut fake_scenarios: Vec<FailureScenario> = result
        .fake_links
        .iter()
        .map(|fl| {
            FailureScenario::single(Fault::LinkDown {
                a: fl.a.clone(),
                b: fl.b.clone(),
                added: true,
            })
        })
        .collect();
    fake_scenarios.extend(result.scale.fake_routers.iter().map(|r| {
        FailureScenario::single(Fault::RouterDown { router: r.clone() })
    }));

    let mut fake_list = DigestList::default();
    match engine.converged(&result.configs) {
        Ok(conv) => {
            ScenarioSweep::new(engine, &conv, &anon_base)
                .run(fake_scenarios.iter(), &mut fake_list);
        }
        Err(e) => {
            fake_list.results = vec![Err(baseline_failed("anonymized", e)); fake_scenarios.len()]
        }
    }
    report.fake = fake_scenarios
        .iter()
        .zip(fake_list.results.iter())
        .map(|(scenario, run)| match run {
            Ok(digest) => FakeElementCheck {
                scenario: scenario.clone(),
                error: None,
                changed_pairs: digest
                    .changed_classes()
                    .map(|(i, _)| pair_names(&anon_base, i))
                    .collect(),
            },
            Err(e) => FakeElementCheck {
                scenario: scenario.clone(),
                error: Some(e.to_string()),
                changed_pairs: Vec::new(),
            },
        })
        .collect();

    report
}

/// Per pair of `orig_base`, in entry order: the index of the pair with the
/// same host names in `masked_base`, if it has one. The two host tables
/// are joined by name once; both entry lists are sorted by host index,
/// which is name order.
fn align_pairs(orig_base: &DataPlane, masked_base: &DataPlane) -> Vec<Option<usize>> {
    let hosts = NameJoin::new(orig_base.hosts(), masked_base.hosts());
    let masked = masked_base.entries();
    orig_base
        .entries()
        .iter()
        .map(|((s, d), _)| {
            let key = hosts.get(*s).zip(hosts.get(*d))?;
            masked.binary_search_by_key(&key, |e| e.0).ok()
        })
        .collect()
}

/// The pairs of `orig_base` whose class in `orig` (a digest over
/// `orig_base`) differs from the class of the same-named pair in `anon` (a
/// digest over the masked baseline `aligned` was built against). A pair
/// the masked baseline lacks reads as `Partitioned`.
fn class_mismatches(
    orig_base: &DataPlane,
    aligned: &[Option<usize>],
    orig: &ScenarioDigest,
    anon: &ScenarioDigest,
) -> Vec<PairMismatch> {
    let oc = classes_of(orig);
    let ac = classes_of(anon);
    let mut out = Vec::new();
    for (i, (o, a)) in oc.iter().zip(aligned).enumerate() {
        let a = a.map_or(DegradationClass::Partitioned, |j| ac[j]);
        if *o != a {
            let (src, dst) = pair_names(orig_base, i);
            out.push(PairMismatch {
                src,
                dst,
                original: *o,
                anonymized: a,
            });
        }
    }
    out
}

/// Expands a digest back into one class per baseline pair.
fn classes_of(digest: &ScenarioDigest) -> Vec<DegradationClass> {
    let mut out = vec![DegradationClass::Unchanged; digest.pairs()];
    for (i, c) in digest.changed_classes() {
        out[i] = c;
    }
    out
}

/// The host names of `dp`'s i-th pair.
fn pair_names(dp: &DataPlane, i: usize) -> (String, String) {
    let (s, d) = dp.entries()[i].0;
    let hosts = dp.hosts();
    (hosts[s as usize].clone(), hosts[d as usize].clone())
}

/// The error every scenario of a sweep records when its healthy network
/// fails to converge. The wording keeps it distinct from any per-scenario
/// simulation error, so the two sides of a comparison never match on it.
fn baseline_failed(network: &str, e: SimError) -> SimError {
    SimError::BadConfig(format!("healthy {network} network does not converge ({e})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{anonymize, Params};
    use confmask_netgen::smallnets::{bad_gadget, example_network};
    use confmask_sim::DataPlaneBuilder;

    /// A digest over `dp` recording `class` for every pair.
    fn digest_of(dp: &DataPlane, class: impl Fn(&str, &str) -> DegradationClass) -> ScenarioDigest {
        let mut digest = ScenarioDigest::new(dp.len());
        for (i, p) in dp.pairs().enumerate() {
            digest.record(i, class(p.src, p.dst));
        }
        digest
    }

    #[test]
    fn masked_pairs_align_by_name_and_a_missing_pair_reads_partitioned() {
        // The original has every ordered pair of h1..h3. The masked side
        // lacks h2→h3, and its extra host f0 sorts first, so every shared
        // pair sits at a different index under a different host table.
        let hosts = ["h1", "h2", "h3"];
        let mut orig = DataPlaneBuilder::new();
        let mut masked = DataPlaneBuilder::new();
        masked.insert("f0", "h1", [["f0", "r1", "h1"]], false, false);
        for (s, d) in hosts.iter().flat_map(|s| hosts.map(|d| (*s, d))) {
            if s == d {
                continue;
            }
            orig.insert(s, d, [[s, "r1", d]], false, false);
            if (s, d) != ("h2", "h3") {
                masked.insert(s, d, [[s, "r1", d]], false, false);
            }
        }
        let (orig_base, masked_base) = (orig.build(), masked.build());
        assert_ne!(orig_base.hosts(), masked_base.hosts());

        let aligned = align_pairs(&orig_base, &masked_base);
        for (i, j) in aligned.iter().enumerate() {
            match j {
                Some(j) => assert_eq!(pair_names(&orig_base, i), pair_names(&masked_base, *j)),
                None => assert_eq!(pair_names(&orig_base, i), ("h2".into(), "h3".into())),
            }
        }

        // h1→h3 reroutes on both sides: it matches by name, not position.
        let rerouted = |s: &str, d: &str| {
            if (s, d) == ("h1", "h3") {
                DegradationClass::Rerouted
            } else {
                DegradationClass::Unchanged
            }
        };
        let mismatches = class_mismatches(
            &orig_base,
            &aligned,
            &digest_of(&orig_base, rerouted),
            &digest_of(&masked_base, rerouted),
        );
        assert_eq!(
            mismatches,
            vec![PairMismatch {
                src: "h2".into(),
                dst: "h3".into(),
                original: DegradationClass::Unchanged,
                anonymized: DegradationClass::Partitioned,
            }]
        );
    }

    #[test]
    fn example_network_degrades_equivalently() {
        let net = example_network();
        let result = anonymize(&net, &Params::new(3, 2)).unwrap();
        let report = verify_failure_equivalence(&net, &result, 1, 0);
        assert!(!report.real.is_empty(), "must sweep original links");
        assert!(
            !report.fake.is_empty(),
            "k-degree anonymization must have added fake links"
        );
        assert!(report.holds(), "violations: {:#?}", report.violations());
    }

    #[test]
    fn k2_sampling_adds_scenarios() {
        let net = example_network();
        let result = anonymize(&net, &Params::new(3, 2)).unwrap();
        let k1 = verify_failure_equivalence(&net, &result, 1, 0);
        let k2 = verify_failure_equivalence(&net, &result, 2, 2);
        assert_eq!(k2.real.len(), k1.real.len() + 2);
        assert!(k2.holds(), "violations: {:#?}", k2.violations());
    }

    #[test]
    fn fake_router_failures_are_inert() {
        let net = example_network();
        let mut params = Params::new(3, 2);
        params.fake_routers = 1;
        let result = anonymize(&net, &params).unwrap();
        assert!(!result.scale.fake_routers.is_empty());
        let report = verify_failure_equivalence(&net, &result, 1, 0);
        assert!(
            report.fake.len() > result.fake_links.len(),
            "fake-router scenarios must be present"
        );
        assert!(report.holds(), "violations: {:#?}", report.violations());
    }

    #[test]
    fn non_converging_original_fails_closed() {
        let net = example_network();
        let result = anonymize(&net, &Params::new(3, 2)).unwrap();
        let report = verify_failure_equivalence(&bad_gadget(), &result, 1, 0);
        assert!(!report.real.is_empty(), "the original's links are still swept");
        assert!(!report.holds());
        assert!(report.real.iter().all(|s| s
            .original_error
            .as_deref()
            .is_some_and(|e| e.contains("BGP did not converge"))));
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.contains("BGP did not converge")),
            "violations: {:#?}",
            report.violations()
        );
    }
}
