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
use confmask_sim::sweep::{DigestList, PairTable, ScenarioDigest};
use confmask_sim::{DataPlane, SimError};
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use std::sync::Arc;

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
    let orig_table = Arc::new(PairTable::from_baseline(&orig_base));
    let mut orig_list = DigestList::default();
    match engine.converged(original) {
        Ok(conv) => {
            let sweep = ScenarioSweep::with_table(engine, &conv, &orig_base, Arc::clone(&orig_table))
                .expect("table interned from this baseline always matches it");
            sweep.run(scenarios.iter(), &mut orig_list);
        }
        Err(e) => orig_list.results = vec![Err(baseline_failed("original", e)); scenarios.len()],
    }
    // The masked sweep reuses the original's pair table when the two
    // baselines cover the same real pairs (the usual case — both are
    // restricted to real hosts), so mismatch detection is a positional
    // digest walk. A masked baseline with a different pair set gets its
    // own table plus an index translation, with pairs absent from the
    // anonymized side reading as `Partitioned` (worst case) exactly as
    // the map-lookup comparison did.
    let mut anon_list = DigestList::default();
    let anon_table = match ScenarioSweep::with_table(
        engine,
        &masked_conv,
        &masked_base,
        Arc::clone(&orig_table),
    ) {
        Some(sweep) => {
            sweep.run(scenarios.iter(), &mut anon_list);
            None
        }
        None => {
            let sweep = ScenarioSweep::new(engine, &masked_conv, &masked_base);
            let table = sweep.table();
            sweep.run(scenarios.iter(), &mut anon_list);
            Some(table)
        }
    };
    let anon_idx_of: Option<Vec<Option<usize>>> = anon_table.as_ref().map(|t| {
        (0..orig_table.len())
            .map(|i| {
                let (src, dst) = orig_table.pair(i);
                t.index_of(src, dst)
            })
            .collect()
    });

    /// Expands a digest back into one class per table pair.
    fn classes_of(digest: &ScenarioDigest, len: usize) -> Vec<DegradationClass> {
        let mut out = vec![DegradationClass::Unchanged; len];
        for (i, c) in digest.changed_classes() {
            out[i] = c;
        }
        out
    }

    report.real = scenarios
        .iter()
        .zip(orig_list.results.iter().zip(anon_list.results.iter()))
        .map(|(scenario, (orig_run, anon_run))| {
            let mut entry = ScenarioEquivalence {
                scenario: scenario.clone(),
                original_error: orig_run.as_ref().err().map(|e| e.to_string()),
                anonymized_error: anon_run.as_ref().err().map(|e| e.to_string()),
                worst: orig_run.as_ref().ok().map(|d| d.worst),
                mismatches: Vec::new(),
            };
            if let (Ok(orig), Ok(anon)) = (orig_run, anon_run) {
                let oc = classes_of(orig, orig_table.len());
                let ac = classes_of(
                    anon,
                    anon_table.as_ref().map_or(orig_table.len(), |t| t.len()),
                );
                for (i, o) in oc.iter().enumerate() {
                    let a = match &anon_idx_of {
                        None => ac[i],
                        Some(map) => map[i]
                            .map(|j| ac[j])
                            .unwrap_or(DegradationClass::Partitioned),
                    };
                    if *o != a {
                        let (src, dst) = orig_table.pair(i);
                        entry.mismatches.push(PairMismatch {
                            src: src.to_string(),
                            dst: dst.to_string(),
                            original: *o,
                            anonymized: a,
                        });
                    }
                }
            }
            entry
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

    let fake_table = Arc::new(PairTable::from_baseline(&anon_base));
    let mut fake_list = DigestList::default();
    match engine.converged(&result.configs) {
        Ok(conv) => {
            let sweep = ScenarioSweep::with_table(engine, &conv, &anon_base, Arc::clone(&fake_table))
                .expect("table interned from this baseline always matches it");
            sweep.run(fake_scenarios.iter(), &mut fake_list);
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
                    .map(|(i, _)| {
                        let (src, dst) = fake_table.pair(i);
                        (src.to_string(), dst.to_string())
                    })
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
