//! Subcommand implementations. Each returns its textual report so the
//! logic is testable without capturing stdout.

use crate::args::Command;
use crate::io::{load_dir, load_dir_as, store_dir_as};
use confmask::pii::{apply_pii, PiiOptions};
use confmask::resilience::FailureEquivalenceReport;
use confmask_sim::fault::enumerate_scenarios;
use confmask_topology::extract::extract_topology;
use confmask_topology::metrics::{clustering_coefficient, min_same_degree};
use std::fmt::Write as _;

/// Exit code for fatal errors (I/O, bad configs, non-retryable pipeline
/// failures).
pub const EXIT_FATAL: i32 = 1;
/// Exit code for argument errors (used by `main`, reserved here).
pub const EXIT_USAGE: i32 = 2;
/// Exit code when the self-healing pipeline exhausted its retries.
pub const EXIT_RETRIES_EXHAUSTED: i32 = 3;
/// Exit code for an equivalence-under-failure violation.
pub const EXIT_FAILURE_EQUIVALENCE: i32 = 4;

/// A command failure carrying the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdError {
    /// Process exit code (never 0).
    pub code: i32,
    /// User-facing message.
    pub message: String,
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CmdError {
    fn from(message: String) -> Self {
        CmdError {
            code: EXIT_FATAL,
            message,
        }
    }
}

/// Maps a configuration-directory I/O failure to its exit code: a file
/// that exists but does not parse is a usage error (exit 2, like a bad
/// flag — the user handed us input we cannot accept, and the message
/// names the offending file), while missing paths and OS failures stay
/// fatal (exit 1).
fn load_err(e: std::io::Error) -> CmdError {
    let code = if e.kind() == std::io::ErrorKind::InvalidData {
        EXIT_USAGE
    } else {
        EXIT_FATAL
    };
    CmdError {
        code,
        message: e.to_string(),
    }
}

/// Maps an anonymization failure to its exit code: exhausted retries get
/// their own code so scripts can distinguish "gave up after healing
/// attempts" from outright fatal errors.
fn anonymize_err(e: confmask::Error) -> CmdError {
    let code = if matches!(e, confmask::Error::RetriesExhausted { .. }) {
        EXIT_RETRIES_EXHAUSTED
    } else {
        EXIT_FATAL
    };
    CmdError {
        code,
        message: e.to_string(),
    }
}

/// Renders the self-healing audit trail when the run needed retries.
fn write_degradation(report: &mut String, d: &confmask::DegradationReport) {
    if !d.healed() {
        return;
    }
    let _ = writeln!(
        report,
        "  self-healing: {} failed attempt(s) before the outcome",
        d.failures()
    );
    for a in &d.attempts {
        let _ = writeln!(
            report,
            "    attempt {} (seed {}, +{} equiv iterations, {:.2?}): {}",
            a.attempt,
            a.seed,
            a.budget_boost,
            a.duration,
            a.error.as_deref().unwrap_or("ok")
        );
    }
}

/// Renders a per-scenario failure-equivalence report.
fn write_failure_report(report: &mut String, fr: &FailureEquivalenceReport) {
    let _ = writeln!(
        report,
        "equivalence under failure: {} real-element + {} fake-element scenario(s)",
        fr.real.len(),
        fr.fake.len()
    );
    for s in &fr.real {
        let verdict = if s.holds() {
            "classes match".to_string()
        } else {
            format!("{} MISMATCH(ES)", s.mismatches.len())
        };
        let worst = s
            .worst
            .map(|w| w.to_string())
            .or_else(|| s.original_error.clone())
            .unwrap_or_else(|| "?".into());
        let _ = writeln!(report, "  {}: worst={worst} — {verdict}", s.scenario);
    }
    for s in &fr.fake {
        let verdict = if s.holds() {
            "inert".to_string()
        } else if let Some(e) = &s.error {
            format!("SIMULATION FAILED: {e}")
        } else {
            format!("CHANGED {} real pair(s)", s.changed_pairs.len())
        };
        let _ = writeln!(report, "  {}: {verdict}", s.scenario);
    }
    let _ = writeln!(
        report,
        "verdict: {}",
        if fr.holds() { "HOLDS" } else { "VIOLATED" }
    );
}

/// Errors out with [`EXIT_FAILURE_EQUIVALENCE`] when the report has
/// violations, folding the rendered report into the message so nothing is
/// lost on the error path.
fn require_holds(report: String, fr: &FailureEquivalenceReport) -> Result<String, CmdError> {
    if fr.holds() {
        return Ok(report);
    }
    let mut message = report;
    for v in fr.violations() {
        let _ = writeln!(message, "violation: {v}");
    }
    Err(CmdError {
        code: EXIT_FAILURE_EQUIVALENCE,
        message,
    })
}

/// Post-anonymization verification for `--verify-failures`. ConfMask
/// results carry the full per-scenario machinery (exact degradation-class
/// equivalence, exit 4 on violation). The other strategies never promise
/// per-scenario equivalence — only reachability on the real host pairs —
/// so for them the guarantee they *do* claim is what gets checked.
fn verify_after_anonymize(
    mut report: String,
    net: &confmask::NetworkConfigs,
    result: &confmask::AnonymizedNetwork,
    k: usize,
    k2_sample: usize,
) -> Result<String, CmdError> {
    match result.confmask.as_deref() {
        Some(detail) => {
            let fr = confmask::verify_failure_equivalence(net, detail, k, k2_sample);
            write_failure_report(&mut report, &fr);
            require_holds(report, &fr)
        }
        None => {
            let ok = result.reachability_preserved();
            let _ = writeln!(
                report,
                "verification ({} strategy): reachability on {} real host pair(s) {}",
                result.strategy,
                result.real_hosts.len() * result.real_hosts.len().saturating_sub(1),
                if ok { "preserved" } else { "VIOLATED" }
            );
            let _ = writeln!(
                report,
                "  (per-scenario failure equivalence is a confmask-only guarantee; \
                 this strategy claims reachability preservation)"
            );
            if ok {
                Ok(report)
            } else {
                Err(CmdError {
                    code: EXIT_FAILURE_EQUIVALENCE,
                    message: report,
                })
            }
        }
    }
}

/// Runs a parsed command, returning the report to print.
pub fn run(cmd: Command) -> Result<String, CmdError> {
    match cmd {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Anonymize {
            input,
            output,
            params,
            pii,
            verify_failures,
            vendor,
            strategy,
        } => {
            let (net, vendor) = load_dir_as(&input, vendor).map_err(load_err)?;
            confmask_obs::info!(
                "cli.anonymize",
                "anonymizing {} ({} routers, {} hosts, dialect {vendor}) with {strategy}, k_R={}, k_H={}",
                input.display(),
                net.routers.len(),
                net.hosts.len(),
                params.k_r,
                params.k_h
            );
            let result = confmask::anonymizer_for(strategy)
                .anonymize(&net, &params)
                .map_err(anonymize_err)?;
            let mut report = String::new();
            let _ = writeln!(
                report,
                "anonymized {} routers / {} hosts ({strategy} strategy, k_R={}, k_H={}, seed={}, dialect {vendor})",
                net.routers.len(),
                net.hosts.len(),
                params.k_r,
                params.k_h,
                params.seed
            );
            match result.confmask.as_deref() {
                Some(detail) => {
                    let _ = writeln!(
                        report,
                        "  fake links: {}, fake hosts: {}, fake routers: {}, filters: {} lines",
                        detail.fake_links.len(),
                        detail.route_anon.fake_hosts.len(),
                        detail.scale.fake_routers.len(),
                        detail.ledger.filter_lines
                    );
                    let _ = writeln!(
                        report,
                        "  functional equivalence: {} | U_C = {:.3} | N_r avg = {:.2}",
                        detail.functionally_equivalent(),
                        detail.config_utility(),
                        detail.route_anonymity().avg()
                    );
                    write_degradation(&mut report, &detail.degradation);
                }
                None => {
                    let _ = writeln!(
                        report,
                        "  fake links: {}, fake hosts: {}, fake routers: {}",
                        result.fake_links,
                        result.fake_hosts,
                        result.fake_routers
                    );
                    let _ = writeln!(
                        report,
                        "  paths preserved: {} | reachability preserved: {} | kept-path ratio: {:.3}",
                        result.paths_preserved(),
                        result.reachability_preserved(),
                        result.kept_path_ratio()
                    );
                }
            }
            let final_configs = if pii {
                let (shared, pii_report) = apply_pii(&result.configs, &PiiOptions::default());
                let _ = writeln!(
                    report,
                    "  PII add-on: {} addresses rewritten, {} devices renamed, {} secrets scrubbed",
                    pii_report.addresses_rewritten,
                    pii_report.devices_renamed,
                    pii_report.secrets_scrubbed
                );
                shared
            } else {
                result.configs.clone()
            };
            store_dir_as(&final_configs, &output, vendor).map_err(|e| e.to_string())?;
            let _ = writeln!(report, "wrote {} ({} dialect)", output.display(), vendor);
            match verify_failures {
                None => Ok(report),
                Some(k) => verify_after_anonymize(report, &net, &result, k, 5),
            }
        }
        Command::Failures {
            input,
            params,
            k,
            verify,
            k2_sample,
            vendor,
            strategy,
        } => {
            let (net, label) = match &input {
                Some(dir) => (
                    load_dir_as(dir, vendor).map_err(load_err)?.0,
                    dir.display().to_string(),
                ),
                None => (
                    confmask_netgen::synthesize(&confmask_netgen::smallnets::university()),
                    "bundled university network".to_string(),
                ),
            };
            let mut report = String::new();
            match verify {
                // Plain sweep: degrade the input network itself. The sweep
                // converges the healthy network once and folds each scenario
                // into a compact digest incrementally (byte-identical to cold
                // simulation). The scenarios stream through the shared
                // executor in bounded windows, and only the report lines are
                // retained — never the simulations.
                None => {
                    let engine = confmask_sim_delta::DeltaEngine::global();
                    let conv = engine.converged(&net).map_err(|e| e.to_string())?;
                    let scenarios = enumerate_scenarios(&net, k, params.seed, k2_sample);
                    let _ = writeln!(
                        report,
                        "failure sweep of {label}: {} scenario(s) at k<={k}",
                        scenarios.len()
                    );
                    // Digests arrive at the reducer in scenario order, so
                    // the report reads identically at any thread count.
                    struct ReportReducer<'a> {
                        report: &'a mut String,
                        scenarios: &'a [confmask_sim::FailureScenario],
                    }
                    impl confmask_sim::SweepReducer for ReportReducer<'_> {
                        fn fold(&mut self, i: usize, digest: confmask_sim::ScenarioDigest) {
                            confmask_obs::info!(
                                "cli.failures",
                                "scenario {}/{}: {}",
                                i + 1,
                                self.scenarios.len(),
                                self.scenarios[i]
                            );
                            let hist: Vec<String> = digest
                                .histogram_nonzero()
                                .map(|(class, n)| format!("{n} {class}"))
                                .collect();
                            let _ = writeln!(
                                self.report,
                                "  {}: worst={} [{}]",
                                self.scenarios[i],
                                digest.worst,
                                hist.join(", ")
                            );
                        }
                        fn fold_err(&mut self, i: usize, error: confmask_sim::SimError) {
                            confmask_obs::info!(
                                "cli.failures",
                                "scenario {}/{}: {}",
                                i + 1,
                                self.scenarios.len(),
                                self.scenarios[i]
                            );
                            let _ = writeln!(
                                self.report,
                                "  {}: simulation failed: {error}",
                                self.scenarios[i]
                            );
                        }
                    }
                    let mut reducer = ReportReducer {
                        report: &mut report,
                        scenarios: &scenarios,
                    };
                    confmask_sim_delta::ScenarioSweep::new(engine, &conv, &conv.sim.dataplane)
                        .run(scenarios.iter(), &mut reducer);
                    Ok(report)
                }
                // Anonymize, then verify equivalence under failure.
                Some(vk) => {
                    let result = confmask::anonymizer_for(strategy)
                        .anonymize(&net, &params)
                        .map_err(anonymize_err)?;
                    let _ = writeln!(
                        report,
                        "anonymized {label} ({strategy} strategy, k_R={}, k_H={}, seed={}): {} fake links, {} fake routers",
                        params.k_r,
                        params.k_h,
                        params.seed,
                        result.fake_links,
                        result.fake_routers
                    );
                    if let Some(detail) = result.confmask.as_deref() {
                        write_degradation(&mut report, &detail.degradation);
                    }
                    verify_after_anonymize(report, &net, &result, vk, k2_sample)
                }
            }
        }
        Command::Simulate { input, trace } => {
            let net = load_dir(&input).map_err(|e| e.to_string())?;
            let sim = confmask::simulate(&net).map_err(|e| e.to_string())?;
            let mut report = String::new();
            match trace {
                Some((src, dst)) => {
                    let ps = sim
                        .dataplane
                        .between(&src, &dst)
                        .ok_or_else(|| format!("no such host pair {src} -> {dst}"))?;
                    let _ = writeln!(report, "traceroute {src} -> {dst}:");
                    for p in ps.paths() {
                        let _ = writeln!(report, "  {}", p.join(" -> "));
                    }
                    if ps.blackhole() {
                        let _ = writeln!(report, "  (some branch black-holes)");
                    }
                    if ps.has_loop() {
                        let _ = writeln!(report, "  (some branch loops)");
                    }
                }
                None => {
                    let total = sim.dataplane.len();
                    let clean = sim.dataplane.pairs().filter(|ps| ps.clean()).count();
                    let blackholes =
                        sim.dataplane.pairs().filter(|ps| ps.blackhole()).count();
                    let loops = sim.dataplane.pairs().filter(|ps| ps.has_loop()).count();
                    let _ = writeln!(
                        report,
                        "data plane: {total} host pairs — {clean} clean, {blackholes} with black holes, {loops} with loops"
                    );
                }
            }
            Ok(report)
        }
        Command::Inspect { input } => {
            let net = load_dir(&input).map_err(|e| e.to_string())?;
            let topo = extract_topology(&net);
            let errors = confmask_config::validate(&net);
            let mut report = String::new();
            let _ = writeln!(
                report,
                "routers: {}  hosts: {}  links: {}  config lines: {}",
                net.routers.len(),
                net.hosts.len(),
                topo.edge_count(),
                net.total_lines()
            );
            let _ = writeln!(
                report,
                "k_d (min same-degree): {}  clustering coefficient: {:.3}",
                min_same_degree(&topo),
                clustering_coefficient(&topo)
            );
            if errors.is_empty() {
                let _ = writeln!(report, "validation: clean");
            } else {
                let _ = writeln!(report, "validation: {} finding(s)", errors.len());
                for e in errors.iter().take(10) {
                    let _ = writeln!(report, "  - {e}");
                }
            }
            Ok(report)
        }
        Command::ObsReport {
            input,
            chrome_trace,
        } => {
            // `-` reads the report from stdin, so the daemon's JSON metrics
            // endpoint can be piped straight in:
            // `curl …/metrics-json | confmask obs-report -`.
            let (text, label) = if input.as_os_str() == "-" {
                let mut text = String::new();
                std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                    .map_err(|e| format!("cannot read stdin: {e}"))?;
                (text, "stdin".to_string())
            } else {
                (
                    std::fs::read_to_string(&input)
                        .map_err(|e| format!("cannot read {}: {e}", input.display()))?,
                    input.display().to_string(),
                )
            };
            let report = confmask_obs::Report::from_json(&text)
                .map_err(|e| format!("{label} is not a metrics report: {e}"))?;
            if chrome_trace {
                // Chrome trace-event JSON for Perfetto / chrome://tracing.
                Ok(report.to_chrome_trace())
            } else {
                Ok(report.render())
            }
        }
        Command::Serve {
            addr,
            workers,
            queue_cap,
            job_timeout_secs,
            state_dir,
            requeue_budget,
        } => {
            let server = confmask_serve::Server::bind(&confmask_serve::ServeOptions {
                addr: addr.clone(),
                workers,
                queue_cap,
                job_timeout: job_timeout_secs.map(std::time::Duration::from_secs),
                state_dir,
                requeue_budget,
            })
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            // Announce readiness immediately (scripts wait for this line);
            // `run` blocks until POST /v1/shutdown.
            println!(
                "confmask-serve listening on {} ({} worker(s), queue capacity {})",
                server.local_addr(),
                server.workers(),
                queue_cap
            );
            let _ = std::io::Write::flush(&mut std::io::stdout());
            let counts = server.run().map_err(|e| e.to_string())?;
            Ok(format!(
                "drained: {} done, {} degraded, {} failed\n",
                counts.done, counts.degraded, counts.failed
            ))
        }
        Command::Submit {
            addr,
            input,
            params,
            wait,
            output,
            poll_ms,
            shutdown,
            vendor,
            strategy,
        } => {
            use confmask_serve::{client, wire};
            if shutdown {
                let resp = client::post(&addr, "/v1/shutdown", "")
                    .map_err(|e| format!("cannot reach {addr}: {e}"))?;
                if resp.status != 202 {
                    return Err(format!(
                        "shutdown refused ({}): {}",
                        resp.status,
                        resp.text().trim()
                    )
                    .into());
                }
                return Ok(format!("daemon at {addr} is draining\n"));
            }
            let input = input.expect("parser requires --input without --shutdown");
            let (net, vendor) = load_dir_as(&input, vendor).map_err(load_err)?;
            let body = wire::encode_submit(&net, &params, vendor, strategy);
            let resp = client::post(&addr, "/v1/jobs", &body)
                .map_err(|e| format!("cannot reach {addr}: {e}"))?;
            if resp.status != 202 {
                return Err(format!(
                    "submission refused ({}): {}",
                    resp.status,
                    resp.text().trim()
                )
                .into());
            }
            let id = wire::decode_job_created(&resp.body)
                .map_err(|e| format!("malformed daemon response: {e}"))?;
            let mut report = String::new();
            let _ = writeln!(
                report,
                "submitted job {id} to {addr} ({vendor} dialect, {strategy} strategy)"
            );
            if !wait {
                return Ok(report);
            }
            let status = loop {
                let resp = client::get(&addr, &format!("/v1/jobs/{id}"))
                    .map_err(|e| format!("cannot poll {addr}: {e}"))?;
                if resp.status != 200 {
                    return Err(format!(
                        "poll failed ({}): {}",
                        resp.status,
                        resp.text().trim()
                    )
                    .into());
                }
                let status = wire::decode_status(&resp.body)
                    .map_err(|e| format!("malformed status: {e}"))?;
                if status.is_terminal() {
                    break status;
                }
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            };
            let _ = writeln!(
                report,
                "job {id}: {} after {} attempt(s), {} ms",
                status.state,
                status.attempts,
                status.wall_ms.unwrap_or(0)
            );
            if status.state == "failed" {
                let mut message = report;
                let _ = writeln!(
                    message,
                    "error: {}",
                    status.error.as_deref().unwrap_or("unknown")
                );
                return Err(message.into());
            }
            if let Some(out) = output {
                let resp = client::get(&addr, &format!("/v1/jobs/{id}/artifacts"))
                    .map_err(|e| format!("cannot fetch artifacts: {e}"))?;
                if resp.status != 200 {
                    return Err(format!(
                        "artifact fetch failed ({}): {}",
                        resp.status,
                        resp.text().trim()
                    )
                    .into());
                }
                let files = wire::decode_artifacts(&resp.body)
                    .map_err(|e| format!("malformed artifacts: {e}"))?;
                for f in &files {
                    let path = out.join(&f.path);
                    if let Some(parent) = path.parent() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
                    }
                    std::fs::write(&path, &f.text)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                }
                let _ = writeln!(report, "wrote {} file(s) to {}", files.len(), out.display());
            }
            Ok(report)
        }
        Command::Generate {
            network,
            output,
            vendor,
        } => {
            let suite = confmask_netgen::extended_suite();
            let net = suite
                .iter()
                .find(|n| n.id == network)
                .ok_or_else(|| format!("no evaluation network '{network}'"))?;
            // Nothing to sniff when generating: default to the canonical
            // IOS dialect.
            let vendor = vendor.unwrap_or(confmask::Vendor::Ios);
            store_dir_as(&net.configs, &output, vendor).map_err(|e| e.to_string())?;
            Ok(format!(
                "wrote net {} ({}) to {} ({} dialect)\n",
                net.id,
                net.name,
                output.display(),
                vendor
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::store_dir;
    use confmask::Params;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("confmask-cmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn generate_inspect_anonymize_simulate_workflow() {
        let src = tmp("wf-src");
        let dst = tmp("wf-dst");

        let out = run(Command::Generate {
            network: 'A',
            output: src.clone(),
            vendor: None,
        })
        .unwrap();
        assert!(out.contains("Enterprise"));

        let out = run(Command::Inspect { input: src.clone() }).unwrap();
        assert!(out.contains("routers: 10"));
        assert!(out.contains("validation: clean"));

        let out = run(Command::Anonymize {
            input: src.clone(),
            output: dst.clone(),
            params: Params::new(4, 2),
            pii: true,
            verify_failures: None,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap();
        assert!(out.contains("functional equivalence: true"));
        assert!(out.contains("PII add-on"));

        let out = run(Command::Simulate {
            input: dst.clone(),
            trace: None,
        })
        .unwrap();
        assert!(out.contains("0 with black holes"), "{out}");
        assert!(out.contains("0 with loops"), "{out}");

        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn anonymize_dispatches_non_confmask_strategies() {
        let src = tmp("strat-src");
        let dst = tmp("strat-dst");
        run(Command::Generate {
            network: 'A',
            output: src.clone(),
            vendor: None,
        })
        .unwrap();
        let out = run(Command::Anonymize {
            input: src.clone(),
            output: dst.clone(),
            params: Params::new(4, 2),
            pii: false,
            verify_failures: Some(1),
            vendor: None,
            strategy: confmask::Strategy::NetCloak,
        })
        .unwrap();
        assert!(out.contains("netcloak strategy"), "{out}");
        assert!(out.contains("paths preserved: true"), "{out}");
        assert!(out.contains("reachability preserved: preserved") || out.contains("preserved"), "{out}");
        // The emitted bundle is a loadable configuration directory with
        // more routers than the input (cloak expansion).
        let expanded = load_dir(&dst).unwrap();
        let original = load_dir(&src).unwrap();
        assert!(expanded.routers.len() > original.routers.len());
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn simulate_trace_prints_paths() {
        let dir = tmp("trace");
        run(Command::Generate {
            network: 'A',
            output: dir.clone(),
            vendor: None,
        })
        .unwrap();
        let out = run(Command::Simulate {
            input: dir.clone(),
            trace: Some(("ha0".into(), "ha7".into())),
        })
        .unwrap();
        assert!(out.contains("traceroute ha0 -> ha7"));
        assert!(out.contains(" -> "), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failures_sweep_reports_every_single_link_scenario() {
        let dir = tmp("fail-sweep");
        store_dir(&confmask_netgen::smallnets::example_network(), &dir).unwrap();
        let out = run(Command::Failures {
            input: Some(dir.clone()),
            params: Params::default(),
            k: 1,
            verify: None,
            k2_sample: 0,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap();
        assert!(out.contains("failure sweep"), "{out}");
        assert!(out.contains("link-down"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failures_verify_holds_on_example_network() {
        let dir = tmp("fail-verify");
        store_dir(&confmask_netgen::smallnets::example_network(), &dir).unwrap();
        let out = run(Command::Failures {
            input: Some(dir.clone()),
            params: Params::new(3, 2),
            k: 1,
            verify: Some(1),
            k2_sample: 0,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap();
        assert!(out.contains("classes match"), "{out}");
        assert!(out.contains("verdict: HOLDS"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn obs_report_renders_a_written_report() {
        let dir = tmp("obs-report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        // A hand-built report: rendering must work on any valid file, not
        // just one this process collected.
        let json = r#"{
          "version": 1,
          "dropped_spans": 0,
          "spans": [{"name": "pipeline.anonymize", "id": 1, "thread": 0,
                     "start_us": 0, "duration_us": 10, "children": [
                       {"name": "pipeline.stage.verify", "id": 2, "thread": 0,
                        "start_us": 1, "duration_us": 5, "children": []}]}],
          "counters": {"sim.simulations": 3},
          "gauges": {},
          "histograms": {"sim.fib.size": {"count": 2, "sum": 10, "min": 4,
                         "max": 6, "p50": 4, "p90": 6, "p99": 6}},
          "events": []
        }"#;
        std::fs::write(&path, json).unwrap();
        let out = run(Command::ObsReport {
            input: path.clone(),
            chrome_trace: false,
        })
        .unwrap();
        assert!(out.contains("pipeline.anonymize"), "{out}");
        assert!(out.contains("pipeline.stage.verify"), "{out}");
        assert!(out.contains("sim.simulations"), "{out}");
        assert!(out.contains("sim.fib.size"), "{out}");

        // The same report converts to Chrome trace-event JSON.
        let out = run(Command::ObsReport {
            input: path,
            chrome_trace: true,
        })
        .unwrap();
        let doc = confmask_obs::json::parse(&out).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(confmask_obs::json::Json::as_arr)
            .expect("traceEvents");
        assert!(
            events.iter().any(|e| {
                e.get("name").and_then(confmask_obs::json::Json::as_str)
                    == Some("pipeline.stage.verify")
            }),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();

        let err = run(Command::ObsReport {
            input: PathBuf::from("/definitely/not/here.json"),
            chrome_trace: false,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_FATAL);
    }

    #[test]
    fn submit_runs_a_job_and_fetches_artifacts() {
        let src = tmp("submit-src");
        let dst = tmp("submit-dst");
        run(Command::Generate {
            network: 'A',
            output: src.clone(),
            vendor: None,
        })
        .unwrap();

        let server = confmask_serve::Server::bind(&confmask_serve::ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_cap: 4,
            ..confmask_serve::ServeOptions::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let out = run(Command::Submit {
            addr: addr.clone(),
            input: Some(src.clone()),
            params: Params::new(4, 2),
            wait: true,
            output: Some(dst.clone()),
            poll_ms: 10,
            shutdown: false,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap();
        assert!(out.contains("submitted job j1"), "{out}");
        assert!(out.contains("job j1: done") || out.contains("job j1: degraded"), "{out}");
        assert!(out.contains("file(s) to"), "{out}");
        // The fetched bundle is a loadable configuration directory.
        let fetched = load_dir(&dst).unwrap();
        assert!(!fetched.routers.is_empty());

        let out = run(Command::Submit {
            addr: addr.clone(),
            input: None,
            params: Params::default(),
            wait: false,
            output: None,
            poll_ms: 10,
            shutdown: true,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap();
        assert!(out.contains("draining"), "{out}");
        let counts = daemon.join().unwrap();
        assert_eq!(counts.done + counts.degraded, 1);

        // An unreachable daemon is a fatal error, not a panic.
        let err = run(Command::Submit {
            addr: addr.clone(),
            input: Some(src.clone()),
            params: Params::default(),
            wait: false,
            output: None,
            poll_ms: 10,
            shutdown: false,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_FATAL);

        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn fatal_errors_carry_exit_code_one() {
        let err = run(Command::Inspect {
            input: PathBuf::from("/definitely/not/here"),
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_FATAL);
    }

    #[test]
    fn unparseable_config_is_a_usage_error_naming_the_file() {
        let dir = tmp("parse-exit");
        std::fs::create_dir_all(dir.join("routers")).unwrap();
        std::fs::write(dir.join("routers/ok.cfg"), "hostname ok\n!\n").unwrap();
        std::fs::write(
            dir.join("routers/broken.cfg"),
            "hostname x\n!\nrouter ospf 1\n garbage here\n",
        )
        .unwrap();
        let err = run(Command::Anonymize {
            input: dir.clone(),
            output: dir.join("out"),
            params: Params::default(),
            pii: false,
            verify_failures: None,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap_err();
        // A file that exists but cannot be parsed is exit 2 (bad input),
        // and the message pinpoints file and line — not exit 1 with a
        // bare line number.
        assert_eq!(err.code, EXIT_USAGE, "{}", err.message);
        assert!(err.message.contains("broken.cfg"), "{}", err.message);
        assert!(err.message.contains("line 4"), "{}", err.message);
        // A missing directory stays fatal (exit 1).
        let err = run(Command::Anonymize {
            input: PathBuf::from("/definitely/not/here"),
            output: dir.join("out"),
            params: Params::default(),
            pii: false,
            verify_failures: None,
            vendor: None,
            strategy: confmask::Strategy::ConfMask,
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_FATAL);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run(Command::Inspect {
            input: PathBuf::from("/definitely/not/here"),
        })
        .is_err());
        let dir = tmp("badtrace");
        run(Command::Generate {
            network: 'A',
            output: dir.clone(),
            vendor: None,
        })
        .unwrap();
        assert!(run(Command::Simulate {
            input: dir.clone(),
            trace: Some(("nope".into(), "also-nope".into())),
        })
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
