//! Hand-rolled argument parsing (no external dependencies).

use confmask::{EquivalenceMode, Params, Strategy, Vendor};
use std::path::PathBuf;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Anonymize a configuration directory.
    Anonymize {
        /// Input directory.
        input: PathBuf,
        /// Output directory (created if missing).
        output: PathBuf,
        /// Pipeline parameters.
        params: Params,
        /// Also run the PII add-on on the result.
        pii: bool,
        /// Verify equivalence under failure up to this k after anonymizing.
        verify_failures: Option<usize>,
        /// Configuration dialect (`None` = auto-detect).
        vendor: Option<Vendor>,
        /// Anonymization strategy (default: `confmask`).
        strategy: Strategy,
    },
    /// Sweep failure scenarios; optionally verify equivalence under failure.
    Failures {
        /// Input directory (the bundled university network when absent).
        input: Option<PathBuf>,
        /// Pipeline parameters (used when `--verify-failures` anonymizes).
        params: Params,
        /// Max simultaneous faults for the plain sweep (k = 1 default).
        k: usize,
        /// Anonymize and verify equivalence under failure up to this k.
        verify: Option<usize>,
        /// How many k = 2 scenarios to sample when k ≥ 2.
        k2_sample: usize,
        /// Configuration dialect (`None` = auto-detect).
        vendor: Option<Vendor>,
        /// Anonymization strategy used by `--verify-failures` (default:
        /// `confmask`).
        strategy: Strategy,
    },
    /// Simulate a configuration directory and report the data plane.
    Simulate {
        /// Input directory.
        input: PathBuf,
        /// Optional single traceroute (src host, dst host).
        trace: Option<(String, String)>,
    },
    /// Summarize a configuration directory (topology + metrics).
    Inspect {
        /// Input directory.
        input: PathBuf,
    },
    /// Write one of the evaluation networks to disk.
    Generate {
        /// Evaluation network id (`A`–`H` Table 2, `I`–`K` extended).
        network: char,
        /// Output directory.
        output: PathBuf,
        /// Dialect to emit the fixture in (`None` = IOS, the canonical
        /// default — there is nothing to auto-detect when generating).
        vendor: Option<Vendor>,
    },
    /// Pretty-print a metrics report written by `--metrics-out`.
    ObsReport {
        /// The JSON report file (`-` reads stdin).
        input: PathBuf,
        /// Emit Chrome trace-event JSON (loadable in Perfetto /
        /// `chrome://tracing`) instead of the human-readable rendering.
        chrome_trace: bool,
    },
    /// Run the anonymization daemon.
    Serve {
        /// Bind address (`host:port`).
        addr: String,
        /// Worker threads (0 = available parallelism).
        workers: usize,
        /// Job queue capacity; beyond it submissions get 429.
        queue_cap: usize,
        /// Per-stage deadline applied to jobs without their own.
        job_timeout_secs: Option<u64>,
        /// Durable state directory (WAL + snapshots); jobs survive
        /// crashes and restarts when set.
        state_dir: Option<PathBuf>,
        /// Times a crash-interrupted job is re-admitted before failing.
        requeue_budget: u32,
    },
    /// Submit a job to (or drain) a running daemon.
    Submit {
        /// Daemon address (`host:port`).
        addr: String,
        /// Input directory (required unless `--shutdown`).
        input: Option<PathBuf>,
        /// Pipeline parameters sent with the job.
        params: Params,
        /// Poll until the job reaches a terminal state.
        wait: bool,
        /// Fetch the artifacts into this directory (implies `wait`).
        output: Option<PathBuf>,
        /// Poll interval in milliseconds.
        poll_ms: u64,
        /// Ask the daemon to drain and exit instead of submitting.
        shutdown: bool,
        /// Configuration dialect (`None` = auto-detect).
        vendor: Option<Vendor>,
        /// Anonymization strategy sent with the job (default: `confmask`).
        strategy: Strategy,
    },
    /// Print usage.
    Help,
}

/// Observability flags, accepted anywhere on the command line for any
/// subcommand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Diagnostic verbosity: 0 = warnings, 1 (`-v`) = info, 2+ (`-vv`) =
    /// debug. Diagnostics go to stderr; stdout stays machine-readable.
    pub verbosity: u8,
    /// Write a JSON metrics report (span tree + counters + histograms)
    /// here after the command finishes, even on failure.
    pub metrics_out: Option<PathBuf>,
    /// Worker threads for the shared executor (0 = `CONFMASK_THREADS` env
    /// var if set, else available parallelism). Independent of `serve
    /// --workers`, which sizes the daemon's job workers.
    pub threads: usize,
}

/// Argument parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Usage text.
pub const USAGE: &str = "\
confmask — privacy-preserving network configuration sharing

USAGE:
  confmask anonymize --input <dir> --output <dir>
                     [--k-r N] [--k-h N] [--noise P] [--seed N]
                     [--fake-routers N] [--max-retries N]
                     [--stage-deadline-secs S] [--verify-failures K]
                     [--mode confmask|strawman1|strawman2] [--pii]
                     [--vendor auto|ios|junos-set|eos]
                     [--strategy confmask|nethide|netcloak]
  confmask failures  [--input <dir>] [--k N] [--verify-failures K]
                     [--k2-sample N] [--seed N] [--k-r N] [--k-h N]
                     [--fake-routers N] [--max-retries N]
                     [--stage-deadline-secs S]
                     [--vendor auto|ios|junos-set|eos]
                     [--strategy confmask|nethide|netcloak]
  confmask simulate  --input <dir> [--trace <src> <dst>]
  confmask inspect   --input <dir>
  confmask generate  --network <A..K> --output <dir>
                     [--vendor ios|junos-set|eos]   (alias: netgen)
  confmask obs-report <metrics.json | -> [--chrome-trace]
  confmask serve     [--addr H:P] [--workers N] [--queue-cap N]
                     [--job-timeout-secs S] [--state-dir <dir>]
                     [--requeue-budget N]
  confmask submit    [--addr H:P] --input <dir> [--wait]
                     [--output <dir>] [--poll-ms N]
                     [--seed N] [--k-r N] [--k-h N] [--noise P]
                     [--fake-routers N] [--max-retries N]
                     [--stage-deadline-secs S] [--mode ...]
                     [--vendor auto|ios|junos-set|eos]
                     [--strategy confmask|nethide|netcloak]
  confmask submit    [--addr H:P] --shutdown
  confmask help

Directories contain routers/*.cfg and hosts/*.cfg, in any supported
configuration dialect: Cisco IOS (`ios`, the canonical default),
Juniper flat set-statements (`junos-set`), or Arista EOS (`eos`).
`--vendor auto` (the default) sniffs the dialect per bundle; outputs
are written in the same dialect the input arrived in, and `generate
--vendor` emits any evaluation network in any dialect.

`--strategy` selects the anonymization algorithm: `confmask` (the
default) keeps every real forwarding path bit-identical; `nethide`
shares only an obfuscated topology (paths may shift to defaults);
`netcloak` grows the topology with cloak routers whose generated
configs keep all real host-pair routes intact. `anonymize`,
`failures --verify-failures`, and `submit` all accept it; the daemon
echoes the strategy in job status and artifact listings.

`failures` sweeps the
input network itself, or — with --verify-failures — anonymizes it first
and checks that original and anonymized degrade identically; it uses the
bundled university network when --input is omitted. Sweeps reuse the
converged baseline and recompute only what each fault touched (results
are byte-identical to cold simulation). --k and --verify-failures take
a failure order of 1 (every single-link failure) or 2 (plus a seeded
sample of --k2-sample double-link failures).

`serve` runs the anonymization-as-a-service daemon (default address
127.0.0.1:7077): POST /v1/jobs, GET /v1/jobs/{id}[/artifacts],
GET /healthz, GET /metrics (Prometheus), GET /metrics-json, and
POST /v1/shutdown for a graceful drain. With --state-dir every job
transition is journaled to a write-ahead log before it is acknowledged:
after a crash or kill the daemon replays the log, keeps finished jobs
(artifacts included), and re-runs interrupted ones with backoff — at
most --requeue-budget times (default 3) before they are failed.
`submit` is the matching client; `--output` fetches the anonymized
configs once the job finishes, and polling retries transparently
through a daemon restart.
`obs-report -` reads the JSON report from stdin, so
`curl .../metrics-json | confmask obs-report -` works; `--chrome-trace`
converts the report's span tree to Chrome trace-event JSON for Perfetto
or chrome://tracing instead of rendering it.

Observability (any subcommand):
  -v / -vv             info / debug diagnostics on stderr
  --metrics-out <path> write a JSON metrics report (span tree, counters,
                       histograms) after the command, even on failure;
                       render it with `confmask obs-report`
  --threads <N>        worker threads for parallel simulation, sweeps,
                       and mining (default: CONFMASK_THREADS env var if
                       set, else available parallelism; results are
                       identical at any thread count). Independent of
                       `serve --workers`, which sizes job concurrency

Exit codes: 0 success, 1 fatal error, 2 usage error, 3 anonymization
retries exhausted, 4 equivalence-under-failure violation.";

fn take_value<'a>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
) -> Result<&'a str, ArgError> {
    args.next()
        .ok_or_else(|| ArgError(format!("{flag} requires a value")))
}

fn parse_value<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a str>,
    flag: &str,
    expects: &str,
) -> Result<T, ArgError> {
    take_value(args, flag)?
        .parse()
        .map_err(|_| ArgError(format!("{flag} expects {expects}")))
}

/// Parses a failure order (`--k`, `--verify-failures`): only single- and
/// double-link failure sweeps exist.
fn failure_order<'a>(args: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<usize, ArgError> {
    match parse_value(args, flag, "a failure order of 1 or 2")? {
        k @ 1..=2 => Ok(k),
        k => Err(ArgError(format!("{flag} expects a failure order of 1 or 2, got {k}"))),
    }
}

/// Parses a `--vendor` value: `auto` means sniff the input.
fn vendor_value<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Option<Vendor>, ArgError> {
    match take_value(it, "--vendor")? {
        "auto" => Ok(None),
        other => other.parse().map(Some).map_err(ArgError),
    }
}

/// Parses a `--strategy` value (`confmask`, `nethide`, or `netcloak`).
fn strategy_value<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<Strategy, ArgError> {
    take_value(it, "--strategy")?.parse().map_err(ArgError)
}

/// Handles the [`Params`]-tweaking flags shared by `anonymize` and
/// `failures`. Returns `Ok(true)` when `flag` was one of them.
fn params_flag<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a str>,
    params: &mut Params,
) -> Result<bool, ArgError> {
    match flag {
        "--k-r" => params.k_r = parse_value(it, flag, "an integer")?,
        "--k-h" => params.k_h = parse_value(it, flag, "an integer")?,
        "--noise" => params.noise_p = parse_value(it, flag, "a float")?,
        "--seed" => params.seed = parse_value(it, flag, "an integer")?,
        "--fake-routers" => params.fake_routers = parse_value(it, flag, "an integer")?,
        "--max-retries" => params.max_retries = parse_value(it, flag, "an integer")?,
        "--stage-deadline-secs" => {
            let secs: u64 = parse_value(it, flag, "a number of seconds")?;
            params.stage_deadline = Some(std::time::Duration::from_secs(secs));
        }
        "--mode" => {
            params.mode = match take_value(it, flag)? {
                "confmask" => EquivalenceMode::ConfMask,
                "strawman1" => EquivalenceMode::Strawman1,
                "strawman2" => EquivalenceMode::Strawman2,
                other => return Err(ArgError(format!("unknown mode '{other}'"))),
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses `argv[1..]` into the command plus the cross-cutting
/// observability options ([`ObsOptions`] flags are accepted anywhere).
pub fn parse(argv: &[String]) -> Result<(Command, ObsOptions), ArgError> {
    let mut obs = ObsOptions::default();
    let mut rest: Vec<&str> = Vec::with_capacity(argv.len());
    let mut it0 = argv.iter().map(String::as_str);
    while let Some(arg) = it0.next() {
        match arg {
            "-v" | "--verbose" => obs.verbosity = obs.verbosity.saturating_add(1),
            "-vv" => obs.verbosity = obs.verbosity.saturating_add(2),
            "--metrics-out" => {
                obs.metrics_out = Some(PathBuf::from(take_value(&mut it0, arg)?));
            }
            "--threads" => {
                obs.threads = parse_value(&mut it0, arg, "an integer")?;
            }
            other => rest.push(other),
        }
    }
    Ok((parse_command(&rest)?, obs))
}

/// Parses the non-observability arguments.
fn parse_command(argv: &[&str]) -> Result<Command, ArgError> {
    let mut it = argv.iter().copied();
    let sub = it.next().unwrap_or("help");
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "anonymize" => {
            let mut input = None;
            let mut output = None;
            let mut params = Params::default();
            let mut pii = false;
            let mut verify_failures = None;
            let mut vendor = None;
            let mut strategy = Strategy::ConfMask;
            while let Some(flag) = it.next() {
                if params_flag(flag, &mut it, &mut params)? {
                    continue;
                }
                match flag {
                    "--input" => input = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--output" => output = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--pii" => pii = true,
                    "--verify-failures" => verify_failures = Some(failure_order(&mut it, flag)?),
                    "--vendor" => vendor = vendor_value(&mut it)?,
                    "--strategy" => strategy = strategy_value(&mut it)?,
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Anonymize {
                input: input.ok_or_else(|| ArgError("--input is required".into()))?,
                output: output.ok_or_else(|| ArgError("--output is required".into()))?,
                params,
                pii,
                verify_failures,
                vendor,
                strategy,
            })
        }
        "failures" => {
            let mut input = None;
            let mut params = Params::default();
            let mut k = 1;
            let mut verify = None;
            let mut k2_sample = 5;
            let mut vendor = None;
            let mut strategy = Strategy::ConfMask;
            while let Some(flag) = it.next() {
                if params_flag(flag, &mut it, &mut params)? {
                    continue;
                }
                match flag {
                    "--input" => input = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--k" => k = failure_order(&mut it, flag)?,
                    "--verify-failures" => verify = Some(failure_order(&mut it, flag)?),
                    "--k2-sample" => k2_sample = parse_value(&mut it, flag, "an integer")?,
                    "--vendor" => vendor = vendor_value(&mut it)?,
                    "--strategy" => strategy = strategy_value(&mut it)?,
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Failures {
                input,
                params,
                k,
                verify,
                k2_sample,
                vendor,
                strategy,
            })
        }
        "simulate" => {
            let mut input = None;
            let mut trace = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--input" => input = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--trace" => {
                        let src = take_value(&mut it, flag)?.to_string();
                        let dst = take_value(&mut it, flag)?.to_string();
                        trace = Some((src, dst));
                    }
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Simulate {
                input: input.ok_or_else(|| ArgError("--input is required".into()))?,
                trace,
            })
        }
        "inspect" => {
            let mut input = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--input" => input = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Inspect {
                input: input.ok_or_else(|| ArgError("--input is required".into()))?,
            })
        }
        "generate" | "netgen" => {
            let mut network = None;
            let mut output = None;
            let mut vendor = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--network" => {
                        let v = take_value(&mut it, flag)?;
                        let c = v.chars().next().unwrap_or(' ').to_ascii_uppercase();
                        if !('A'..='K').contains(&c) || v.len() != 1 {
                            return Err(ArgError(format!("--network expects A..K, got '{v}'")));
                        }
                        network = Some(c);
                    }
                    "--output" => output = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--vendor" => vendor = vendor_value(&mut it)?,
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Generate {
                network: network.ok_or_else(|| ArgError("--network is required".into()))?,
                output: output.ok_or_else(|| ArgError("--output is required".into()))?,
                vendor,
            })
        }
        "obs-report" => {
            let mut input = None;
            let mut chrome_trace = false;
            while let Some(flag) = it.next() {
                match flag {
                    "--input" => input = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--chrome-trace" => chrome_trace = true,
                    // A bare path (or `-` for stdin) is accepted positionally
                    // so `curl … | confmask obs-report -` works.
                    path if !path.starts_with("--") => input = Some(PathBuf::from(path)),
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::ObsReport {
                input: input
                    .ok_or_else(|| ArgError("obs-report needs a file path or '-'".into()))?,
                chrome_trace,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7077".to_string();
            let mut workers = 0usize;
            let mut queue_cap = 64usize;
            let mut job_timeout_secs = None;
            let mut state_dir = None;
            let mut requeue_budget = 3u32;
            while let Some(flag) = it.next() {
                match flag {
                    "--addr" => addr = take_value(&mut it, flag)?.to_string(),
                    "--workers" => workers = parse_value(&mut it, flag, "an integer")?,
                    "--queue-cap" => {
                        queue_cap = parse_value(&mut it, flag, "an integer")?;
                        if queue_cap == 0 {
                            return Err(ArgError("--queue-cap must be at least 1".into()));
                        }
                    }
                    "--job-timeout-secs" => {
                        job_timeout_secs =
                            Some(parse_value(&mut it, flag, "a number of seconds")?)
                    }
                    "--state-dir" => {
                        state_dir = Some(PathBuf::from(take_value(&mut it, flag)?))
                    }
                    "--requeue-budget" => {
                        requeue_budget = parse_value(&mut it, flag, "an integer")?
                    }
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Serve {
                addr,
                workers,
                queue_cap,
                job_timeout_secs,
                state_dir,
                requeue_budget,
            })
        }
        "submit" => {
            let mut addr = "127.0.0.1:7077".to_string();
            let mut input = None;
            let mut params = Params::default();
            let mut wait = false;
            let mut output = None;
            let mut poll_ms = 200;
            let mut shutdown = false;
            let mut vendor = None;
            let mut strategy = Strategy::ConfMask;
            while let Some(flag) = it.next() {
                if params_flag(flag, &mut it, &mut params)? {
                    continue;
                }
                match flag {
                    "--addr" => addr = take_value(&mut it, flag)?.to_string(),
                    "--input" => input = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--wait" => wait = true,
                    "--output" => output = Some(PathBuf::from(take_value(&mut it, flag)?)),
                    "--poll-ms" => poll_ms = parse_value(&mut it, flag, "an integer")?,
                    "--shutdown" => shutdown = true,
                    "--vendor" => vendor = vendor_value(&mut it)?,
                    "--strategy" => strategy = strategy_value(&mut it)?,
                    other => return Err(ArgError(format!("unknown flag '{other}'"))),
                }
            }
            if input.is_none() && !shutdown {
                return Err(ArgError("--input is required (unless --shutdown)".into()));
            }
            Ok(Command::Submit {
                addr,
                input,
                params,
                // Fetching artifacts requires the job to be finished.
                wait: wait || output.is_some(),
                output,
                poll_ms,
                shutdown,
                vendor,
                strategy,
            })
        }
        other => Err(ArgError(format!("unknown subcommand '{other}'\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    /// Parse, discarding the observability options.
    fn parse_cmd(argv: &[String]) -> Result<Command, ArgError> {
        parse(argv).map(|(cmd, _)| cmd)
    }

    #[test]
    fn parses_anonymize_with_all_flags() {
        let cmd = parse_cmd(&argv(
            "anonymize --input in --output out --k-r 10 --k-h 4 --noise 0.2 --seed 7 --fake-routers 3 --max-retries 5 --stage-deadline-secs 30 --mode strawman1 --pii --verify-failures 1",
        ))
        .unwrap();
        match cmd {
            Command::Anonymize {
                input,
                output,
                params,
                pii,
                verify_failures,
                ..
            } => {
                assert_eq!(input, PathBuf::from("in"));
                assert_eq!(output, PathBuf::from("out"));
                assert_eq!((params.k_r, params.k_h, params.seed), (10, 4, 7));
                assert_eq!(params.fake_routers, 3);
                assert!((params.noise_p - 0.2).abs() < 1e-12);
                assert_eq!(params.max_retries, 5);
                assert_eq!(params.stage_deadline, Some(std::time::Duration::from_secs(30)));
                assert_eq!(params.mode, EquivalenceMode::Strawman1);
                assert!(pii);
                assert_eq!(verify_failures, Some(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_failures_with_defaults_and_flags() {
        match parse_cmd(&argv("failures")).unwrap() {
            Command::Failures {
                input,
                k,
                verify,
                k2_sample,
                ..
            } => {
                assert_eq!(input, None);
                assert_eq!((k, verify, k2_sample), (1, None, 5));
            }
            other => panic!("{other:?}"),
        }
        match parse_cmd(&argv(
            "failures --input net --verify-failures 2 --k2-sample 3 --seed 9 --max-retries 0",
        ))
        .unwrap()
        {
            Command::Failures {
                input,
                params,
                verify,
                k2_sample,
                ..
            } => {
                assert_eq!(input, Some(PathBuf::from("net")));
                assert_eq!(verify, Some(2));
                assert_eq!(k2_sample, 3);
                assert_eq!(params.seed, 9);
                assert_eq!(params.max_retries, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_cmd(&argv("failures --verify-failures")).is_err());
        assert!(parse_cmd(&argv("failures --k nope")).is_err());
    }

    #[test]
    fn failure_orders_outside_one_and_two_are_rejected() {
        for cmd in [
            "failures --k",
            "failures --verify-failures",
            "anonymize --input in --output out --verify-failures",
        ] {
            for k in ["0", "3"] {
                let err = parse_cmd(&argv(&format!("{cmd} {k}"))).unwrap_err();
                assert!(err.0.contains("1 or 2"), "{cmd} {k}: {err}");
            }
            for k in ["1", "2"] {
                assert!(parse_cmd(&argv(&format!("{cmd} {k}"))).is_ok(), "{cmd} {k}");
            }
        }
    }

    #[test]
    fn anonymize_requires_io_flags() {
        assert!(parse_cmd(&argv("anonymize --input in")).is_err());
        assert!(parse_cmd(&argv("anonymize --output out")).is_err());
    }

    #[test]
    fn parses_simulate_with_trace() {
        let cmd = parse_cmd(&argv("simulate --input net --trace h1 h2")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                input: PathBuf::from("net"),
                trace: Some(("h1".into(), "h2".into())),
            }
        );
    }

    #[test]
    fn parses_generate_and_validates_network() {
        assert!(matches!(
            parse_cmd(&argv("generate --network G --output o")).unwrap(),
            Command::Generate { network: 'G', .. }
        ));
        // The extended suite (I–K: FatTree16 and the scaling WANs) parses.
        assert!(matches!(
            parse_cmd(&argv("generate --network K --output o")).unwrap(),
            Command::Generate { network: 'K', .. }
        ));
        assert!(parse_cmd(&argv("generate --network X --output o")).is_err());
        assert!(parse_cmd(&argv("generate --network AB --output o")).is_err());
    }

    #[test]
    fn netgen_is_an_alias_for_generate() {
        assert!(matches!(
            parse_cmd(&argv("netgen --network D --output o --vendor junos-set")).unwrap(),
            Command::Generate {
                network: 'D',
                vendor: Some(Vendor::JunosSet),
                ..
            }
        ));
    }

    #[test]
    fn vendor_flag_parses_on_every_command_that_takes_it() {
        assert!(matches!(
            parse_cmd(&argv("anonymize --input i --output o --vendor eos")).unwrap(),
            Command::Anonymize {
                vendor: Some(Vendor::Eos),
                ..
            }
        ));
        // `auto` is the default and means "sniff the input".
        assert!(matches!(
            parse_cmd(&argv("anonymize --input i --output o --vendor auto")).unwrap(),
            Command::Anonymize { vendor: None, .. }
        ));
        assert!(matches!(
            parse_cmd(&argv("anonymize --input i --output o")).unwrap(),
            Command::Anonymize { vendor: None, .. }
        ));
        assert!(matches!(
            parse_cmd(&argv("failures --vendor ios")).unwrap(),
            Command::Failures {
                vendor: Some(Vendor::Ios),
                ..
            }
        ));
        assert!(matches!(
            parse_cmd(&argv("submit --input i --vendor junos-set")).unwrap(),
            Command::Submit {
                vendor: Some(Vendor::JunosSet),
                ..
            }
        ));
        // Unknown dialects are usage errors that name the expected set.
        let e = parse_cmd(&argv("submit --input i --vendor nxos")).unwrap_err();
        assert!(e.0.contains("unknown vendor 'nxos'"), "{}", e.0);
        assert!(parse_cmd(&argv("submit --input i --vendor")).is_err());
    }

    #[test]
    fn strategy_flag_parses_on_every_command_that_takes_it() {
        assert!(matches!(
            parse_cmd(&argv("anonymize --input i --output o --strategy netcloak")).unwrap(),
            Command::Anonymize {
                strategy: Strategy::NetCloak,
                ..
            }
        ));
        // ConfMask is the default.
        assert!(matches!(
            parse_cmd(&argv("anonymize --input i --output o")).unwrap(),
            Command::Anonymize {
                strategy: Strategy::ConfMask,
                ..
            }
        ));
        assert!(matches!(
            parse_cmd(&argv("failures --strategy nethide")).unwrap(),
            Command::Failures {
                strategy: Strategy::NetHide,
                ..
            }
        ));
        assert!(matches!(
            parse_cmd(&argv("submit --input i --strategy netcloak --vendor eos")).unwrap(),
            Command::Submit {
                strategy: Strategy::NetCloak,
                vendor: Some(Vendor::Eos),
                ..
            }
        ));
        // Unknown strategies are usage errors naming the expected set.
        let e = parse_cmd(&argv("submit --input i --strategy netmask")).unwrap_err();
        assert!(e.0.contains("unknown strategy 'netmask'"), "{}", e.0);
        assert!(parse_cmd(&argv("anonymize --input i --output o --strategy")).is_err());
    }

    #[test]
    fn obs_flags_are_accepted_anywhere() {
        let (cmd, obs) = parse(&argv("-v anonymize --input in --metrics-out m.json --output out")).unwrap();
        assert!(matches!(cmd, Command::Anonymize { .. }));
        assert_eq!(obs.verbosity, 1);
        assert_eq!(obs.metrics_out, Some(PathBuf::from("m.json")));

        let (_, obs) = parse(&argv("inspect --input in -vv")).unwrap();
        assert_eq!(obs.verbosity, 2);
        let (_, obs) = parse(&argv("inspect --input in -v -v")).unwrap();
        assert_eq!(obs.verbosity, 2);
        let (_, obs) = parse(&argv("inspect --input in")).unwrap();
        assert_eq!(obs, ObsOptions::default());

        assert!(parse(&argv("inspect --input in --metrics-out")).is_err());
    }

    #[test]
    fn threads_flag_is_accepted_anywhere() {
        let (_, obs) = parse(&argv("--threads 4 inspect --input in")).unwrap();
        assert_eq!(obs.threads, 4);
        let (_, obs) = parse(&argv("failures --threads 2")).unwrap();
        assert_eq!(obs.threads, 2);
        let (_, obs) = parse(&argv("inspect --input in")).unwrap();
        assert_eq!(obs.threads, 0, "default is auto");
        assert!(parse(&argv("inspect --input in --threads nope")).is_err());
        assert!(parse(&argv("inspect --input in --threads")).is_err());
    }

    #[test]
    fn parses_obs_report() {
        assert_eq!(
            parse_cmd(&argv("obs-report --input metrics.json")).unwrap(),
            Command::ObsReport {
                input: PathBuf::from("metrics.json"),
                chrome_trace: false,
            }
        );
        // Positional form, including `-` for stdin.
        assert_eq!(
            parse_cmd(&argv("obs-report metrics.json")).unwrap(),
            Command::ObsReport {
                input: PathBuf::from("metrics.json"),
                chrome_trace: false,
            }
        );
        assert_eq!(
            parse_cmd(&argv("obs-report - --chrome-trace")).unwrap(),
            Command::ObsReport {
                input: PathBuf::from("-"),
                chrome_trace: true,
            }
        );
        assert!(parse_cmd(&argv("obs-report")).is_err());
        assert!(parse_cmd(&argv("obs-report --frobnicate")).is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_flags() {
        match parse_cmd(&argv("serve")).unwrap() {
            Command::Serve {
                addr,
                workers,
                queue_cap,
                job_timeout_secs,
                state_dir,
                requeue_budget,
            } => {
                assert_eq!(addr, "127.0.0.1:7077");
                assert_eq!((workers, queue_cap, job_timeout_secs), (0, 64, None));
                assert_eq!(state_dir, None, "ephemeral store by default");
                assert_eq!(requeue_budget, 3);
            }
            other => panic!("{other:?}"),
        }
        match parse_cmd(&argv(
            "serve --addr 0.0.0.0:8080 --workers 4 --queue-cap 8 --job-timeout-secs 30 \
             --state-dir /var/lib/confmask --requeue-budget 5",
        ))
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                queue_cap,
                job_timeout_secs,
                state_dir,
                requeue_budget,
            } => {
                assert_eq!(addr, "0.0.0.0:8080");
                assert_eq!((workers, queue_cap, job_timeout_secs), (4, 8, Some(30)));
                assert_eq!(state_dir, Some(PathBuf::from("/var/lib/confmask")));
                assert_eq!(requeue_budget, 5);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_cmd(&argv("serve --queue-cap 0")).is_err());
        assert!(parse_cmd(&argv("serve --workers nope")).is_err());
        assert!(parse_cmd(&argv("serve --state-dir")).is_err());
        assert!(parse_cmd(&argv("serve --requeue-budget nope")).is_err());
    }

    #[test]
    fn parses_submit_variants() {
        match parse_cmd(&argv("submit --input net --seed 5")).unwrap() {
            Command::Submit {
                addr,
                input,
                params,
                wait,
                output,
                poll_ms,
                shutdown,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:7077");
                assert_eq!(input, Some(PathBuf::from("net")));
                assert_eq!(params.seed, 5);
                assert!(!wait && !shutdown);
                assert_eq!((output, poll_ms), (None, 200));
            }
            other => panic!("{other:?}"),
        }
        // --output implies --wait.
        match parse_cmd(&argv("submit --input net --output anon --poll-ms 50")).unwrap() {
            Command::Submit { wait, output, poll_ms, .. } => {
                assert!(wait);
                assert_eq!(output, Some(PathBuf::from("anon")));
                assert_eq!(poll_ms, 50);
            }
            other => panic!("{other:?}"),
        }
        // --shutdown needs no input.
        match parse_cmd(&argv("submit --addr 127.0.0.1:9999 --shutdown")).unwrap() {
            Command::Submit { addr, input, shutdown, .. } => {
                assert_eq!(addr, "127.0.0.1:9999");
                assert_eq!(input, None);
                assert!(shutdown);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_cmd(&argv("submit")).is_err());
        assert!(parse_cmd(&argv("submit --wait")).is_err());
    }

    #[test]
    fn unknown_flags_and_subcommands_error() {
        assert!(parse_cmd(&argv("anonymize --frobnicate")).is_err());
        assert!(parse_cmd(&argv("explode")).is_err());
        assert_eq!(parse_cmd(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_cmd(&[]).unwrap(), Command::Help);
    }
}
