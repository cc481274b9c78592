//! `serve-mix`: an open loop against an in-process durable daemon (state
//! directory inside the checkout, two workers). Jobs are sent on a fixed
//! schedule whatever the daemon's progress, and each is timed from its
//! *scheduled* send to the poll that sees it terminal, so a stall charges
//! every job it delays. The generator runs `nproc` threads and records how
//! late it sends.
//!
//! The job mix is seeded: nets A, B, C (BGP+OSPF), G (fat tree) and the
//! RIP branch office; dialects ios, junos-set and eos; mostly ConfMask with
//! some NetCloak and NetHide (never NetCloak on RIP, which it rejects).
//! Each job's pipeline work is milliseconds, so HTTP, queue wait, WAL
//! fsync, codecs and cache hits on the repeated baselines dominate.
//!
//! A run spends half its seconds at a fixed offered rate (`op_ms_*`) and
//! the rest bisecting a fixed rate ladder for the highest rung whose tail
//! meets the latency limit without a growing backlog (`throughput_per_s`,
//! refined between that rung and the next).
//!
//! The tail is the median over 60-job windows of each window's p80. A p95
//! over the whole phase sat among the slowest jobs of the mix and the WAL
//! snapshot stalls, and bursts of interference on a shared host moved it
//! by a third between runs. Times stay wall-clock: the reference kernel of
//! `calib` swung more between runs than these small jobs did, so
//! normalizing by it added noise.

use crate::trace::ObsSnapshot;
use crate::{mix, stats, Bundle, Ctx, Outcome};
use confmask::{JobSpec, NetworkConfigs, Params, Strategy, Vendor};
use confmask_netgen::fattree::fattree_spec;
use confmask_netgen::smallnets::{backbone, branch_office_rip, enterprise, university};
use confmask_netgen::synth::synthesize;
use confmask_serve::{client, wire, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Executor threads per job.
pub const THREADS: usize = 1;
/// Offered rate of the fixed-rate phase (jobs/s).
pub const FIXED_RATE: f64 = 20.0;
/// The rate ladder (jobs/s), 12% apart; the bottom rung always passes, the
/// measured capacity (about 74) sits just above the middle rung, and the
/// top leaves room for a daemon twice as fast.
pub const LADDER: [f64; 15] = [
    30.0, 33.6, 37.6, 42.1, 47.2, 52.9, 59.2, 66.3, 74.3, 83.2, 93.2, 104.4, 116.9, 130.9, 146.6,
];
/// Share of the run spent at the fixed rate; the rest bisects the ladder.
const FIXED_SHARE: f64 = 0.5;
/// Percentile of each window's tail. Higher ones sit at the edge of the
/// slowest tenth of the mix (FatTree ConfMask jobs) or among the WAL
/// snapshot stalls, and jump between those and the next-slowest jobs from
/// run to run.
pub const TAIL_PCT: f64 = 80.0;
/// Jobs per tail window: three blocks of the mix, so every window holds
/// the same jobs.
pub const WINDOW: usize = 3 * BLOCK.len();
/// Latency limit on a rung's tail (ms).
pub const LIMIT_MS: f64 = 100.0;
/// Median-latency growth from a rung's first half to its second that
/// counts as a growing backlog (ms).
pub const GROWTH_MS: f64 = 25.0;
/// Bisection steps over the ladder (15 rungs resolve in 4).
const LADDER_STEPS: usize = 4;
/// Status poll interval.
const POLL: Duration = Duration::from_millis(5);
/// A job not terminal this long after its due time is abandoned as failed.
const GIVE_UP: Duration = Duration::from_secs(20);
/// Set-ups per run (median reported).
const SETUPS: usize = 7;
/// Jobs whose fetched artifacts are checked against an in-process run.
const CHECKED_ARTIFACTS: usize = 4;
/// Job seeds come from a small pool, so baselines repeat across jobs.
const SEED_POOL: u64 = 2;

/// The networks of the mix: label and configs.
fn nets() -> Vec<(&'static str, NetworkConfigs)> {
    vec![
        ("A", synthesize(&enterprise())),
        ("B", synthesize(&university())),
        ("C", synthesize(&backbone())),
        ("G", synthesize(&fattree_spec(4))),
        ("R", synthesize(&branch_office_rip())),
    ]
}

/// One block of twenty jobs as (net index, strategy): 14 ConfMask, 3
/// NetCloak (A, C, G), 3 NetHide (B, G, RIP).
const BLOCK: [(usize, Strategy); 20] = [
    (0, Strategy::ConfMask),
    (0, Strategy::ConfMask),
    (0, Strategy::ConfMask),
    (1, Strategy::ConfMask),
    (1, Strategy::ConfMask),
    (1, Strategy::ConfMask),
    (2, Strategy::ConfMask),
    (2, Strategy::ConfMask),
    (2, Strategy::ConfMask),
    (3, Strategy::ConfMask),
    (3, Strategy::ConfMask),
    (4, Strategy::ConfMask),
    (4, Strategy::ConfMask),
    (4, Strategy::ConfMask),
    (0, Strategy::NetCloak),
    (2, Strategy::NetCloak),
    (3, Strategy::NetCloak),
    (1, Strategy::NetHide),
    (3, Strategy::NetHide),
    (4, Strategy::NetHide),
];

/// A job of the mix: which body to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Kind {
    net: usize,
    strategy: Strategy,
    vendor: Vendor,
    seed: u64,
}

/// The seeded job sequence: block `b` is [`BLOCK`] shuffled, each job given
/// a dialect and a pool seed.
fn kinds(seed: u64, count: usize) -> Vec<Kind> {
    let mut out = Vec::with_capacity(count);
    let mut b = 0u64;
    while out.len() < count {
        let mut rng = StdRng::seed_from_u64(mix(seed, b));
        let mut block = BLOCK;
        block.shuffle(&mut rng);
        for (k, (net, strategy)) in block.into_iter().enumerate() {
            let r = mix(seed ^ 0x5E, b * 20 + k as u64);
            out.push(Kind {
                net,
                strategy,
                vendor: Vendor::ALL[(r % 3) as usize],
                seed: (r >> 8) % SEED_POOL,
            });
        }
        b += 1;
    }
    out.truncate(count);
    out
}

/// Every submission body a run may send, encoded once.
struct Bodies(std::collections::BTreeMap<Kind, String>);

impl Bodies {
    fn encode(nets: &[(&str, NetworkConfigs)]) -> Bodies {
        let mut map = std::collections::BTreeMap::new();
        for (net, strategy) in BLOCK {
            for vendor in Vendor::ALL {
                for seed in 0..SEED_POOL {
                    let kind = Kind {
                        net,
                        strategy,
                        vendor,
                        seed,
                    };
                    let params = Params::new(6, 2).with_seed(seed);
                    map.entry(kind).or_insert_with(|| {
                        wire::encode_submit(&nets[net].1, &params, vendor, strategy)
                    });
                }
            }
        }
        Bodies(map)
    }

    fn get(&self, kind: &Kind) -> &str {
        self.0.get(kind).expect("every kind of the mix is encoded")
    }
}

/// The in-process daemon and its state directory.
struct Daemon {
    addr: String,
    thread: std::thread::JoinHandle<std::io::Result<confmask_serve::store::JobCounts>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            state_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread, dir })
    }

    fn stop(self) -> Result<(), String> {
        client::post(&self.addr, "/v1/shutdown", "").map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))
    }
}

/// One scheduled job and what became of it.
#[derive(Debug, Clone)]
struct Job {
    kind: Kind,
    due: Instant,
    id: Option<String>,
    /// Send start minus due time.
    late_ms: f64,
    /// Due time to the poll that saw it terminal; `None` if it never was.
    latency_ms: Option<f64>,
    state: String,
    polls: u32,
}

impl Job {
    fn new(kind: Kind, due: Instant) -> Job {
        Job {
            kind,
            due,
            id: None,
            late_ms: 0.0,
            latency_ms: None,
            state: String::new(),
            polls: 0,
        }
    }
}

/// Client-side timings of the generator's calls into `serve::client`.
#[derive(Debug, Default)]
struct Calls {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
}

/// Sends `jobs` on their schedule from `threads` generator threads and
/// follows each to a terminal state (or gives up on it).
fn drive(addr: &str, bodies: &Bodies, jobs: &mut [Job], threads: usize, calls: &mut Calls) {
    let results: Vec<(Vec<(usize, Job)>, Calls)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|g| {
                let mine: Vec<(usize, Job)> = jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == g)
                    .map(|(i, j)| (i, j.clone()))
                    .collect();
                scope.spawn(move || generator(addr, bodies, mine))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    for (mine, c) in results {
        for (i, job) in mine {
            jobs[i] = job;
        }
        calls.submit_ms.extend(c.submit_ms);
        calls.status_ms.extend(c.status_ms);
    }
}

/// One generator thread: an event loop over its own jobs' sends and polls.
fn generator(
    addr: &str,
    bodies: &Bodies,
    mut mine: Vec<(usize, Job)>,
) -> (Vec<(usize, Job)>, Calls) {
    let mut calls = Calls::default();
    let mut next_send = 0usize;
    // (index into `mine`, next poll time) of jobs in flight.
    let mut flight: Vec<(usize, Instant)> = Vec::new();
    loop {
        let now = Instant::now();
        if next_send < mine.len() && mine[next_send].1.due <= now {
            let job = &mut mine[next_send].1;
            job.late_ms = (now - job.due).as_secs_f64() * 1e3;
            let t = Instant::now();
            let resp = client::post(addr, "/v1/jobs", bodies.get(&job.kind));
            calls.submit_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match resp {
                Ok(r) if r.status == 202 => match wire::decode_job_created(&r.body) {
                    Ok(id) => {
                        job.id = Some(id);
                        flight.push((next_send, Instant::now() + POLL));
                    }
                    Err(e) => job.state = format!("bad submit response: {e}"),
                },
                Ok(r) if r.status == 429 => job.state = "rejected".into(),
                Ok(r) => job.state = format!("submit status {}", r.status),
                Err(e) => job.state = format!("submit: {e}"),
            }
            next_send += 1;
            continue;
        }
        if let Some(pos) = (0..flight.len()).find(|&p| flight[p].1 <= now) {
            let (k, _) = flight[pos];
            let job = &mut mine[k].1;
            let id = job.id.clone().expect("jobs in flight have ids");
            let t = Instant::now();
            let resp = client::get(addr, &format!("/v1/jobs/{id}"));
            calls.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
            job.polls += 1;
            let status = resp
                .map_err(|e| e.to_string())
                .and_then(|r| wire::decode_status(&r.body));
            match status {
                Ok(s) if s.is_terminal() => {
                    job.latency_ms = Some((Instant::now() - job.due).as_secs_f64() * 1e3);
                    job.state = s.state;
                    flight.swap_remove(pos);
                }
                Ok(_) if Instant::now() > job.due + GIVE_UP => {
                    job.state = "abandoned".into();
                    flight.swap_remove(pos);
                }
                Ok(_) => flight[pos].1 = Instant::now() + POLL,
                Err(e) => {
                    job.state = format!("poll: {e}");
                    flight.swap_remove(pos);
                }
            }
            continue;
        }
        if next_send >= mine.len() && flight.is_empty() {
            return (mine, calls);
        }
        let wake = flight
            .iter()
            .map(|(_, t)| *t)
            .chain((next_send < mine.len()).then(|| mine[next_send].1.due))
            .min()
            .expect("something is pending");
        if let Some(d) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    }
}

/// `count` jobs offered at `rate` jobs/s from `start`, continuing the job
/// sequence at `first`.
fn schedule(kinds: &[Kind], first: usize, rate: f64, secs: f64, start: Instant) -> Vec<Job> {
    let count = (rate * secs).round().max(1.0) as usize;
    (0..count)
        .map(|k| {
            Job::new(
                kinds[(first + k) % kinds.len()],
                start + Duration::from_secs_f64(k as f64 / rate),
            )
        })
        .collect()
}

/// Latencies with unfinished or refused jobs read as infinitely late.
fn latencies(jobs: &[Job]) -> Vec<f64> {
    jobs.iter()
        .map(|j| match (&j.latency_ms, j.state.as_str()) {
            (Some(l), "done") => *l,
            _ => f64::INFINITY,
        })
        .collect()
}

/// The fixed-rate tail: each window of [`WINDOW`] consecutive jobs, in
/// schedule order, gives its [`TAIL_PCT`] latency, and the tail is the
/// median of those, so interference that slows one window of a run does
/// not move it. A phase shorter than a window is one window. Returns the
/// tail and the number of windows.
fn fixed_tail(jobs: &[Job]) -> (f64, usize) {
    let windows: Vec<&[Job]> = if jobs.len() < WINDOW {
        vec![jobs]
    } else {
        jobs.chunks_exact(WINDOW).collect()
    };
    let tails: Vec<f64> = windows
        .iter()
        .map(|w| stats::nearest_rank(&latencies(w), TAIL_PCT / 100.0))
        .collect();
    (stats::median(&tails), tails.len())
}

/// How far a rung is from failing: the larger of tail / limit and
/// growth / [`GROWTH_MS`], where growth is how much longer the median job
/// due in the rung's second half waited than the median job due in its
/// first (a growing backlog; medians, so one WAL snapshot stall does not
/// read as growth). The rung passes below 1; unfinished jobs read as
/// infinitely late.
fn rung_load(jobs: &[Job]) -> (f64, String) {
    let lat = latencies(jobs);
    if lat.iter().any(|l| !l.is_finite()) {
        return (f64::INFINITY, "unfinished".into());
    }
    let (tail, _, _) = stats::tail(&lat);
    let (early, late) = lat.split_at(lat.len() / 2);
    let growth = stats::median(late) - stats::median(early);
    (
        (tail / LIMIT_MS).max(growth / GROWTH_MS),
        format!("tail {tail:.0} growth {growth:.0}"),
    )
}

/// Capacity from the bisection's bracket: the highest passing rung,
/// refined by interpolating the load linearly to 1 between it and the
/// lowest failing rung, so a rate near a rung boundary reads near the
/// boundary from either side instead of jumping a whole rung.
fn capacity(pass: Option<(f64, f64)>, fail: Option<(f64, f64)>) -> f64 {
    match (pass, fail) {
        (Some((r0, l0)), Some((r1, l1))) if l1.is_finite() && l1 > l0 => {
            r0 + (r1 - r0) * ((1.0 - l0) / (l1 - l0)).clamp(0.0, 1.0)
        }
        (Some((r0, _)), _) => r0,
        (None, _) => LADDER[0] / 2.0,
    }
}

/// One set-up: start the daemon, encode the bodies, and run one job per
/// network so every baseline is converged before timing.
fn set_up(
    dir: PathBuf,
    nets: &[(&str, NetworkConfigs)],
    seed: u64,
) -> Result<(Daemon, Bodies), String> {
    let daemon = Daemon::start(dir)?;
    let bodies = Bodies::encode(nets);
    let mut warm: Vec<Job> = (0..nets.len())
        .map(|net| {
            let kind = Kind {
                net,
                strategy: Strategy::ConfMask,
                vendor: Vendor::Ios,
                seed: seed % SEED_POOL,
            };
            Job::new(kind, Instant::now())
        })
        .collect();
    drive(&daemon.addr, &bodies, &mut warm, 1, &mut Calls::default());
    if let Some(bad) = warm.iter().find(|j| j.state != "done") {
        return Err(format!(
            "warm-up job on net {} ended {}",
            nets[bad.kind.net].0, bad.state
        ));
    }
    Ok((daemon, bodies))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    confmask_exec::configure_threads(THREADS);
    let gen_threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let nets = nets();
    let dir = |k: usize| {
        ctx.out_dir
            .join(format!("serve-state-{}-{k}", std::process::id()))
    };
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let (daemon, bodies) = set_up(dir(k), &nets, ctx.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = live.replace((daemon, bodies)) {
            Daemon::stop(old)?;
        }
    }
    let (daemon, bodies) = live.expect("at least one set-up");
    let mut out = Outcome::new(stats::median(&setups));
    confmask_obs::reset();

    let fixed_secs = ctx.seconds.as_secs_f64() * FIXED_SHARE;
    let ladder_secs = ctx.seconds.as_secs_f64() - fixed_secs;
    let kinds = kinds(ctx.seed, 4096);
    let mut calls = Calls::default();
    let mut all: Vec<Job> = Vec::new();

    // Fixed offered rate.
    let start = Instant::now() + Duration::from_millis(50);
    let mut fixed = schedule(&kinds, 0, FIXED_RATE, fixed_secs, start);
    drive(&daemon.addr, &bodies, &mut fixed, gen_threads, &mut calls);
    let done: Vec<f64> = fixed
        .iter()
        .filter_map(|j| j.latency_ms.filter(|_| j.state == "done"))
        .collect();
    let (tail, windows) = fixed_tail(&fixed);
    let n = done.len();
    out.e2e.insert("op_ms_p50", stats::median(&done));
    out.e2e.insert("op_ms_tail", tail);
    out.failed += fixed.iter().filter(|j| j.state != "done").count() as u64;
    // Peak memory at a fixed job count: the daemon's store and span
    // collector grow with every job, and the ladder's job count depends on
    // where the bisection goes.
    out.e2e.insert("peak_rss_mb", crate::peak_rss_mb());
    if ctx.trace {
        let mut mix_counts = std::collections::BTreeMap::new();
        for j in &fixed {
            *mix_counts
                .entry(format!(
                    "{}/{}/{}",
                    nets[j.kind.net].0,
                    j.kind.strategy.name(),
                    j.kind.vendor.name()
                ))
                .or_insert(0usize) += 1;
        }
        out.counts
            .push(format!("fixed jobs={} mix={mix_counts:?}", fixed.len()));
    }

    // Output check: a seeded sample of fetched artifacts is byte-equal to
    // an in-process run of the same spec.
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 0xC0FFEE));
    let mut done_jobs: Vec<&Job> = fixed.iter().filter(|j| j.state == "done").collect();
    done_jobs.shuffle(&mut rng);
    let mut emit_ms = Vec::new();
    for job in done_jobs.iter().take(CHECKED_ARTIFACTS) {
        let id = job.id.as_deref().expect("done jobs have ids");
        if let Err(e) = check_artifacts(&daemon.addr, id, bodies.get(&job.kind), &mut emit_ms) {
            out.failed += 1;
            eprintln!("serve-mix job {id}: {e}");
        }
    }

    // Ladder bisection: `lo` passes (or is below the ladder), `hi` fails
    // (or is above it). Every rung gets a fresh daemon (the simulation
    // cache stays warm in-process): a WAL snapshot re-encodes every job
    // the store holds, so on one daemon a rung's stalls grew with the jobs
    // of the rungs before it, and the bisection path decided the capacity.
    let (mut lo, mut hi) = (-1i64, LADDER.len() as i64);
    let (mut lo_load, mut hi_load) = (None, None);
    let rung_secs = ladder_secs / LADDER_STEPS as f64;
    let mut first = fixed.len();
    let mut rungs = Vec::new();
    let mut daemon = daemon;
    for step in 0..LADDER_STEPS {
        if hi - lo <= 1 {
            break;
        }
        daemon.stop()?;
        daemon = Daemon::start(dir(SETUPS + step))?;
        let mid = (lo + hi) / 2;
        let rate = LADDER[mid as usize];
        let start = Instant::now() + Duration::from_millis(50);
        let mut jobs = schedule(&kinds, first, rate, rung_secs, start);
        drive(&daemon.addr, &bodies, &mut jobs, gen_threads, &mut calls);
        let (load, why) = rung_load(&jobs);
        let pass = load < 1.0;
        rungs.push(format!(
            "{rate}:{} ({why})",
            if pass { "pass" } else { "fail" }
        ));
        // Failed, abandoned or unreachable jobs are failures on any rung;
        // refusals and slow jobs only fail the rung.
        out.failed += jobs
            .iter()
            .filter(|j| j.state != "done" && j.state != "rejected")
            .count() as u64;
        if pass {
            lo = mid;
            lo_load = Some((rate, load));
        } else {
            hi = mid;
            hi_load = Some((rate, load));
        }
        first += jobs.len();
        all.extend(jobs);
    }
    daemon.stop()?;
    all.extend(fixed.iter().cloned());
    let capacity = capacity(lo_load, hi_load);
    out.e2e.insert("throughput_per_s", capacity);
    out.attempted = all.len() as u64;
    out.note(format!(
        "serve-mix: fixed {FIXED_RATE} jobs/s: {} jobs, p50 {:.1} ms ({n} samples), tail {tail:.1} ms (median p{TAIL_PCT} of {windows} windows of {WINDOW} jobs); ladder {} -> capacity {capacity:.1} jobs/s (limit {LIMIT_MS} ms); {WORKERS} workers, {THREADS} executor thread(s), {gen_threads} generator threads",
        fixed.len(),
        stats::median(&done),
        rungs.join(" ")
    ));

    if ctx.trace {
        layer_metrics(&nets, &all, &calls, &emit_ms, ctx.seed, &mut out)?;
    }
    Ok(out)
}

/// Fetches a job's artifacts and compares them with `JobSpec::run()` of
/// the submission the daemon decoded; also times emitting the input bundle
/// in the job's dialect (a codec probe for the traced run).
fn check_artifacts(addr: &str, id: &str, body: &str, emit_ms: &mut Vec<f64>) -> Result<(), String> {
    let resp = client::get(addr, &format!("/v1/jobs/{id}/artifacts")).map_err(|e| e.to_string())?;
    let fetched = wire::decode_artifacts(&resp.body)?;
    let sub = wire::decode_submit(body.as_bytes())?;
    let t = Instant::now();
    std::hint::black_box(Bundle::emit(&sub.configs, sub.vendor));
    emit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let spec = JobSpec {
        configs: sub.configs,
        params: sub.params,
        vendor: sub.vendor,
        strategy: sub.strategy,
    };
    let mut local = spec.run().map_err(|e| e.to_string())?.artifacts;
    let mut fetched = fetched;
    local.sort_by(|a, b| a.path.cmp(&b.path));
    fetched.sort_by(|a, b| a.path.cmp(&b.path));
    if local != fetched {
        return Err("served artifacts differ from an in-process run".into());
    }
    Ok(())
}

/// Per-layer numbers of the traced run, from the generator's own timings
/// and the daemon's spans and counters.
fn layer_metrics(
    nets: &[(&str, NetworkConfigs)],
    jobs: &[Job],
    calls: &Calls,
    emit_ms: &[f64],
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let snap = ObsSnapshot::take();
    let n = jobs.iter().filter(|j| j.id.is_some()).count().max(1) as f64;
    let m = &mut out.layers;
    m.insert("serve.submit_ms", stats::mean(&calls.submit_ms));
    m.insert("serve.status_ms", stats::mean(&calls.status_ms));
    let queue = snap.span_mean_ms("serve.queue_wait");
    let run = snap.span_mean_ms("serve.run");
    let persist = snap.span_mean_ms("serve.persist");
    m.insert("serve.queue_wait_ms", queue);
    m.insert("serve.run_ms", run);
    m.insert("serve.persist_ms", persist);
    m.insert(
        "serve.polls_per_job",
        jobs.iter().map(|j| f64::from(j.polls)).sum::<f64>() / n,
    );
    m.insert(
        "serve.rejected",
        jobs.iter().filter(|j| j.state == "rejected").count() as f64,
    );
    let late: Vec<f64> = jobs.iter().map(|j| j.late_ms).collect();
    m.insert("loadgen.late_ms", stats::nearest_rank(&late, 0.99));
    let parse_ms: f64 = snap
        .spans("config.parse")
        .map(|s| s.duration_us as f64 / 1e3)
        .sum();
    m.insert("config.parse_ms", parse_ms / n);
    m.insert("config.emit_ms", stats::mean(emit_ms));
    m.insert(
        "config.lines",
        snap.counter("config.parse.lines") as f64 / n,
    );
    for (metric, counter) in [
        ("sim.simulations", "sim.simulations"),
        ("sim.ospf_spf_runs", "sim.ospf.spf_runs"),
        ("sim.bgp_rounds", "sim.bgp.rounds"),
        ("sim.rip_rounds", "sim.rip.rounds"),
        ("exec.tasks", "exec.tasks"),
    ] {
        m.insert(metric, snap.counter(counter) as f64 / n);
    }
    for (metric, span) in [
        ("sim.control_plane_ms", "sim.control_plane"),
        ("sim.dataplane_ms", "sim.dataplane"),
        ("netcloak.expand_ms", "netcloak.expand"),
        ("core.preprocess_ms", "pipeline.stage.preprocess"),
        ("topology.anon_ms", "pipeline.stage.topology"),
        ("core.route_equiv_ms", "pipeline.stage.route_equiv"),
        ("core.route_anon_ms", "pipeline.stage.route_anon"),
        ("core.verify_ms", "pipeline.stage.verify"),
    ] {
        m.insert(metric, snap.span_mean_ms(span));
    }
    let extractions = snap.spans("sim.dataplane").count().max(1) as f64;
    m.insert(
        "sim.dataplane_pairs",
        snap.counter("sim.dataplane.pairs") as f64 / extractions,
    );
    m.insert(
        "sim.paths_per_pair",
        snap.hist_mean("sim.dataplane.paths_per_pair"),
    );
    let hits = snap.counter("sim.cache.hits") as f64;
    let misses = snap.counter("sim.cache.misses") as f64;
    m.insert("sim_delta.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let done: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.latency_ms.filter(|_| j.state == "done"))
        .collect();
    let in_daemon = queue + run + persist;
    m.insert(
        "core.unattributed_pct",
        100.0 * (1.0 - in_daemon / stats::mean(&done).max(1e-9)).max(0.0),
    );
    let spans_per_job = snap.spans_within(0, u64::MAX).len() as f64 / n;
    m.insert(
        "obs.trace_overhead_pct",
        100.0 * crate::trace::span_cost_us() * spans_per_job / 1e3 / stats::median(&done).max(1e-9),
    );

    // Layer probes: a cached `converged` lookup per network, and NetHide's
    // obfuscation on the networks it runs on.
    let engine = confmask_sim_delta::DeltaEngine::global();
    let mut conv = Vec::new();
    let mut nethide = Vec::new();
    for (_, net) in nets {
        let t = Instant::now();
        engine.converged(net).map_err(|e| e.to_string())?;
        conv.push(t.elapsed().as_secs_f64() * 1e3);
        let topo = confmask_topology::extract::extract_topology(net);
        let t = Instant::now();
        confmask_nethide::obfuscate(&topo, 6, seed).map_err(|e| format!("{e:?}"))?;
        nethide.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("sim_delta.converged_ms", stats::mean(&conv));
    m.insert("nethide.obfuscate_ms", stats::mean(&nethide));
    out.note(format!(
        "serve-mix per job: submit {:.2} ms, queue wait {queue:.2} ms, run {run:.2} ms, persist {persist:.2} ms, status {:.2} ms/poll; {} spans dropped",
        stats::mean(&calls.submit_ms),
        stats::mean(&calls.status_ms),
        snap.dropped_spans()
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_interpolates_inside_the_bracket() {
        assert_eq!(capacity(Some((30.0, 0.5)), Some((40.0, 1.5))), 35.0);
        assert_eq!(
            capacity(Some((30.0, 0.9)), Some((40.0, f64::INFINITY))),
            30.0
        );
        assert_eq!(capacity(Some((140.0, 0.5)), None), 140.0);
        assert_eq!(capacity(None, Some((20.0, 2.0))), LADDER[0] / 2.0);
    }

    #[test]
    fn fixed_tail_is_the_median_window_tail() {
        let kind = kinds(1, 1)[0];
        let now = Instant::now();
        let job = |ms: f64| Job {
            latency_ms: Some(ms),
            state: "done".into(),
            ..Job::new(kind, now)
        };
        // Five windows whose p80 is 480 (slowed ten-fold), 49, 50, 51 and
        // 52 ms: the slow window does not move the median.
        let mut jobs = Vec::new();
        for w in 0..5 {
            let slow = if w == 0 { 10.0 } else { 1.0 };
            jobs.extend((1..=WINDOW).map(|i| job((i + w) as f64 * slow)));
        }
        assert_eq!(fixed_tail(&jobs), (51.0, 5));
        assert_eq!(fixed_tail(&jobs[..10]), (80.0, 1));
    }
}
