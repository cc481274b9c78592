//! End-to-end tests of the daemon over real sockets: submit → poll →
//! artifacts → metrics → graceful shutdown, including concurrent
//! submissions and queue backpressure.

use confmask::Params;
use confmask_serve::client;
use confmask_serve::wire;
use confmask_serve::{Server, ServeOptions};
use std::time::{Duration, Instant};

/// Binds a server on an ephemeral port and runs it on a background
/// thread. Returns the address and the join handle (which yields the
/// final job counts after shutdown).
fn start(workers: usize, queue_cap: usize) -> (String, std::thread::JoinHandle<confmask_serve::store::JobCounts>) {
    let server = Server::bind(&ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap,
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

fn submit_bundle(addr: &str, body: &str) -> client::ClientResponse {
    client::post(addr, "/v1/jobs", body).expect("submit")
}

/// Polls a job until it reaches a terminal state.
fn wait_terminal(addr: &str, id: &str) -> wire::JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::get(addr, &format!("/v1/jobs/{id}")).expect("poll");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let status = wire::decode_status(&resp.body).expect("status json");
        if status.is_terminal() {
            return status;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Polls a job until it reads `running`; reaching a terminal state first
/// is a failure.
fn wait_running(addr: &str, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client::get(addr, &format!("/v1/jobs/{id}")).expect("poll");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let status = wire::decode_status(&resp.body).expect("status json");
        if status.state == "running" {
            return;
        }
        assert!(
            !status.is_terminal(),
            "job {id} finished before it was seen running: {status:?}"
        );
        assert!(Instant::now() < deadline, "job {id} never started");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn example_body(seed: u64) -> String {
    let net = confmask_netgen::smallnets::example_network();
    wire::encode_submit(&net, &Params::new(3, 2).with_seed(seed), confmask::Vendor::Ios, confmask::Strategy::ConfMask)
}

#[test]
fn submit_poll_artifacts_metrics_shutdown() {
    let (addr, handle) = start(2, 16);

    // Health before any traffic.
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\": \"ok\""), "{}", health.text());

    // Submit and follow the state machine to `done`.
    let resp = submit_bundle(&addr, &example_body(1));
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = wire::decode_job_created(&resp.body).unwrap();
    let status = wait_terminal(&addr, &id);
    assert_eq!(status.state, "done", "{status:?}");
    assert_eq!(status.attempts, 1);

    // Artifacts parse back into valid configs.
    let resp = client::get(&addr, &format!("/v1/jobs/{id}/artifacts")).unwrap();
    assert_eq!(resp.status, 200);
    let files = wire::decode_artifacts(&resp.body).unwrap();
    assert!(!files.is_empty());
    for f in &files {
        if f.path.starts_with("routers/") {
            confmask_config::parse_router(&f.text).expect("artifact parses");
        } else {
            assert!(f.path.starts_with("hosts/"), "{}", f.path);
            confmask_config::parse_host(&f.text).expect("artifact parses");
        }
    }

    // Metrics: Prometheus text exposes the serve.* registry, and the JSON
    // report feeds `confmask obs-report -`.
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("confmask_serve_jobs_accepted"), "{text}");
    assert!(text.contains("confmask_serve_jobs_done"), "{text}");
    assert!(text.contains("confmask_serve_jobs_rejected"), "{text}");
    assert!(text.contains("confmask_serve_job_wall_ms_count"), "{text}");
    assert!(text.contains("confmask_serve_queue_wait_ms_count"), "{text}");
    assert!(text.contains("confmask_serve_http_submit_ms_count"), "{text}");
    assert!(text.contains("confmask_serve_http_in_flight"), "{text}");
    assert!(text.contains("confmask_obs_dropped_spans"), "{text}");
    let json = client::get(&addr, "/metrics-json").unwrap();
    assert_eq!(json.status, 200);
    let report = confmask_obs::Report::from_json(&json.text()).expect("metrics-json parses");
    assert!(report.counter("serve.jobs_done").unwrap_or(0) >= 1);

    // Unknown job / not-ready artifacts / wrong method.
    assert_eq!(client::get(&addr, "/v1/jobs/j999999").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::post(&addr, "/metrics", "").unwrap().status, 405);
    assert_eq!(submit_bundle(&addr, "not json").status, 400);

    // Graceful shutdown: the run() thread returns with the final counts.
    let resp = client::post(&addr, "/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 202);
    let counts = handle.join().unwrap();
    assert!(counts.done >= 1);
    assert_eq!(counts.queued + counts.running, 0, "{counts:?}");

    // Post-shutdown submissions are refused (connection fails or 503).
    if let Ok(resp) = client::post(&addr, "/v1/jobs", &example_body(2)) {
        assert_eq!(resp.status, 503);
    }
}

#[test]
fn junos_set_submission_completes_end_to_end() {
    let (addr, handle) = start(1, 8);
    let net = confmask_netgen::smallnets::example_network();
    let params = Params::new(3, 2).with_seed(7);

    // Explicit junos-set submission: the wire body names the dialect.
    let body = wire::encode_submit(&net, &params, confmask::Vendor::JunosSet, confmask::Strategy::ConfMask);
    assert!(body.contains("\"vendor\": \"junos-set\""), "{body}");
    let resp = submit_bundle(&addr, &body);
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = wire::decode_job_created(&resp.body).unwrap();
    let status = wait_terminal(&addr, &id);
    assert_eq!(status.state, "done", "{status:?}");
    // The dialect is echoed in status and artifacts…
    assert_eq!(status.vendor, Some(confmask::Vendor::JunosSet), "{status:?}");
    let resp = client::get(&addr, &format!("/v1/jobs/{id}/artifacts")).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"vendor\": \"junos-set\""), "{}", resp.text());
    // …and the artifact files themselves are junos-set text.
    let files = wire::decode_artifacts(&resp.body).unwrap();
    assert!(!files.is_empty());
    for f in &files {
        if f.path.starts_with("routers/") {
            let rc = confmask_config::parse_router_as(confmask::Vendor::JunosSet, &f.text)
                .expect("artifact parses as junos-set");
            assert_eq!(rc.emit_as(confmask::Vendor::JunosSet), f.text, "{}", f.path);
        }
    }

    // A body with no vendor field sniffs the dialect from the config
    // texts themselves: the job runs, and status echoes the detected
    // dialect as if it had been named explicitly.
    let auto_body: String = body
        .lines()
        .filter(|l| !l.contains("\"vendor\""))
        .collect::<Vec<_>>()
        .join("\n");
    let resp = submit_bundle(&addr, &auto_body);
    assert_eq!(resp.status, 202, "{}", resp.text());
    let auto_id = wire::decode_job_created(&resp.body).unwrap();
    let status = wait_terminal(&addr, &auto_id);
    assert_eq!(status.state, "done", "{status:?}");
    assert_eq!(
        status.vendor,
        Some(confmask::Vendor::JunosSet),
        "auto submission must sniff junos-set: {status:?}"
    );

    client::post(&addr, "/v1/shutdown", "").unwrap();
    let counts = handle.join().unwrap();
    assert_eq!(counts.done, 2, "{counts:?}");
}

#[test]
fn eight_concurrent_submissions_all_finish() {
    let (addr, handle) = start(4, 16);
    let ids: Vec<String> = {
        let submitters: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let resp = submit_bundle(&addr, &example_body(100 + i));
                    assert_eq!(resp.status, 202, "{}", resp.text());
                    wire::decode_job_created(&resp.body).unwrap()
                })
            })
            .collect();
        submitters.into_iter().map(|t| t.join().unwrap()).collect()
    };
    assert_eq!(ids.len(), 8);
    for id in &ids {
        let status = wait_terminal(&addr, id);
        assert!(
            status.state == "done" || status.state == "degraded",
            "job {id}: {status:?}"
        );
    }
    client::post(&addr, "/v1/shutdown", "").unwrap();
    let counts = handle.join().unwrap();
    assert_eq!(counts.done + counts.degraded, 8, "no job may be lost: {counts:?}");
}

#[test]
fn full_queue_rejects_with_429_and_retry_after() {
    // One worker and a cap-2 queue. A slow job (ConfMask on net H,
    // FatTree(8)) holds the worker first; only once it reads `running` do
    // 12 simultaneous submissions arrive, so the worker cannot drain the
    // queue mid-burst and the burst must overflow it.
    let (addr, handle) = start(1, 2);
    let net_h = confmask_netgen::synthesize(&confmask_netgen::fattree::fattree_spec(8));
    let body = wire::encode_submit(
        &net_h,
        &Params::new(3, 2),
        confmask::Vendor::Ios,
        confmask::Strategy::ConfMask,
    );
    let resp = submit_bundle(&addr, &body);
    assert_eq!(resp.status, 202, "{}", resp.text());
    let slow = wire::decode_job_created(&resp.body).unwrap();
    wait_running(&addr, &slow);
    let responses: Vec<client::ClientResponse> = (0..12)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || submit_bundle(&addr, &example_body(200 + i)))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    let mut accepted = vec![slow];
    let mut rejected = 0;
    for resp in responses {
        match resp.status {
            202 => accepted.push(wire::decode_job_created(&resp.body).unwrap()),
            429 => {
                rejected += 1;
                assert!(resp.text().contains("queue full"), "{}", resp.text());
            }
            other => panic!("unexpected status {other}: {}", resp.text()),
        }
    }
    assert!(rejected > 0, "12 simultaneous submissions into cap 2 must overflow");
    // Every accepted job still completes (drain-on-shutdown, none lost).
    let resp = client::post(&addr, "/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 202);
    let counts = handle.join().unwrap();
    assert_eq!(
        counts.done + counts.degraded,
        accepted.len(),
        "{counts:?}"
    );
    assert_eq!(counts.queued + counts.running, 0);
}

#[test]
fn failed_jobs_surface_the_pipeline_error() {
    let (addr, handle) = start(1, 4);
    // Griffin's bad gadget has no BGP equilibrium: the job must fail, and
    // the status must carry the error.
    let net = confmask_netgen::smallnets::bad_gadget();
    let body = wire::encode_submit(&net, &Params::new(3, 2), confmask::Vendor::Ios, confmask::Strategy::ConfMask);
    let resp = submit_bundle(&addr, &body);
    assert_eq!(resp.status, 202);
    let id = wire::decode_job_created(&resp.body).unwrap();
    let status = wait_terminal(&addr, &id);
    assert_eq!(status.state, "failed");
    assert!(status.error.is_some(), "{status:?}");
    // Artifacts of a failed job are a 409 conflict.
    let resp = client::get(&addr, &format!("/v1/jobs/{id}/artifacts")).unwrap();
    assert_eq!(resp.status, 409);
    client::post(&addr, "/v1/shutdown", "").unwrap();
    let counts = handle.join().unwrap();
    assert_eq!(counts.failed, 1);
}
