//! Chaos suite: the daemon under hostile and degraded conditions.
//!
//! Each test stages one failure mode — a slowloris client, an
//! oversized body, a client that vanishes mid-event-stream, a
//! connection flood, an expired sweep deadline, injected accept
//! faults, a restart under load — and asserts the daemon degrades the
//! way DESIGN.md §3e promises: the bad client is shed or cut off, the
//! accept loop keeps serving, sweep state is released (never leaked),
//! and in-flight work still reaches the cache and journal.
//!
//! Failpoint sites are process-global, so every test holds [`lock`] —
//! the suite serialises instead of interleaving injected faults.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use scu_algos::experiment::ExperimentConfig;
use scu_harness::failpoint;
use scu_server::{
    Client, Scheduler, SchedulerConfig, Server, ServerConfig, ServerHandle,
    DEFAULT_MAX_PENDING_CELLS,
};
use serde_json::Value;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scu-server-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch dir");
    dir
}

/// Single-worker scheduler over the tiny matrix: cells resolve one at
/// a time, which the timing-sensitive tests rely on.
fn config(dir: &Path) -> SchedulerConfig {
    SchedulerConfig {
        experiment: ExperimentConfig::tiny(),
        jobs: 1,
        retries: 0,
        cache_dir: Some(dir.join("cache")),
        max_pending_cells: DEFAULT_MAX_PENDING_CELLS,
        max_retained_sweeps: scu_server::DEFAULT_MAX_RETAINED_SWEEPS,
    }
}

/// Aggressive socket knobs so the suite's failure windows are short.
fn tight() -> ServerConfig {
    ServerConfig {
        workers: 4,
        max_queued_conns: 16,
        read_timeout: Duration::from_millis(200),
        write_timeout: Duration::from_millis(500),
        request_deadline: Duration::from_millis(400),
    }
}

/// Binds a server over a fresh scheduler and runs it on a thread.
fn serve(
    dir: &Path,
    cfg: ServerConfig,
) -> (
    Arc<Scheduler>,
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let scheduler = Scheduler::new(config(dir));
    let server = Server::bind_with("127.0.0.1:0", Arc::clone(&scheduler), cfg).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (scheduler, addr, handle, thread)
}

/// Sends raw bytes on a fresh connection and reads the whole response.
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(bytes).expect("write request");
    stream.flush().unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn field_u64(doc: &Value, name: &str) -> u64 {
    doc.get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("document carries no u64 field '{name}': {doc:?}"))
}

fn field_str<'a>(doc: &'a Value, name: &str) -> &'a str {
    doc.get(name)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("document carries no string field '{name}': {doc:?}"))
}

/// Polls `probe` until it returns true or the timeout elapses.
fn eventually(what: &str, timeout: Duration, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while !probe() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn slowloris_is_cut_off_and_the_daemon_keeps_serving() {
    let _serial = lock();
    let dir = scratch("slowloris");
    let (_scheduler, addr, handle, srv) = serve(&dir, tight());

    // A client that trickles one header byte per 50 ms: each read(2)
    // succeeds well inside the socket timeout, so only the wall-clock
    // request deadline (400 ms) can cut it off.
    let mut attacker = TcpStream::connect(addr).expect("connect");
    attacker
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut feeder = attacker.try_clone().expect("clone");
    let trickler = std::thread::spawn(move || {
        for byte in b"GET /healthz HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaa" {
            if feeder.write_all(&[*byte]).is_err() {
                return; // cut off — exactly what the test wants
            }
            let _ = feeder.flush();
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let mut response = String::new();
    let _ = attacker.read_to_string(&mut response);
    trickler.join().unwrap();
    assert!(
        response.starts_with("HTTP/1.1 408 "),
        "slowloris gets a 408, got: {response:?}"
    );

    // The worker the attacker held is free again; the daemon answers.
    let health = Client::new(&format!("http://{addr}"))
        .health()
        .expect("healthz after slowloris");
    assert_eq!(field_str(&health, "status"), "ok");
    handle.shutdown();
    srv.join().unwrap();
}

#[test]
fn oversized_heads_and_bodies_are_rejected_not_buffered() {
    let _serial = lock();
    let dir = scratch("oversize");
    let (_scheduler, addr, handle, srv) = serve(&dir, tight());

    // A body declared past MAX_BODY is refused from the declaration
    // alone — the server never tries to buffer it.
    let response = raw_request(
        addr,
        format!(
            "POST /sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            scu_server::http::MAX_BODY + 1
        )
        .as_bytes(),
    );
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "oversized body gets a 413, got: {response:?}"
    );

    // Same for a header block past MAX_HEAD.
    let mut huge_head = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while huge_head.len() <= scu_server::http::MAX_HEAD + 8 {
        huge_head.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    huge_head.extend_from_slice(b"\r\n");
    let response = raw_request(addr, &huge_head);
    assert!(
        response.starts_with("HTTP/1.1 413 "),
        "oversized head gets a 413, got: {response:?}"
    );

    let health = Client::new(&format!("http://{addr}")).health().unwrap();
    assert_eq!(field_str(&health, "status"), "ok");
    handle.shutdown();
    srv.join().unwrap();
}

/// `{"deadline_secs":1e20}` once panicked `Duration::from_secs_f64`
/// on the worker thread; with a fixed pool and no respawn, one such
/// POST per worker made the daemon unresponsive. The parser must keep
/// absurd deadlines on the 400 path.
#[test]
fn absurd_deadlines_get_400_and_never_kill_a_worker() {
    let _serial = lock();
    let dir = scratch("absurd-deadline");
    let (_scheduler, addr, handle, srv) = serve(&dir, tight());

    // More hostile POSTs than the pool has workers (4): if any one of
    // them unwound its worker, the healthz probe below would hang.
    for bad in ["1e20", "1e308", "-1", "18446744073709551615"] {
        for _ in 0..2 {
            let body = format!("{{\"filter\":\"BFS/cond\",\"deadline_secs\":{bad}}}");
            let response = raw_request(
                addr,
                format!(
                    "POST /sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            assert!(
                response.starts_with("HTTP/1.1 400 "),
                "deadline_secs={bad} gets a 400, got: {response:?}"
            );
        }
    }

    let health = Client::new(&format!("http://{addr}")).health().unwrap();
    assert_eq!(field_str(&health, "status"), "ok");
    handle.shutdown();
    srv.join().unwrap();
}

#[test]
fn mid_stream_disconnect_releases_the_sweep() {
    let _serial = lock();
    let dir = scratch("disconnect");
    let (scheduler, addr, handle, srv) = serve(&dir, tight());
    let client = Client::new(&format!("http://{addr}"));

    // Five slow cells, one worker: events arrive one at a time.
    let fp = failpoint::scoped("cell-run=delay(300)");
    let id = client
        .submit(&Value::Object(vec![(
            "filter".to_string(),
            Value::Str("cond/TX1/gpu".to_string()),
        )]))
        .expect("submit");

    // Attach an event stream, then vanish without reading a byte.
    let mut ghost = TcpStream::connect(addr).expect("connect");
    write!(ghost, "GET /sweeps/{id}/events HTTP/1.1\r\n\r\n").unwrap();
    ghost.flush().unwrap();
    drop(ghost);

    // The next event write hits the dead socket; the server releases
    // the sweep instead of computing for a ghost.
    eventually(
        "the disconnect to be detected",
        Duration::from_secs(10),
        || field_u64(&client.metrics().unwrap(), "disconnected_streams") == 1,
    );
    let sweep = scheduler.sweep(id).expect("sweep state");
    sweep.wait_done();
    drop(fp);
    let status = sweep.status();
    assert_eq!(
        status.get("cancelled").and_then(Value::as_bool),
        Some(true),
        "orphaned sweep is released: {status:?}"
    );

    // No leaked state: the daemon settles back to `ok` and a fresh
    // sweep on healthy cells completes.
    eventually("the daemon to settle", Duration::from_secs(10), || {
        field_str(&client.health().unwrap(), "load") == "ok"
    });
    let id = client
        .submit(&Value::Object(vec![
            ("filter".to_string(), Value::Str("BFS/kron".to_string())),
            (
                "modes".to_string(),
                Value::Array(vec![Value::Str("gpu".to_string())]),
            ),
        ]))
        .expect("submit after disconnect");
    let status = client.wait(id).expect("wait");
    assert_eq!(field_u64(&status, "failed"), 0);
    assert_eq!(field_u64(&status, "finished"), field_u64(&status, "total"));
    handle.shutdown();
    srv.join().unwrap();
}

#[test]
fn connection_flood_sheds_while_the_inflight_sweep_completes() {
    let _serial = lock();
    let dir = scratch("flood");
    // One worker, one queued connection: the flood has nowhere to go.
    let cfg = ServerConfig {
        workers: 1,
        max_queued_conns: 1,
        ..tight()
    };
    let (_scheduler, addr, handle, srv) = serve(&dir, cfg);
    let client = Client::new(&format!("http://{addr}"));

    let fp = failpoint::scoped("cell-run=delay(300)");
    let id = client
        .submit(&Value::Object(vec![
            ("filter".to_string(), Value::Str("BFS/cond".to_string())),
            (
                "modes".to_string(),
                Value::Array(vec![Value::Str("gpu".to_string())]),
            ),
        ]))
        .expect("submit");
    // The streaming client occupies the only worker for ~600 ms.
    let streamer = {
        let client = client.clone();
        std::thread::spawn(move || {
            let mut labels = Vec::new();
            client
                .stream_events(id, |e| {
                    labels.extend(e.get("type").and_then(Value::as_str).map(String::from));
                })
                .expect("event stream");
            labels
        })
    };
    // Wait until the stream actually holds the worker.
    std::thread::sleep(Duration::from_millis(100));

    // Flood: eight connections against a queue of one, opened before
    // any response is read so they all land while the worker is held.
    // The overflow is shed instantly with 503 + Retry-After; nothing
    // hangs the accept loop.
    let flood: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            stream.flush().unwrap();
            stream
        })
        .collect();
    let responses: Vec<String> = flood
        .into_iter()
        .map(|mut stream| {
            let mut response = String::new();
            let _ = stream.read_to_string(&mut response);
            response
        })
        .collect();
    let shed = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 503 "))
        .count();
    assert!(shed >= 1, "the flood is shed, got: {responses:?}");
    assert!(
        responses
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 503 "))
            .all(|r| r.contains("Retry-After: 1\r\n")),
        "shed responses carry Retry-After"
    );

    // The sweep the flood tried to drown finished untouched.
    let labels = streamer.join().expect("streamer");
    drop(fp);
    assert_eq!(labels.last().map(String::as_str), Some("done"));
    let status = client.sweep(id).expect("status");
    assert_eq!(field_u64(&status, "failed"), 0);
    assert_eq!(field_u64(&status, "finished"), field_u64(&status, "total"));
    let metrics = client.metrics().expect("metrics");
    assert!(field_u64(&metrics, "shed_connections") >= shed as u64);
    handle.shutdown();
    srv.join().unwrap();
}

#[test]
fn deadline_expiry_cancels_the_sweep_and_the_daemon_survives() {
    let _serial = lock();
    let dir = scratch("deadline");
    let (_scheduler, addr, handle, srv) = serve(&dir, tight());
    let client = Client::new(&format!("http://{addr}"));

    // Five 400 ms cells against a 250 ms sweep budget: at most one
    // resolves before the deadline watcher fires.
    let fp = failpoint::scoped("cell-run=delay(400)");
    let id = client
        .submit(&Value::Object(vec![
            ("filter".to_string(), Value::Str("cond/TX1/gpu".to_string())),
            ("deadline_secs".to_string(), Value::F64(0.25)),
        ]))
        .expect("submit");
    let mut events = Vec::new();
    client
        .stream_events(id, |e| events.push(e.clone()))
        .expect("event stream");
    drop(fp);

    let types: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("type").and_then(Value::as_str))
        .collect();
    assert_eq!(types.last(), Some(&"done"), "{types:?}");
    let marker = events
        .iter()
        .find(|e| e.get("type").and_then(Value::as_str) == Some("cancelled"))
        .expect("the cancellation marker event");
    assert_eq!(field_str(marker, "reason"), "deadline-expired");

    let status = client.sweep(id).expect("status");
    assert_eq!(status.get("cancelled").and_then(Value::as_bool), Some(true));
    let cancelled_cells = status
        .get("cells")
        .and_then(Value::as_array)
        .expect("cells")
        .iter()
        .filter(|c| c.get("state").and_then(Value::as_str) == Some("cancelled"))
        .count();
    assert!(cancelled_cells >= 1, "{status:?}");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(field_u64(&metrics, "deadline_expired"), 1);

    // The daemon is still alive and a deadline-free sweep completes.
    assert_eq!(field_str(&client.health().unwrap(), "status"), "ok");
    let id = client
        .submit(&Value::Object(vec![
            ("filter".to_string(), Value::Str("BFS/kron".to_string())),
            (
                "modes".to_string(),
                Value::Array(vec![Value::Str("gpu".to_string())]),
            ),
        ]))
        .expect("submit after expiry");
    let status = client.wait(id).expect("wait");
    assert_eq!(field_u64(&status, "failed"), 0);
    handle.shutdown();
    srv.join().unwrap();
}

#[test]
fn injected_accept_faults_are_absorbed_by_client_retries() {
    let _serial = lock();
    let dir = scratch("accept-fault");
    let (_scheduler, addr, handle, srv) = serve(&dir, tight());

    // The first accepted connection is dropped before a byte is read;
    // the accept loop must keep serving and the client's retry policy
    // must absorb the loss.
    let fp = failpoint::scoped("server-accept=disconnect@1");
    let client = Client::new(&format!("http://{addr}"))
        .with_retries(3)
        .with_backoff(Duration::from_millis(10), Duration::from_millis(100));
    let health = client.health().expect("health survives the dropped conn");
    assert_eq!(field_str(&health, "status"), "ok");
    drop(fp);

    // A zero-retry client sees the same fault as a hard error — proof
    // the retry (not luck) absorbed it above.
    let fp = failpoint::scoped("server-accept=disconnect@1");
    let single_shot = Client::new(&format!("http://{addr}")).with_retries(0);
    assert!(single_shot.health().is_err(), "single shot hits the fault");
    drop(fp);
    assert!(single_shot.health().is_ok(), "the daemon itself is fine");
    handle.shutdown();
    srv.join().unwrap();
}

#[test]
fn restart_under_load_resumes_warm_over_http() {
    let _serial = lock();
    let dir = scratch("restart");

    let fp = failpoint::scoped("cell-run=delay(300)");
    let finished_first = {
        let (_scheduler, addr, handle, srv) = serve(&dir, tight());
        let client = Client::new(&format!("http://{addr}"));
        let id = client
            .submit(&Value::Object(vec![(
                "filter".to_string(),
                Value::Str("cond/TX1/gpu".to_string()),
            )]))
            .expect("submit");
        // Shut down mid-batch, while a streaming client is attached.
        let streamer = {
            let client = client.clone();
            std::thread::spawn(move || {
                // Count only cells that actually finished — the drain
                // also emits `cancelled` cell events, which never reach
                // the cache.
                let mut count = 0u64;
                let _ = client.stream_events(id, |e| {
                    if matches!(
                        e.get("label").and_then(Value::as_str),
                        Some("done") | Some("cached")
                    ) {
                        count += 1;
                    }
                });
                count
            })
        };
        std::thread::sleep(Duration::from_millis(450));
        handle.shutdown();
        srv.join().expect("server run() returns after shutdown");
        // The stream closed instead of wedging the client forever.
        let events_seen = streamer.join().expect("streamer");
        assert!(events_seen >= 1, "at least one cell resolved pre-drain");
        events_seen
    };

    // A fresh daemon over the same directories: drained cells are
    // cache hits, never recomputed.
    let (scheduler, addr, handle, srv) = serve(&dir, tight());
    let client = Client::new(&format!("http://{addr}"));
    let id = client
        .submit(&Value::Object(vec![(
            "filter".to_string(),
            Value::Str("cond/TX1/gpu".to_string()),
        )]))
        .expect("resubmit");
    let status = client.wait(id).expect("wait");
    drop(fp);
    assert_eq!(field_u64(&status, "failed"), 0);
    assert_eq!(field_u64(&status, "finished"), field_u64(&status, "total"));
    let counters = scheduler.counters();
    assert!(
        counters.cache_hits >= finished_first,
        "cells drained before the restart come from disk: {counters:?}"
    );
    handle.shutdown();
    srv.join().unwrap();
}
