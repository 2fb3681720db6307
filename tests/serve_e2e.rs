//! End-to-end tests for the `cfx-serve` daemon over real loopback TCP:
//! routes, typed errors, backpressure shedding, deadline timeouts,
//! model hot-reload with corrupt-file quarantine, and the central
//! robustness claims — a graceful drain under concurrent load completes
//! every accepted request with responses **byte-identical** to an
//! unloaded run, the worker-pool size is invisible in response bytes,
//! and the response cache short-circuits repeats without ever serving
//! a stale (pre-hot-swap) body.

use cfx::core::{
    ConstraintMode, ExplainConfig, FeasibleCfConfig, FeasibleCfModel,
    GenRecoveryConfig,
};
use cfx::data::{DatasetId, EncodedDataset, Split};
use cfx::models::{BlackBox, BlackBoxConfig};
use cfx::serve::{self, batcher, BoundedQueue, Servable, ServeConfig};
use cfx::tensor::checkpoint::{Checkpoint, EXTENSION};
use cfx::tensor::CfxError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

struct Fixture {
    data: EncodedDataset,
    split: Split,
    model: FeasibleCfModel,
}

fn fixture() -> &'static Fixture {
    static CACHE: OnceLock<Fixture> = OnceLock::new();
    CACHE.get_or_init(|| {
        let raw = DatasetId::Adult.generate_clean(2_000, 11);
        let data = EncodedDataset::from_raw(&raw);
        let split = Split::paper(data.len(), 11);
        let (x_train, y_train) = data.subset(&split.train);
        let bb_cfg = BlackBoxConfig { epochs: 8, ..Default::default() };
        let mut bb = BlackBox::new(data.width(), &bb_cfg);
        bb.train(&x_train, &y_train, &bb_cfg);
        let cfg =
            FeasibleCfConfig::paper(DatasetId::Adult, ConstraintMode::Unary)
                .with_epochs(4)
                .with_batch_size(256);
        let constraints = FeasibleCfModel::paper_constraints(
            DatasetId::Adult,
            &data,
            ConstraintMode::Unary,
            cfg.c1,
            cfg.c2,
        )
        .unwrap();
        let mut model = FeasibleCfModel::new(&data, bb, constraints, cfg);
        model.fit(&x_train);
        Fixture { data, split, model }
    })
}

fn servable(f: &Fixture) -> Servable {
    Servable {
        model: f.model.clone(),
        data: f.data.clone(),
        explain: ExplainConfig::default(),
        recovery: GenRecoveryConfig::default(),
        version: 0,
        source: "boot".into(),
    }
}

fn start(cfg: ServeConfig) -> serve::ServerHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    serve::spawn(cfg, servable(fixture()), shutdown).expect("server spawns")
}

/// Minimal HTTP client: one request, one full parsed response.
fn roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(raw).expect("write request");
    read_response(&mut s).expect("read response")
}

fn read_response(s: &mut TcpStream) -> Result<(u16, String), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end])
                .map_err(|_| "non-utf8 head".to_string())?;
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .ok_or("bad status line")?;
            let len: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .ok_or("missing content-length")?;
            let start = head_end + 4;
            while buf.len() < start + len {
                let n = s.read(&mut chunk).map_err(|e| e.to_string())?;
                if n == 0 {
                    return Err("EOF mid-body".into());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8(buf[start..start + len].to_vec())
                .map_err(|_| "non-utf8 body".to_string())?;
            return Ok((status, body));
        }
        let n = s.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("EOF before head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn post_explain(rows: &[Vec<f32>], deadline_ms: u64) -> Vec<u8> {
    let mut body = String::from("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            cfx_obs::json::write_f64(&mut body, *v as f64);
        }
        body.push(']');
    }
    body.push_str(&format!("],\"deadline_ms\":{deadline_ms}}}"));
    format!(
        "POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

fn denied_rows(f: &Fixture, cap: usize) -> Vec<Vec<f32>> {
    let x = f.data.x.gather_rows(&f.split.test);
    let preds = f.model.blackbox().predict(&x);
    (0..x.rows())
        .filter(|&r| preds[r] == 0)
        .take(cap)
        .map(|r| x.row_slice(r).to_vec())
        .collect()
}

#[test]
fn routes_and_typed_errors() {
    let f = fixture();
    let h = start(ServeConfig::default());
    let addr = h.addr();

    // healthz
    let (code, body) = roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"model_version\":0"), "{body}");
    // CI's load generator reads the model width off healthz to build
    // well-formed /explain rows.
    assert!(
        body.contains(&format!("\"width\":{}", f.data.width())),
        "{body}"
    );

    // metrics — the families CI greps must be present even pre-traffic.
    let (code, body) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(code, 200);
    for family in [
        "cfx_serve_requests_total",
        "cfx_serve_shed_total",
        "cfx_serve_queue_depth",
        "cfx_serve_active_connections",
    ] {
        assert!(body.contains(family), "missing {family} in:\n{body}");
    }

    // a successful explain
    let rows = denied_rows(f, 2);
    let (code, body) = roundtrip(addr, &post_explain(&rows, 30_000));
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("\"count\":2"), "{body}");
    assert!(body.contains("\"provenance\":"), "{body}");

    // unknown route
    let (code, body) = roundtrip(addr, b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(code, 404);
    assert!(body.contains("\"kind\":\"not_found\""), "{body}");

    // garbage head → typed 400, connection answered not dropped
    let (code, body) = roundtrip(addr, b"garbage bytes\r\n\r\n");
    assert_eq!(code, 400, "{body}");
    assert!(body.contains("\"kind\":\"bad_request_line\""), "{body}");

    // wrong width → 422 with the mismatch spelled out
    let (code, body) = roundtrip(addr, &post_explain(&[vec![1.0, 2.0]], 1_000));
    assert_eq!(code, 422, "{body}");
    assert!(body.contains("\"kind\":\"bad_input\""), "{body}");

    // oversized declared body → 413 before buffering
    let huge = format!(
        "POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    let (code, body) = roundtrip(addr, huge.as_bytes());
    assert_eq!(code, 413, "{body}");
    assert!(body.contains("\"kind\":\"body_too_large\""), "{body}");

    h.shutdown();
    let report = h.join();
    assert!(report.served >= 1);
    assert!(report.malformed >= 4);
}

#[test]
fn connection_cap_sheds_with_retry_after() {
    let f = fixture();
    // max_conns = 0: every connection is over the cap — a deterministic
    // stand-in for "the server is saturated".
    let h = start(ServeConfig { max_conns: 0, ..Default::default() });
    let addr = h.addr();
    let rows = denied_rows(f, 1);

    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&post_explain(&rows, 1_000)).unwrap();
    let mut raw = Vec::new();
    let _ = s.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 429 "), "{text}");
    assert!(text.contains("Retry-After:"), "{text}");
    assert!(text.contains("\"retry_after_ms\":"), "{text}");

    h.shutdown();
    let report = h.join();
    assert!(report.shed >= 1, "{report:?}");
    assert_eq!(report.served, 0);
}

#[test]
fn deadline_paths_are_typed_timeouts() {
    let f = fixture();
    let rows = denied_rows(f, 2);

    // Library level: a zero budget is a typed Timeout, never a panic.
    let x = cfx::tensor::Tensor::from_rows(&rows);
    let err = f
        .model
        .explain_batch_deadline_stream(&x, &GenRecoveryConfig::default(), Duration::ZERO, 0)
        .unwrap_err();
    assert!(matches!(err, CfxError::Timeout { .. }), "{err}");

    // Batcher level: a job whose deadline passed while queued is
    // answered with Timeout without spending compute.
    let queue = Arc::new(BoundedQueue::new(4));
    let registry = Arc::new(serve::ModelRegistry::new(servable(f), None));
    let workers =
        batcher::spawn_pool(Arc::clone(&queue), 1, Arc::clone(&registry), None);
    let (tx, rx) = mpsc::channel();
    queue
        .try_push(batcher::ExplainJob {
            fingerprint: serve::row_fingerprint(&rows),
            rows: rows.clone(),
            deadline: Instant::now() - Duration::from_millis(10),
            deadline_ms: 5,
            admitted_at: Instant::now(),
            trace: None,
            reply: tx,
        })
        .ok()
        .expect("push");
    let reply = rx.recv_timeout(Duration::from_secs(10)).expect("reply");
    assert!(
        matches!(reply.result, Err(CfxError::Timeout { .. })),
        "expired job must be a typed timeout"
    );
    queue.close();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn hot_reload_and_corrupt_quarantine() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!(
        "cfx-serve-reload-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let h = start(ServeConfig {
        model_dir: Some(dir.clone()),
        ..Default::default()
    });
    let addr = h.addr();

    let healthz = |addr| {
        roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").1
    };
    assert!(healthz(addr).contains("\"model_version\":0"));

    // Drop a valid servable checkpoint (with reference moments, so the
    // drift monitor's hot-reload path is exercised) and wait for the
    // hot reload.
    let mut ckpt = Checkpoint::new();
    f.model.export_servable(&f.data, &mut ckpt);
    ckpt.write_atomic(&dir.join(format!("m1.{EXTENSION}"))).unwrap();
    let t0 = Instant::now();
    loop {
        if healthz(addr).contains("\"model_version\":1") {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "hot reload did not land: {}",
            healthz(addr)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(healthz(addr).contains("\"model_source\":\"m1."), "{}", healthz(addr));

    // Drop a corrupt checkpoint: it must be quarantined, and the last
    // good model must keep serving.
    std::thread::sleep(Duration::from_millis(1100)); // newer mtime at 1s fs resolution
    let bad = dir.join(format!("m2.{EXTENSION}"));
    std::fs::write(&bad, b"not a checkpoint at all").unwrap();
    let t0 = Instant::now();
    while bad.exists() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "corrupt checkpoint was not quarantined"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        dir.join(format!("m2.{EXTENSION}.corrupt")).exists()
            || std::fs::read_dir(&dir)
                .unwrap()
                .flatten()
                .any(|e| e.path().to_string_lossy().contains("corrupt")),
        "quarantine file missing"
    );
    let body = healthz(addr);
    assert!(body.contains("\"model_version\":1"), "{body}");

    let rows = denied_rows(f, 1);
    let (code, _) = roundtrip(addr, &post_explain(&rows, 30_000));
    assert_eq!(code, 200, "server must keep serving after quarantine");

    h.shutdown();
    h.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole acceptance test: under concurrent load, a drain
/// triggered mid-flight completes every accepted request, closes the
/// port, and every 200 body is byte-identical to the unloaded run.
#[test]
fn drain_under_load_is_graceful_and_byte_identical() {
    let f = fixture();
    let rows = Arc::new(denied_rows(f, 4));

    // Unloaded baseline: one request against a quiet server.
    let h = start(ServeConfig::default());
    let (code, baseline) = roundtrip(h.addr(), &post_explain(&rows, 30_000));
    assert_eq!(code, 200);
    h.shutdown();
    h.join();

    // Loaded run: 8 clients hammer the same request; drain mid-load.
    let h = start(ServeConfig::default());
    let addr = h.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let rows = Arc::clone(&rows);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                let mut refused = 0u32;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let Ok(mut s) = TcpStream::connect(addr) else {
                        // Port already closed by the drain: load ends.
                        refused += 1;
                        break;
                    };
                    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                    if s.write_all(&post_explain(&rows, 30_000)).is_err() {
                        break;
                    }
                    match read_response(&mut s) {
                        Ok((200, body)) => bodies.push(body),
                        Ok((code, body)) => {
                            // Under drain the only non-200 answers are
                            // typed shed/drain replies.
                            assert!(
                                code == 429 || code == 503,
                                "unexpected {code}: {body}"
                            );
                        }
                        Err(_) => break,
                    }
                }
                (bodies, refused)
            })
        })
        .collect();

    // Let load build, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(300));
    h.shutdown();
    let report = h.join();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);

    let mut total_ok = 0usize;
    for c in clients {
        let (bodies, _refused) = c.join().expect("client thread");
        for body in bodies {
            assert_eq!(
                body, baseline,
                "response under load/drain diverged from unloaded run"
            );
            total_ok += 1;
        }
    }
    assert!(total_ok > 0, "load run produced no successful responses");
    assert_eq!(
        report.served as usize, total_ok,
        "every accepted request must have produced exactly one 200: {report:?}"
    );

    // The port must actually be closed after the drain.
    assert!(
        TcpStream::connect(addr).is_err(),
        "port still open after drain"
    );
}

fn healthz_body(addr: SocketAddr) -> String {
    roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").1
}

/// Pulls an integer field (`"name":N`) out of a healthz body.
fn healthz_u64(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no {field} in {body}"))
        + needle.len();
    body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {field} in {body}"))
}

/// The worker-pool acceptance test: the same request set — arriving in
/// a different order — produces byte-identical bodies at 1 and at 4
/// workers. The cache is disabled so every request actually routes
/// through a worker and the resampling RNG stream gets exercised.
#[test]
fn worker_count_is_invisible_in_response_bytes() {
    let f = fixture();
    let pool = denied_rows(f, 8);
    assert!(pool.len() >= 8, "fixture produced too few denied rows");
    let requests: Vec<Vec<Vec<f32>>> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                vec![pool[i].clone()]
            } else {
                // Multi-row requests too: row order within a request is
                // part of the fingerprint and must survive re-routing.
                vec![pool[i].clone(), pool[(i + 3) % 8].clone()]
            }
        })
        .collect();

    let run = |workers: usize, order: &[usize]| -> Vec<String> {
        let h = start(ServeConfig {
            workers,
            cache_cap: 0,
            ..Default::default()
        });
        let addr = h.addr();
        let mut bodies = vec![String::new(); requests.len()];
        for &i in order {
            let (code, body) =
                roundtrip(addr, &post_explain(&requests[i], 30_000));
            assert_eq!(code, 200, "{body}");
            bodies[i] = body;
        }
        h.shutdown();
        h.join();
        bodies
    };

    let forward: Vec<usize> = (0..requests.len()).collect();
    // Shuffled arrival at 4 workers: a fixed permutation decorrelates
    // arrival order from the baseline run.
    let shuffled = [5usize, 2, 7, 0, 3, 6, 1, 4];
    let base = run(1, &forward);
    let wide = run(4, &shuffled);
    assert_eq!(
        base, wide,
        "responses must be byte-identical at every worker count"
    );
}

/// `queue_cap` is the admission budget exactly, at any worker count:
/// the workers share one queue instead of splitting it.
#[test]
fn healthz_reports_the_exact_queue_cap() {
    let h = start(ServeConfig {
        workers: 3,
        queue_cap: 64,
        ..Default::default()
    });
    let hz = healthz_body(h.addr());
    assert_eq!(healthz_u64(&hz, "workers"), 3, "{hz}");
    assert_eq!(healthz_u64(&hz, "queue_cap"), 64, "{hz}");
    h.shutdown();
    h.join();
}

/// `cfx_serve_queue_depth` is the live backlog, read at scrape time:
/// once the only request is answered, the queue is empty again.
#[test]
fn metrics_report_the_live_queue_depth() {
    let f = fixture();
    let h = start(ServeConfig::default());
    let addr = h.addr();
    let (code, body) = roundtrip(addr, &post_explain(&denied_rows(f, 1), 30_000));
    assert_eq!(code, 200, "{body}");
    let metrics = roundtrip(addr, b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").1;
    let depth = metrics.lines().find(|l| l.starts_with("cfx_serve_queue_depth "));
    assert_eq!(depth, Some("cfx_serve_queue_depth 0"));
    h.shutdown();
    h.join();
}

#[test]
fn cache_hit_short_circuits_with_identical_bytes() {
    let f = fixture();
    let h = start(ServeConfig { cache_cap: 64, ..Default::default() });
    let addr = h.addr();
    let rows = denied_rows(f, 2);

    let (code, first) = roundtrip(addr, &post_explain(&rows, 30_000));
    assert_eq!(code, 200, "{first}");
    let hz = healthz_body(addr);
    assert_eq!(healthz_u64(&hz, "cache_hits"), 0, "{hz}");
    assert!(healthz_u64(&hz, "cache_misses") >= 1, "{hz}");
    assert!(healthz_u64(&hz, "cache_entries") >= 1, "{hz}");

    // Same rows again — and with a different deadline, which is *not*
    // part of the cache key: must hit and answer byte-identically.
    let (code, repeat) = roundtrip(addr, &post_explain(&rows, 20_000));
    assert_eq!(code, 200, "{repeat}");
    assert_eq!(repeat, first, "cache hit must be byte-identical");
    let hz = healthz_body(addr);
    assert_eq!(healthz_u64(&hz, "cache_hits"), 1, "{hz}");

    // A different row set is a different key: miss, not a wrong hit.
    let other = denied_rows(f, 1);
    let (code, body) = roundtrip(addr, &post_explain(&other, 30_000));
    assert_eq!(code, 200, "{body}");
    assert_ne!(body, first);
    let hz = healthz_body(addr);
    assert_eq!(healthz_u64(&hz, "cache_hits"), 1, "{hz}");

    h.shutdown();
    let report = h.join();
    assert_eq!(report.served, 3, "{report:?}");
}

#[test]
fn cache_invalidates_on_hot_swap() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!(
        "cfx-serve-cache-swap-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let h = start(ServeConfig {
        cache_cap: 64,
        model_dir: Some(dir.clone()),
        ..Default::default()
    });
    let addr = h.addr();
    let rows = denied_rows(f, 1);

    // Prime the cache against the boot model and confirm it hits.
    let (code, v0_body) = roundtrip(addr, &post_explain(&rows, 30_000));
    assert_eq!(code, 200, "{v0_body}");
    assert!(v0_body.contains("\"model_version\":0"), "{v0_body}");
    let (_, repeat) = roundtrip(addr, &post_explain(&rows, 30_000));
    assert_eq!(repeat, v0_body);
    assert!(healthz_u64(&healthz_body(addr), "cache_hits") >= 1);

    // Hot-swap a new checkpoint in and wait for it to land.
    let mut ckpt = Checkpoint::new();
    f.model.export_servable(&f.data, &mut ckpt);
    ckpt.write_atomic(&dir.join(format!("m1.{EXTENSION}"))).unwrap();
    let t0 = Instant::now();
    loop {
        let hz = healthz_body(addr);
        if hz.contains("\"model_version\":1") {
            // The swap purges the cache atomically: nothing from the
            // old model survives to be served.
            assert_eq!(healthz_u64(&hz, "cache_entries"), 0, "{hz}");
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "hot reload did not land: {hz}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The same rows must now be recomputed against the new version —
    // never answered from the stale v0 entry.
    let (code, v1_body) = roundtrip(addr, &post_explain(&rows, 30_000));
    assert_eq!(code, 200, "{v1_body}");
    assert!(
        v1_body.contains("\"model_version\":1"),
        "stale cached body served after hot swap: {v1_body}"
    );

    h.shutdown();
    h.join();
    let _ = std::fs::remove_dir_all(&dir);
}
