//! The serve workloads: an in-process `cfx_serve::spawn` driven over
//! loopback TCP by this process.
//!
//! * `serve-lone-adult` — one worker, one closed-loop caller on one
//!   keep-alive connection, one unique Adult row per request, so the
//!   response cache looks up and inserts but never hits.
//! * `serve-kdd-zipf` — one worker per core and an open loop: a seeded
//!   Poisson schedule over [`LADDER`]'s three rates, spread over one
//!   pipelined keep-alive connection per core. Each request is one of
//!   [`ZIPF_BODIES`] pre-built bodies of 1–8 KDD rows drawn with
//!   Zipf(1.1), so cache hits, misses, inserts and evictions all happen.
//!
//! The boot model is trained in set-up with a fixed seed, so every run
//! serves the same model; `--seed` drives the traffic only. Server
//! defaults are used as shipped except the port, the worker count and
//! the model. After the load the benchmark calls
//! `explain_batch_deadline_stream` itself on a fixed sample of bodies,
//! the way a worker does, to split explain time by ladder rung.
//!
//! `latency_p50_ms` is taken over the cold requests alone (see
//! [`mark_cold`]): a cache hit's sub-millisecond answer is mostly thread
//! wake-up, whose median moved 30–50 % between runs on a shared host.

use crate::check::{check_body, BodySummary};
use crate::client::{explain_request, scrape_metrics, Conn, Response};
use crate::{
    fastest_segments_s, median, percentile, secs, Opts, Outcome, SplitMix, Tracing, Workload,
    SERVE_STAGES,
};
use cfx_core::{
    ConstraintMode, ExplainConfig, FeasibleCfConfig, FeasibleCfModel, GenRecoveryConfig,
};
use cfx_data::{DatasetId, EncodedDataset, Split};
use cfx_models::{BlackBox, BlackBoxConfig};
use cfx_serve::{DrainReport, Servable, ServeConfig, ServerHandle};
use cfx_tensor::Tensor;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Training seed of every boot model.
const MODEL_SEED: u64 = 42;
/// Boot-model batch size (the `serve_load` fixture's).
const BOOT_BATCH: usize = 256;

/// Open-loop rates of `serve-kdd-zipf` in requests per second, each
/// with the share of `--seconds` its step lasts. Chosen on a 2-core
/// host so that every step meets the limits below with room to spare;
/// the middle step carries `latency_p50_ms` / `client.latency_p99_ms` and
/// holds 1 000+ samples at 20 s.
pub const LADDER: [(f64, f64); 3] = [(50.0, 0.2), (100.0, 0.6), (150.0, 0.2)];

/// A ladder step counts toward `sustained_rps` only if every request
/// succeeded, its p99 latency (timed from each request's due time)
/// stays within this limit (about three times the top step's p99 on a
/// 2-core host, so a slow spell of the host does not drop the step)...
pub const P99_LIMIT_MS: f64 = 200.0;
/// ...the generator sent its p99 request no later than this after its
/// due time, and the backlog did not grow.
pub const LATENESS_LIMIT_MS: f64 = 20.0;

/// Distinct request bodies of `serve-kdd-zipf`.
pub const ZIPF_BODIES: usize = 4_096;
const ZIPF_S: f64 = 1.1;

/// Most requests one connection keeps unanswered before the generator
/// waits (and falls behind its schedule, which the step then reports).
const MAX_OUTSTANDING: usize = 32;

/// Longest wait for any single response before the request is failed.
const RESPONSE_LIMIT: Duration = Duration::from_secs(30);

/// Per-workload sizes.
struct Plan {
    dataset: DatasetId,
    workers: usize,
    /// Raw rows behind the boot model.
    boot_rows: usize,
    blackbox_epochs: usize,
    fit_epochs: usize,
    /// Raw rows generated from `--seed` as query traffic.
    query_rows: usize,
    /// Warm-up requests sent after spawn, inside set-up.
    warm_up: usize,
    /// Bodies explained directly after the load...
    direct: usize,
    /// ...how many rounds over them, and the pause between rounds (the
    /// best of rounds spread over time sidesteps this host's slow spells).
    direct_reps: usize,
    direct_gap: Duration,
    /// Set-up repetitions behind `setup_s`.
    setup_reps: usize,
    /// Boot-model trainings behind `train_s` (set-ups included).
    train_reps: usize,
}

impl Plan {
    fn new(workload: Workload, toy: bool) -> Plan {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut p = match workload {
            Workload::ServeKddZipf => Plan {
                dataset: DatasetId::KddCensus,
                workers: cores,
                boot_rows: 6_000,
                blackbox_epochs: 12,
                fit_epochs: 60,
                query_rows: 6_000,
                warm_up: 1_024,
                direct: 128,
                direct_reps: 4,
                direct_gap: Duration::ZERO,
                setup_reps: 1,
                train_reps: 4,
            },
            _ => Plan {
                dataset: DatasetId::Adult,
                workers: 1,
                boot_rows: 6_000,
                blackbox_epochs: 12,
                fit_epochs: 80,
                query_rows: 40_000,
                warm_up: 300,
                direct: 500,
                direct_reps: 20,
                direct_gap: Duration::from_millis(50),
                setup_reps: 5,
                train_reps: 5,
            },
        };
        if toy {
            p.boot_rows = 1_200;
            p.blackbox_epochs = 2;
            p.fit_epochs = 2;
            p.query_rows = 1_200;
            p.warm_up = 20;
            p.direct = 8;
            p.direct_reps = 1;
            p.setup_reps = 1;
            p.train_reps = 1;
        }
        p
    }
}

/// The trained model the server boots with, and how long each segment
/// of its training took: data preparation plus the black box, then each
/// `fit` epoch (from the `fit_with` hook).
struct Boot {
    model: FeasibleCfModel,
    data: EncodedDataset,
    segments_s: Vec<f64>,
}

/// Trains on the calling thread alone. A two-thread kernel on a shared
/// 2-vCPU guest stalls whenever either vCPU is taken away; serial
/// training is exposed to one, and on an idle 2-core host it is as fast.
fn train_boot(plan: &Plan) -> Boot {
    cfx_tensor::runtime::with_threads(1, || train_boot_serial(plan))
}

fn train_boot_serial(plan: &Plan) -> Boot {
    let t = Instant::now();
    let raw = plan.dataset.generate(plan.boot_rows, MODEL_SEED);
    let data = EncodedDataset::from_raw(&raw);
    let split = Split::paper(data.len(), MODEL_SEED);
    let (x_train, y_train) = data.subset(&split.train);
    let bb_cfg = BlackBoxConfig {
        epochs: plan.blackbox_epochs,
        seed: MODEL_SEED,
        ..Default::default()
    };
    let mut blackbox = BlackBox::new(data.width(), &bb_cfg);
    blackbox.train(&x_train, &y_train, &bb_cfg);
    let config = FeasibleCfConfig::paper(plan.dataset, ConstraintMode::Unary)
        .with_seed(MODEL_SEED)
        .with_epochs(plan.fit_epochs)
        .with_batch_size(BOOT_BATCH);
    let constraints = FeasibleCfModel::paper_constraints(
        plan.dataset,
        &data,
        ConstraintMode::Unary,
        config.c1,
        config.c2,
    )
    .expect("the dataset has the paper's unary constraint");
    let mut model = FeasibleCfModel::new(&data, blackbox, constraints, config);
    let mut segments_s = vec![secs(t)];
    let mut last = Instant::now();
    model.fit_with(&x_train, |_, _| {
        segments_s.push(secs(last));
        last = Instant::now();
    });
    Boot {
        model,
        data,
        segments_s,
    }
}

/// Query traffic built from `--seed`: encoded rows, bodies over them,
/// and the orders the phases send them in.
struct Traffic {
    rows: Vec<Vec<f32>>,
    /// Row indices of each body.
    bodies: Vec<Vec<usize>>,
    /// Per body, the first body with the same rows (the same cache key).
    canon: Vec<usize>,
    /// The rendered request of each body.
    requests: Vec<Vec<u8>>,
    /// Bodies the warm-up sends, in order.
    warm: Vec<usize>,
    /// Bodies the closed-loop caller sends, in order (lone only; the
    /// open loop draws from [`schedule`]).
    load: Vec<usize>,
    /// Bodies explained directly after the load.
    direct: Vec<usize>,
}

impl Traffic {
    fn new(opts: &Opts, plan: &Plan, boot: &Boot) -> Traffic {
        // Rows from `--seed`, encoded the way the boot model was, minus
        // bitwise duplicates.
        let raw = plan.dataset.generate(plan.query_rows, opts.seed).cleaned();
        let mut seen = HashSet::new();
        let rows: Vec<Vec<f32>> = raw
            .rows
            .iter()
            .map(|r| {
                boot.data
                    .encoding
                    .encode_row(&boot.data.schema, r)
                    .expect("rows encode")
            })
            .filter(|r| seen.insert(r.iter().map(|v| v.to_bits()).collect::<Vec<_>>()))
            .collect();
        let mut rng = SplitMix::new(opts.seed, 1);
        let (bodies, warm, load, direct): (Vec<Vec<usize>>, Vec<usize>, Vec<usize>, Vec<usize>) =
            if opts.workload == Workload::ServeLoneAdult {
                // One unique row per body: the warm-up takes the first
                // ones and the caller the rest.
                let n = rows.len();
                let w = plan.warm_up.min(n);
                let load: Vec<usize> = (w..n).collect();
                let direct = load.iter().copied().take(plan.direct).collect();
                (
                    (0..n).map(|i| vec![i]).collect(),
                    (0..w).collect(),
                    load,
                    direct,
                )
            } else {
                // Body `r` is popularity rank `r` and holds `1 + r % 8`
                // seeded rows, so every seed sees the same mix of body
                // widths at every popularity.
                let n = rows.len();
                let bodies: Vec<Vec<usize>> = (0..ZIPF_BODIES)
                    .map(|r| {
                        let start = rng.below(n);
                        (start..start + 1 + r % 8).map(|i| i % n).collect()
                    })
                    .collect();
                // The warm-up sends the most popular bodies once each, so
                // the cache starts near its steady state.
                let warm = (0..plan.warm_up.min(ZIPF_BODIES)).collect();
                let direct = (0..plan.direct.min(ZIPF_BODIES)).collect();
                (bodies, warm, Vec::new(), direct)
            };
        let requests: Vec<Vec<u8>> = bodies
            .iter()
            .map(|b| explain_request(&b.iter().map(|&i| rows[i].as_slice()).collect::<Vec<_>>()))
            .collect();
        let mut first_of: HashMap<&[u8], usize> = HashMap::new();
        let canon = requests
            .iter()
            .enumerate()
            .map(|(b, r)| *first_of.entry(r.as_slice()).or_insert(b))
            .collect();
        Traffic {
            rows,
            bodies,
            canon,
            requests,
            warm,
            load,
            direct,
        }
    }
}

/// Verdict on one request.
#[derive(Debug, Clone)]
enum Verdict {
    Ok(BodySummary),
    /// Non-200 status, or no usable response at all (`0`).
    Status(u16),
    /// A 200 whose body failed an output check.
    Bad(String),
}

/// Checks answers, remembering the first answer per body: every repeat
/// (a cache hit, a recompute after eviction, the traced pass) must be
/// byte-identical, since the model and its version never change.
struct Checker {
    width: usize,
    /// `--corrupt`: drop each body's last byte before checking it.
    corrupt: bool,
    seen: Mutex<HashMap<usize, FirstAnswer>>,
}

/// A body's first answer: its hash and length, and its check result.
type FirstAnswer = (u64, usize, Result<BodySummary, String>);

impl Checker {
    fn new(width: usize, corrupt: bool) -> Checker {
        Checker {
            width,
            corrupt,
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// `(valid, feasible, rows)` over the distinct bodies answered so
    /// far: traffic-weighted counts would let the few hottest Zipf
    /// bodies decide the figure.
    fn distinct_rows(&self) -> (usize, usize, usize) {
        let seen = self.seen.lock().expect("checker lock");
        seen.values()
            .filter_map(|(_, _, s)| s.as_ref().ok())
            .fold((0, 0, 0), |a, s| {
                (a.0 + s.valid, a.1 + s.feasible, a.2 + s.rows)
            })
    }

    fn verdict(&self, body: usize, rows: usize, resp: &Response) -> Verdict {
        if resp.status != 200 {
            return Verdict::Status(resp.status);
        }
        let body_bytes = match (self.corrupt, resp.body.split_last()) {
            (true, Some((_, head))) => head,
            _ => &resp.body[..],
        };
        let mut h = std::collections::hash_map::DefaultHasher::new();
        body_bytes.hash(&mut h);
        let key = (h.finish(), body_bytes.len());
        let known = self.seen.lock().expect("checker lock").get(&body).cloned();
        let first = match known {
            Some(k) => k,
            None => {
                // Parse outside the lock; the first answer to land wins.
                let checked = check_body(body_bytes, rows, self.width);
                let mut seen = self.seen.lock().expect("checker lock");
                seen.entry(body).or_insert((key.0, key.1, checked)).clone()
            }
        };
        if (first.0, first.1) != key {
            return Verdict::Bad(format!(
                "body {body}: a repeat differs from its first answer"
            ));
        }
        match first.2 {
            Ok(s) => Verdict::Ok(s),
            Err(e) => Verdict::Bad(format!("body {body}: {e}")),
        }
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
struct Sample {
    /// Ladder step (0-based); 0 for closed loops.
    step: usize,
    body: usize,
    /// The first request for its rows since the server started: a
    /// certain cache miss (see [`mark_cold`]).
    cold: bool,
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
    verdict: Verdict,
}

/// Closed loop: `conns` callers, each sending its share of `order` one
/// at a time on its own keep-alive connection, until `until`.
fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    order: &[usize],
    conns: usize,
    until: Instant,
    checker: &Checker,
) -> Vec<Sample> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).ok();
                    let mut samples = Vec::new();
                    for &body in order.iter().skip(c).step_by(conns) {
                        if Instant::now() >= until {
                            break;
                        }
                        let sent = Instant::now();
                        let reply = match conn.as_mut() {
                            Some(k) => k
                                .send(&traffic.requests[body])
                                .map_err(|e| e.to_string())
                                .and_then(|_| k.recv(RESPONSE_LIMIT)),
                            None => Err("not connected".into()),
                        };
                        let done = Instant::now();
                        let (done, verdict) = match reply {
                            Ok(r) => (
                                Some(done),
                                checker.verdict(body, traffic.bodies[body].len(), &r),
                            ),
                            Err(_) => {
                                conn = Conn::connect(addr).ok();
                                (None, Verdict::Status(0))
                            }
                        };
                        samples.push(Sample {
                            step: 0,
                            body,
                            cold: false,
                            due: sent,
                            sent,
                            done,
                            verdict,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("caller thread"))
            .collect()
    })
}

/// One planned open-loop request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    step: usize,
    /// Due time as an offset from the loop's start.
    due: Duration,
    body: usize,
}

/// A seeded schedule over [`LADDER`], `seconds` long: each step holds
/// exactly `rate × its duration` arrivals at uniformly random times (a
/// Poisson process conditioned on its count, so every seed offers the
/// same load), each for a body drawn by Zipf popularity rank.
fn schedule(seed: u64, seconds: f64, bodies: usize) -> Vec<Planned> {
    let mut rng = SplitMix::new(seed, 2);
    let zipf = Zipf::new(bodies, ZIPF_S);
    let mut plan = Vec::new();
    let mut step_start = 0.0;
    for (step, &(rate, share)) in LADDER.iter().enumerate() {
        let span = share * seconds;
        let mut times: Vec<f64> = (0..(rate * span).round() as usize)
            .map(|_| step_start + span * rng.unit())
            .collect();
        times.sort_by(f64::total_cmp);
        for t in times {
            let body = zipf.sample(&mut rng);
            plan.push(Planned {
                step,
                due: Duration::from_secs_f64(t),
                body,
            });
        }
        step_start += span;
    }
    plan
}

/// Open loop: request `i` of `plan` goes out on connection `i % conns`
/// at its due time whether or not earlier answers are back (up to
/// [`MAX_OUTSTANDING`] per connection).
fn open_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    plan: &[Planned],
    conns: usize,
    checker: &Checker,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<Planned> = plan.iter().skip(c).step_by(conns).copied().collect();
                s.spawn(move || pipelined(addr, traffic, &mine, start, checker))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("connection thread"))
            .collect()
    })
}

/// One connection of the open loop: send what is due, otherwise wait
/// for the next answer until the next due time.
fn pipelined(
    addr: SocketAddr,
    traffic: &Traffic,
    mine: &[Planned],
    start: Instant,
    checker: &Checker,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::with_capacity(mine.len());
    let mut waiting: VecDeque<(usize, usize)> = VecDeque::new(); // (sample, body)
    let mut conn = Conn::connect(addr).ok();
    let mut next = 0;
    let mut last_progress = Instant::now();
    loop {
        while next < mine.len()
            && start + mine[next].due <= Instant::now()
            && waiting.len() < MAX_OUTSTANDING
        {
            let p = mine[next];
            let sent = Instant::now();
            let ok = conn
                .as_mut()
                .is_some_and(|k| k.send(&traffic.requests[p.body]).is_ok());
            let verdict = Verdict::Status(0);
            samples.push(Sample {
                step: p.step,
                body: p.body,
                cold: false,
                due: start + p.due,
                sent,
                done: None,
                verdict,
            });
            if ok {
                waiting.push_back((samples.len() - 1, p.body));
            } else {
                conn = Conn::connect(addr).ok();
            }
            next += 1;
        }
        if next == mine.len() && waiting.is_empty() {
            return samples;
        }
        let wait = if next < mine.len() && waiting.len() < MAX_OUTSTANDING {
            (start + mine[next].due).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        if waiting.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        match conn.as_mut().map(|k| k.recv_within(wait)) {
            Some(Ok(Some(resp))) => {
                let done = Instant::now();
                last_progress = done;
                let (i, body) = waiting.pop_front().expect("a request is waiting");
                samples[i].done = Some(done);
                samples[i].verdict = checker.verdict(body, traffic.bodies[body].len(), &resp);
            }
            Some(Ok(None)) if last_progress.elapsed() < RESPONSE_LIMIT => {}
            _ => {
                // Transport failure or a stalled server: fail what is
                // waiting and carry on over a fresh connection.
                waiting.clear();
                last_progress = Instant::now();
                conn = Conn::connect(addr).ok();
            }
        }
    }
}

/// What one ladder step (or the closed loop) delivered.
#[derive(Debug, Clone, Default)]
struct Step {
    rate: f64,
    seconds: f64,
    sent: usize,
    ok: usize,
    cfs: usize,
    /// Latencies of the successful requests, ascending, in ms.
    latencies: Vec<f64>,
    /// The same for the cold ones alone.
    cold: Vec<f64>,
    /// First due time to last answer, in seconds.
    span_s: f64,
    lateness_p99_ms: f64,
    backlog_max: usize,
    backlog_grew: bool,
}

impl Step {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies, q)
    }

    /// Median latency of the cold requests: what a request the cache
    /// cannot answer waits for parse, queue, linger, explain and reply.
    fn cold_p50(&self) -> f64 {
        percentile(&self.cold, 0.5)
    }

    fn counted(&self) -> bool {
        self.sent > 0
            && self.ok == self.sent
            && self.p(0.99) <= P99_LIMIT_MS
            && self.lateness_p99_ms <= LATENESS_LIMIT_MS
            && !self.backlog_grew
    }
}

/// Splits samples into steps (`(rate, seconds)` each) and measures each
/// one's backlog: the requests sent but not yet answered at each send.
fn steps(samples: &[Sample], durations: &[(f64, f64)]) -> Vec<Step> {
    let mut events: Vec<(Instant, i64)> = samples.iter().map(|s| (s.sent, 1)).collect();
    events.extend(samples.iter().map(|s| (s.done.unwrap_or(s.sent), -1)));
    // At equal instants count the answer first: a request is not behind itself.
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth_at = HashMap::new();
    let mut depth = 0i64;
    for (t, d) in events {
        depth += d;
        if d > 0 {
            depth_at.insert(t, depth.max(0) as usize);
        }
    }
    durations
        .iter()
        .enumerate()
        .map(|(k, &(rate, seconds))| {
            let mut mine: Vec<&Sample> = samples.iter().filter(|s| s.step == k).collect();
            mine.sort_by_key(|s| s.due);
            let mut st = Step {
                rate,
                seconds,
                sent: mine.len(),
                ..Default::default()
            };
            for s in &mine {
                if let (Verdict::Ok(sum), Some(done)) = (&s.verdict, s.done) {
                    st.ok += 1;
                    st.cfs += sum.rows;
                    let ms = 1e3 * done.saturating_duration_since(s.due).as_secs_f64();
                    st.latencies.push(ms);
                    if s.cold {
                        st.cold.push(ms);
                    }
                }
            }
            st.latencies.sort_by(f64::total_cmp);
            st.cold.sort_by(f64::total_cmp);
            if let (Some(first), Some(last)) =
                (mine.first(), mine.iter().filter_map(|s| s.done).max())
            {
                st.span_s = last.saturating_duration_since(first.due).as_secs_f64();
            }
            let mut late: Vec<f64> = mine
                .iter()
                .map(|s| 1e3 * s.sent.saturating_duration_since(s.due).as_secs_f64())
                .collect();
            late.sort_by(f64::total_cmp);
            st.lateness_p99_ms = percentile(&late, 0.99);
            let depths: Vec<usize> = mine.iter().map(|s| depth_at[&s.sent]).collect();
            st.backlog_max = depths.iter().copied().max().unwrap_or(0);
            let q = depths.len() / 4;
            if q > 0 {
                // Medians: a burst of slow misses in one quarter is not growth.
                let mid = |d: &[usize]| median(&d.iter().map(|&x| x as f64).collect::<Vec<_>>());
                st.backlog_grew = mid(&depths[depths.len() - q..]) > mid(&depths[..q]) + 2.0;
            }
            st
        })
        .collect()
}

/// Direct explain calls on a fixed sample of bodies, each repeated.
#[derive(Debug, Default)]
struct Direct {
    /// Per body: its best time over the repeats (s) and its rows.
    best: Vec<(f64, usize)>,
    /// `true`: report the work-weighted mean; `false`: the median call.
    work_weighted: bool,
    first_shot: usize,
    resampled: usize,
    fallback: usize,
    /// Best call times in µs, split by whether any row fell back.
    us_first_shot: Vec<f64>,
    us_fallback: Vec<f64>,
}

impl Direct {
    fn rows(&self) -> usize {
        self.best.iter().map(|b| b.1).sum()
    }

    /// Explain time per counterfactual: total best time over total rows
    /// (bodies of mixed width and rung), or the median body's best time
    /// over its rows (single-row bodies, where rare fallbacks would
    /// otherwise decide a mean).
    fn us_per_cf(&self) -> f64 {
        if self.work_weighted {
            1e6 * self.best.iter().map(|b| b.0).sum::<f64>() / self.rows().max(1) as f64
        } else {
            median(
                &self
                    .best
                    .iter()
                    .map(|b| 1e6 * b.0 / b.1 as f64)
                    .collect::<Vec<_>>(),
            )
        }
    }
}

/// Calls the explain ladder on each of `traffic.direct`, `reps` rounds
/// over the whole sample, exactly as a worker does: the row fingerprint
/// as RNG stream, the default deadline. Every round must return the
/// first round's counterfactuals bit for bit.
fn explain_directly(boot: &Boot, traffic: &Traffic, plan: &Plan, out: &mut Outcome) -> Direct {
    let recovery = GenRecoveryConfig::default();
    let deadline = Duration::from_millis(ServeConfig::default().default_deadline_ms);
    let inputs: Vec<(Vec<Vec<f32>>, u64)> = traffic
        .direct
        .iter()
        .map(|&b| {
            let rows: Vec<Vec<f32>> = traffic.bodies[b]
                .iter()
                .map(|&i| traffic.rows[i].clone())
                .collect();
            let stream = cfx_serve::row_fingerprint(&rows);
            (rows, stream)
        })
        .collect();
    let mut best = vec![f64::INFINITY; inputs.len()];
    let mut first: Vec<Option<Vec<u32>>> = vec![None; inputs.len()];
    let mut fell_back = vec![false; inputs.len()];
    let mut d = Direct {
        work_weighted: plan.dataset == DatasetId::KddCensus,
        ..Default::default()
    };
    for round in 0..plan.direct_reps {
        if round > 0 {
            std::thread::sleep(plan.direct_gap);
        }
        for (i, (rows, stream)) in inputs.iter().enumerate() {
            let x = Tensor::from_rows(rows);
            out.attempted += 1;
            let t = Instant::now();
            let result = boot
                .model
                .explain_batch_deadline_stream(&x, &recovery, deadline, *stream);
            let s = secs(t);
            let batch = match result {
                Ok(batch) => batch,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: direct explain failed: {e}");
                    continue;
                }
            };
            best[i] = best[i].min(s);
            let bits: Vec<u32> = batch
                .examples
                .iter()
                .flat_map(|e| e.cf.iter().map(|v| v.to_bits()))
                .collect();
            if !batch
                .examples
                .iter()
                .all(|e| e.cf.iter().all(|v| v.is_finite()))
            {
                out.check_failed("a direct explain returned a non-finite counterfactual");
            }
            match &first[i] {
                Some(f) if *f != bits => out.check_failed("a repeated direct explain differs"),
                Some(_) => {}
                None => first[i] = Some(bits),
            }
            if round == 0 {
                let c = batch.provenance_counts();
                d.first_shot += c.first_shot;
                d.resampled += c.resampled;
                d.fallback += c.fallback;
                fell_back[i] = c.fallback > 0;
            }
        }
    }
    for (i, (rows, _)) in inputs.iter().enumerate() {
        if best[i].is_finite() {
            d.best.push((best[i], rows.len()));
            let by_rung = if fell_back[i] {
                &mut d.us_fallback
            } else {
                &mut d.us_first_shot
            };
            by_rung.push(1e6 * best[i]);
        }
    }
    d
}

/// Marks each sample that is the first, in send order, for rows the
/// server had not been sent since it started (warm-up included). No
/// answer for those rows can be in the cache yet, so it is a miss.
fn mark_cold(samples: &mut [Sample], traffic: &Traffic) {
    let mut seen: HashSet<usize> = traffic.warm.iter().map(|&b| traffic.canon[b]).collect();
    let mut order: Vec<usize> = (0..samples.len()).collect();
    order.sort_by_key(|&i| samples[i].sent);
    for i in order {
        samples[i].cold = seen.insert(traffic.canon[samples[i].body]);
    }
}

/// Counts samples into the run's tallies.
fn tally(samples: &[Sample], out: &mut Outcome) {
    for s in samples {
        out.attempted += 1;
        match &s.verdict {
            Verdict::Ok(_) => {}
            Verdict::Status(code) => {
                out.failed += 1;
                if out.failed <= 5 {
                    eprintln!("perfbench: request failed with status {code}");
                }
            }
            Verdict::Bad(why) => out.check_failed(why),
        }
    }
}

/// Spawns the server on a free port and warms it up with
/// `traffic.warm`.
fn spawn_warm(
    boot: &Boot,
    traffic: &Traffic,
    plan: &Plan,
    checker: &Checker,
    out: &mut Outcome,
) -> ServerHandle {
    let servable = Servable {
        model: boot.model.clone(),
        data: boot.data.clone(),
        explain: ExplainConfig::default(),
        recovery: GenRecoveryConfig::default(),
        version: 0,
        source: "perfbench".into(),
    };
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: plan.workers,
        ..Default::default()
    };
    let server = cfx_serve::spawn(cfg, servable, Arc::new(AtomicBool::new(false)))
        .expect("spawn the server");
    let far = Instant::now() + Duration::from_secs(3_600);
    let warm = closed_loop(
        server.addr(),
        traffic,
        &traffic.warm,
        plan.workers,
        far,
        checker,
    );
    tally(&warm, out);
    server
}

/// Everything one load pass measured.
struct Pass {
    steps: Vec<Step>,
    /// Index of the step whose latency is reported.
    main: usize,
    metrics_before: BTreeMap<String, f64>,
    metrics_after: BTreeMap<String, f64>,
    drain: DrainReport,
    direct: Direct,
}

impl Pass {
    fn main_step(&self) -> &Step {
        &self.steps[self.main]
    }

    fn sustained_rps(&self) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|s| s.counted())
            .map_or(0.0, |s| s.ok as f64 / s.span_s)
    }

    /// Change of a `/metrics` series over the load.
    fn delta(&self, name: &str) -> f64 {
        let get = |m: &BTreeMap<String, f64>| m.get(name).copied().unwrap_or(0.0);
        get(&self.metrics_after) - get(&self.metrics_before)
    }
}

/// Drives the warmed `server` with the workload's load for `--seconds`,
/// drains it, then explains `traffic.direct` in-process.
fn load_pass(
    opts: &Opts,
    plan: &Plan,
    boot: &Boot,
    traffic: &Traffic,
    server: ServerHandle,
    checker: &Checker,
    out: &mut Outcome,
) -> Pass {
    let addr = server.addr();
    let metrics_before = scrape_metrics(addr).unwrap_or_default();
    let (mut samples, durations) = if opts.workload == Workload::ServeLoneAdult {
        let t = Instant::now();
        let until = t + Duration::from_secs_f64(opts.seconds);
        let samples = closed_loop(addr, traffic, &traffic.load, 1, until, checker);
        let took = secs(t);
        let rate = samples.len() as f64 / took;
        (samples, vec![(rate, took)])
    } else {
        let plan_ = schedule(opts.seed, opts.seconds, traffic.bodies.len());
        let samples = open_loop(addr, traffic, &plan_, plan.workers, checker);
        (
            samples,
            LADDER
                .iter()
                .map(|&(r, share)| (r, share * opts.seconds))
                .collect(),
        )
    };
    mark_cold(&mut samples, traffic);
    let metrics_after = scrape_metrics(addr).unwrap_or_default();
    server.shutdown();
    let drain = server.join();
    tally(&samples, out);
    Pass {
        steps: steps(&samples, &durations),
        main: if opts.workload == Workload::ServeLoneAdult {
            0
        } else {
            1
        },
        metrics_before,
        metrics_after,
        drain,
        direct: explain_directly(boot, traffic, plan, out),
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Runs a serve workload; see the module docs.
pub fn run(opts: &Opts) -> Outcome {
    let plan = Plan::new(opts.workload, opts.toy);
    let mut out = Outcome::default();

    // Set-up, repeated: train the boot model, build the traffic, spawn
    // and warm up. `setup_s` is the median; the last server is kept.
    let mut setup_s = Vec::new();
    let mut trainings = Vec::new();
    let mut live: Option<(Boot, Traffic, Checker, ServerHandle)> = None;
    for _ in 0..plan.setup_reps {
        let t = Instant::now();
        let boot = train_boot(&plan);
        trainings.push(boot.segments_s.clone());
        let traffic = Traffic::new(opts, &plan, &boot);
        let checker = Checker::new(boot.data.width(), opts.corrupt);
        let server = spawn_warm(&boot, &traffic, &plan, &checker, &mut out);
        setup_s.push(secs(t));
        if let Some((_, _, _, old)) = live.replace((boot, traffic, checker, server)) {
            old.shutdown();
            old.join();
        }
    }
    let (boot, traffic, checker, server) = live.expect("at least one set-up");
    eprintln!(
        "perfbench: {} boot model ({} encoded columns), {} workers, set-up {:.3} s (median of \
         {}), {} query rows, {} bodies",
        plan.dataset.name(),
        boot.data.width(),
        plan.workers,
        median(&setup_s),
        setup_s.len(),
        traffic.rows.len(),
        traffic.bodies.len()
    );

    let plain = load_pass(opts, &plan, &boot, &traffic, server, &checker, &mut out);
    report(&plain, "untraced");
    if !opts.trace {
        let main = plain.main_step();
        let (valid, feasible, rows) = checker.distinct_rows();
        // Extra trainings, for `train_s` alone.
        while trainings.len() < plan.train_reps {
            trainings.push(train_boot(&plan).segments_s);
        }
        out.set("setup_s", median(&setup_s));
        out.set("train_s", fastest_segments_s(&trainings));
        out.set("validity_pct", 100.0 * valid as f64 / rows.max(1) as f64);
        out.set(
            "feasibility_pct",
            100.0 * feasible as f64 / rows.max(1) as f64,
        );
        out.set("explain_us_per_cf", plain.direct.us_per_cf());
        out.set("latency_p50_ms", main.cold_p50());
        out.set("cfs_per_s", main.cfs as f64 / main.seconds);
        let sustained = if opts.workload == Workload::ServeLoneAdult {
            main.ok as f64 / main.seconds
        } else {
            plain.sustained_rps()
        };
        out.set("sustained_rps", sustained);
        return out;
    }

    let tracing = Tracing::arm(opts.workload);
    let server = spawn_warm(&boot, &traffic, &plan, &checker, &mut out);
    let traced = load_pass(opts, &plan, &boot, &traffic, server, &checker, &mut out);
    tracing.finish(&mut out);
    report(&traced, "traced");
    per_layer(&traced, &plain, &mut out);
    out
}

fn per_layer(traced: &Pass, plain: &Pass, out: &mut Outcome) {
    let d = &traced.direct;
    out.set("core.explain.first_shot", d.first_shot as f64);
    out.set("core.explain.resampled", d.resampled as f64);
    out.set("core.explain.fallback", d.fallback as f64);
    out.set(
        "core.explain.first_shot_frac",
        d.first_shot as f64 / d.rows().max(1) as f64,
    );
    out.set("core.explain.req_us.first_shot", median(&d.us_first_shot));
    out.set("core.explain.req_us.fallback", median(&d.us_fallback));
    let l = &traced.drain.latency;
    let us = |ns: u64| ns as f64 / 1e3;
    out.set("serve.parse_us", us(l.parse_p50_ns));
    out.set("serve.queue_wait_us", us(l.queue_wait_p50_ns));
    out.set("serve.linger_us", us(l.linger_p50_ns));
    out.set("serve.explain_us", us(l.explain_p50_ns));
    out.set("serve.serialize_us", us(l.serialize_p50_ns));
    out.set("serve.respond_us", us(l.respond_p50_ns));
    for stage in SERVE_STAGES {
        let family = format!("cfx_serve_stage_ns:{stage}");
        let count = traced.delta(&format!("{family}_count"));
        let mean_ns = traced.delta(&format!("{family}_sum")) / count.max(1.0);
        out.set(&format!("serve.{stage}_us_mean"), mean_ns / 1e3);
    }
    let main = traced.main_step();
    out.set(
        "serve.linger_share_pct",
        100.0 * us(l.linger_p50_ns) / 1e3 / main.cold_p50(),
    );
    let hits = traced.delta("cfx_serve_cache_hits_total");
    let misses = traced.delta("cfx_serve_cache_misses_total");
    out.set("serve.cache.hits", hits);
    out.set("serve.cache.misses", misses);
    out.set(
        "serve.cache.evictions",
        traced.delta("cfx_serve_cache_evictions_total"),
    );
    out.set("serve.cache.hit_frac", hits / (hits + misses).max(1.0));
    out.set("serve.batches", traced.delta("cfx_serve_batches_total"));
    let batch_rows = traced.delta("cfx_serve_batch_rows_sum");
    out.set(
        "serve.batch_rows_mean",
        batch_rows / traced.delta("cfx_serve_batch_rows_count").max(1.0),
    );
    out.set("serve.shed", traced.delta("cfx_serve_shed_total"));
    out.set("serve.timeouts", traced.delta("cfx_serve_timeouts_total"));
    out.set("serve.expired", traced.delta("cfx_serve_expired_total"));
    // The samples behind the untraced `latency_p50_ms`, and the main
    // step's percentiles over every request, cache hits included.
    let pm = plain.main_step();
    out.set("client.latency_samples", pm.cold.len() as f64);
    out.set("client.latency_p50_all_ms", pm.p(0.5));
    out.set("client.latency_p99_ms", pm.p(0.99));
    for (k, s) in traced.steps.iter().enumerate() {
        let name = |m: &str| format!("client.step{}.{m}", k + 1);
        out.set(&name("rate_rps"), s.rate);
        out.set(&name("sent"), s.sent as f64);
        out.set(&name("ok"), s.ok as f64);
        out.set(&name("failed"), (s.sent - s.ok) as f64);
        out.set(&name("p99_ms"), s.p(0.99));
        out.set(&name("lateness_ms"), s.lateness_p99_ms);
        out.set(&name("backlog_max"), s.backlog_max as f64);
        out.set(&name("backlog_grew"), f64::from(u8::from(s.backlog_grew)));
        out.set(&name("counted"), f64::from(u8::from(s.counted())));
    }
    let overhead = |t: f64, p: f64| 100.0 * (t - p) / p;
    let (tm, pm) = (traced.main_step(), plain.main_step());
    let (td, pd) = (traced.direct.us_per_cf(), plain.direct.us_per_cf());
    out.set("obs.overhead_pct.explain_us_per_cf", overhead(td, pd));
    out.set(
        "obs.overhead_pct.latency_p50_ms",
        overhead(tm.cold_p50(), pm.cold_p50()),
    );
    out.set(
        "obs.overhead_pct.latency_p99_ms",
        overhead(tm.p(0.99), pm.p(0.99)),
    );
}

fn report(p: &Pass, label: &str) {
    for (k, s) in p.steps.iter().enumerate() {
        eprintln!(
            "perfbench: {label} step {}: {:.1} req/s for {:.1} s, sent {} ok {} failed {}, \
             p50 {:.3} ms p99 {:.3} ms ({} samples), cold p50 {:.3} ms ({} samples), \
             lateness p99 {:.3} ms, backlog max {} grew {}, counted {}",
            k + 1,
            s.rate,
            s.seconds,
            s.sent,
            s.ok,
            s.sent - s.ok,
            s.p(0.5),
            s.p(0.99),
            s.latencies.len(),
            s.cold_p50(),
            s.cold.len(),
            s.lateness_p99_ms,
            s.backlog_max,
            s.backlog_grew,
            s.counted()
        );
    }
    let (d, l) = (&p.direct, &p.drain.latency);
    eprintln!(
        "perfbench: {label}: direct explain \
         {:.1} us/CF over {} rows ({} first shot, {} resampled, {} fallback); drain: served {} \
         shed {} timeouts {}, stage p50 us parse {:.1} queue {:.1} linger {:.1} explain {:.1} \
         serialize {:.1} respond {:.1}; cache hits {} misses {} evictions {}",
        d.us_per_cf(),
        d.rows(),
        d.first_shot,
        d.resampled,
        d.fallback,
        p.drain.served,
        p.drain.shed,
        p.drain.timeouts,
        l.parse_p50_ns as f64 / 1e3,
        l.queue_wait_p50_ns as f64 / 1e3,
        l.linger_p50_ns as f64 / 1e3,
        l.explain_p50_ns as f64 / 1e3,
        l.serialize_p50_ns as f64 / 1e3,
        l.respond_p50_ns as f64 / 1e3,
        p.delta("cfx_serve_cache_hits_total"),
        p.delta("cfx_serve_cache_misses_total"),
        p.delta("cfx_serve_cache_evictions_total"),
    );
}
