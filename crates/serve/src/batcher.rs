//! The explain worker pool: deadline-based micro-batching into
//! `explain_batch`, across N workers popping one shared queue.
//!
//! PR 7 ran one batcher thread, which serializes the serving hot path:
//! under 64 clients the queue, not the model, sets the latency floor.
//! The pool removes that funnel. Every worker pops the one bounded
//! admission queue, grabs its own `Arc<Servable>` snapshots, and —
//! because tensor-pool buffers are thread-local — keeps its own warm
//! allocation pool. Workers share nothing but the queue, the
//! registry and the response cache.
//!
//! **Responses are byte-identical at every worker count.** Two rules
//! make that hold:
//!
//! 1. Each job is explained as its own `explain_batch` call, never
//!    concatenated with batch-mates — the resampling rung draws noise
//!    positionally, so concatenation would make a request's bytes
//!    depend on strangers.
//! 2. The recovery-resampling RNG stream is derived from the job's
//!    **row fingerprint** ([`crate::row_fingerprint`]), not from the
//!    worker index: whichever worker pops a job, it draws the same
//!    stream.
//!
//! Within one worker, a pop gathers up to [`MAX_BATCH_ROWS`] rows for
//! at most [`LINGER`] (or until the first job's deadline, if sooner)
//! and takes one model snapshot for them; expired jobs get a typed
//! [`CfxError::Timeout`] without spending compute, and every admitted
//! job is answered exactly once (the drain contract).

use crate::cache::{CacheKey, ResponseCache};
use crate::queue::BoundedQueue;
use crate::registry::{ModelRegistry, Servable};
use cfx_core::Provenance;
use cfx_obs::json::write_f64;
use cfx_obs::metrics::{counter, histogram};
use cfx_tensor::{CfxError, Tensor};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One admitted `/explain` request waiting for compute.
pub struct ExplainJob {
    /// Decoded feature rows (already width-validated at admission).
    pub rows: Vec<Vec<f32>>,
    /// Content fingerprint of `rows` ([`crate::row_fingerprint`]): the
    /// job's recovery-resampling RNG stream.
    pub fingerprint: u64,
    /// Absolute deadline for the reply.
    pub deadline: Instant,
    /// The deadline budget as requested, for error reporting.
    pub deadline_ms: u64,
    /// When admission pushed the job (queue-wait timing anchor).
    pub admitted_at: Instant,
    /// The request's trace id, if the connection allocated one. The
    /// worker binds it as the thread's trace scope while processing, so
    /// every event emitted inside `explain_batch` carries it.
    pub trace: Option<cfx_obs::TraceId>,
    /// Where the rendered body (or typed error) plus worker-side stage
    /// timings go.
    pub reply: mpsc::Sender<JobReply>,
}

/// Worker-side stage timings for one job, in nanoseconds. Pure
/// observation: computed from `Instant` reads around stages that run
/// identically whether or not anyone looks at the numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTimings {
    /// Admission push → worker pop (time spent queued).
    pub queue_wait_ns: u64,
    /// Worker pop → explain start (batch gather + predecessors in the
    /// same batch).
    pub linger_ns: u64,
    /// Time inside `explain_batch_deadline_stream`.
    pub explain_ns: u64,
    /// Time rendering the JSON body.
    pub serialize_ns: u64,
    /// Which worker ran the job.
    pub worker: u64,
}

/// One job's answer: the response body (or typed error) and where the
/// worker's time went.
pub struct JobReply {
    /// Pre-rendered JSON body on success, typed error otherwise.
    pub result: Result<String, CfxError>,
    /// Worker-side stage decomposition.
    pub timings: WorkerTimings,
}

/// Row budget per flush.
pub const MAX_BATCH_ROWS: usize = 256;

/// How long a worker lingers for batch-mates after its first job.
pub const LINGER: Duration = Duration::from_millis(2);

/// Consumes `queue` until it is closed *and* empty (the drain
/// contract), answering every job exactly once.
fn run(
    queue: &BoundedQueue<ExplainJob>,
    registry: &ModelRegistry,
    index: usize,
    cache: Option<&ResponseCache>,
) {
    let jobs_metric = format!("cfx_serve_worker_jobs_total:w{index}");
    while let Some(first) = queue.pop_wait() {
        let mut batch = vec![(first, Instant::now())];
        let mut rows = batch[0].0.rows.len();
        let flush_by = Instant::now() + LINGER;
        let flush_by = flush_by.min(batch[0].0.deadline);
        while rows < MAX_BATCH_ROWS {
            match queue.pop_until(flush_by) {
                Some(job) => {
                    rows += job.rows.len();
                    batch.push((job, Instant::now()));
                }
                None => break,
            }
        }
        let servable = registry.current();
        counter("cfx_serve_batches_total").inc(1);
        counter("cfx_serve_worker_jobs_total").inc(batch.len() as u64);
        counter(&jobs_metric).inc(batch.len() as u64);
        histogram("cfx_serve_batch_rows", &[1.0, 4.0, 16.0, 64.0, 256.0])
            .observe(rows as f64);
        for (job, picked_at) in batch {
            // Bind the request's trace to this thread: every event the
            // explain ladder emits (rung progression, deadline cuts)
            // lands in the log attributed to this exact request.
            let _trace = job.trace.map(cfx_obs::TraceScope::enter);
            let explain_start = Instant::now();
            let (result, explain_ns, serialize_ns) =
                explain_job(&servable, &job);
            let timings = WorkerTimings {
                queue_wait_ns: picked_at
                    .saturating_duration_since(job.admitted_at)
                    .as_nanos() as u64,
                linger_ns: explain_start
                    .saturating_duration_since(picked_at)
                    .as_nanos() as u64,
                explain_ns,
                serialize_ns,
                worker: index as u64,
            };
            if let (Some(cache), Ok(body)) = (cache, &result) {
                // The worker inserts (not the connection thread): only
                // here is the (body, model version) pairing known
                // race-free, so a swap mid-request can never cache a
                // new-version key against an old-version body.
                cache.insert(
                    CacheKey::new(
                        &job.rows,
                        servable.version,
                        servable.explain_fingerprint(),
                    ),
                    body.clone(),
                );
            }
            // A dead receiver (client gone) is fine; the send result
            // only tells us whether anyone is still listening.
            let _ = job.reply.send(JobReply { result, timings });
        }
    }
}

/// Runs one job against the current snapshot, enforcing its deadline.
/// Returns the result plus `(explain_ns, serialize_ns)` stage timings.
fn explain_job(
    servable: &Servable,
    job: &ExplainJob,
) -> (Result<String, CfxError>, u64, u64) {
    let now = Instant::now();
    if now >= job.deadline {
        // Expired while queued: shed the compute, type the miss.
        counter("cfx_serve_expired_total").inc(1);
        return (
            Err(CfxError::timeout("queued explain", job.deadline_ms)),
            0,
            0,
        );
    }
    let x = Tensor::from_rows(&job.rows);
    let explain_timer = Instant::now();
    let batch = match servable.model.explain_batch_deadline_stream(
        &x,
        &servable.recovery,
        job.deadline - now,
        job.fingerprint,
    ) {
        Ok(b) => b,
        Err(e) => {
            return (Err(e), explain_timer.elapsed().as_nanos() as u64, 0)
        }
    };
    let explain_ns = explain_timer.elapsed().as_nanos() as u64;
    let serialize_timer = Instant::now();
    let body = render_body(servable, &batch.examples);
    let serialize_ns = serialize_timer.elapsed().as_nanos() as u64;
    (Ok(body), explain_ns, serialize_ns)
}

/// Renders the `/explain` response body. Deterministic: floats go
/// through the fixed `write_f64` formatter and no timing or
/// load-dependent fields appear, so the same input rows against the
/// same model version always produce byte-identical bodies.
fn render_body(
    servable: &Servable,
    examples: &[cfx_core::Counterfactual],
) -> String {
    let mut out = String::with_capacity(64 + examples.len() * 128);
    let _ = write!(
        out,
        "{{\"model_version\":{},\"model_source\":",
        servable.version
    );
    cfx_obs::json::write_str(&mut out, &servable.source);
    let _ = write!(out, ",\"count\":{},\"results\":[", examples.len());
    for (i, e) in examples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"cf\":[");
        for (j, v) in e.cf.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_f64(&mut out, *v as f64);
        }
        let _ = write!(
            out,
            "],\"input_class\":{},\"desired_class\":{},\"cf_class\":{},\"valid\":{},\"feasible\":{},\"provenance\":\"{}\"}}",
            e.input_class,
            e.desired_class,
            e.cf_class,
            e.valid,
            e.feasible,
            provenance_tag(e.provenance),
        );
    }
    out.push_str("]}");
    out
}

fn provenance_tag(p: Provenance) -> String {
    match p {
        Provenance::FirstShot => "first_shot".to_string(),
        Provenance::Resampled(n) => format!("resampled:{n}"),
        Provenance::Fallback => "fallback".to_string(),
    }
}

/// Spawns `workers` workers (at least one), all popping `queue`.
pub fn spawn_pool(
    queue: Arc<BoundedQueue<ExplainJob>>,
    workers: usize,
    registry: Arc<ModelRegistry>,
    cache: Option<Arc<ResponseCache>>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..workers.max(1))
        .map(|index| {
            let queue = Arc::clone(&queue);
            let registry = Arc::clone(&registry);
            let cache = cache.clone();
            std::thread::Builder::new()
                .name(format!("cfx-serve-worker-{index}"))
                .spawn(move || run(&queue, &registry, index, cache.as_deref()))
                .expect("spawn explain worker thread")
        })
        .collect()
}
