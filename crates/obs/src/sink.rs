//! Output sinks: the append-only JSONL event log, the formatted stderr
//! subscriber, and the crash-safe atomic file writer used by the
//! Prometheus snapshot exporter.
//!
//! Writes are batched per thread: each emitting thread accumulates
//! rendered lines in a thread-local buffer and appends the whole batch
//! to the shared file under one mutex acquisition — under a 64-client
//! serve load the per-line lock the first version took was measurable.
//! Batches flush when they reach [`FLUSH_BYTES`], whenever an
//! `info`/`warn` record is written (operator notices stay promptly
//! durable), on [`flush_jsonl`], and — the crash-flush guarantee — from
//! the buffer's `Drop` when its thread exits, including by panic
//! unwind. Lines never interleave (each batch is appended atomically
//! under the lock) but batches from different threads may land out of
//! `mono_ns` order; consumers sort by `mono_ns`, which every record
//! carries. Cheap `AtomicBool`s gate the hot path so instrumented code
//! pays one relaxed load when no sink is open.

use crate::{json, span, trace, FieldValue, SCHEMA_VERSION};
use std::cell::RefCell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Severity of an emitted record. `Trace` goes to JSONL only;
/// `Info`/`Warn` additionally print one formatted stderr line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// High-frequency telemetry (per-epoch, per-batch, per-op).
    Trace,
    /// Operator-facing progress notices.
    Info,
    /// Recoverable anomalies: rollbacks, quarantines, injected faults.
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// Local-buffer size that triggers a batch append to the shared file.
const FLUSH_BYTES: usize = 8 * 1024;

static JSONL: Mutex<Option<BufWriter<File>>> = Mutex::new(None);
static JSONL_ACTIVE: AtomicBool = AtomicBool::new(false);
static STDERR_ACTIVE: AtomicBool = AtomicBool::new(true);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static LOCAL_BUF: RefCell<LocalBuf> =
        RefCell::new(LocalBuf { buf: String::new() });
}

/// Per-thread line batch; `Drop` is the crash-flush: thread exit
/// (normal or panic-unwind) pushes whatever is pending to the file.
struct LocalBuf {
    buf: String,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_buf(&mut self.buf);
    }
}

/// Appends `buf` to the shared file under one lock acquisition.
fn flush_buf(buf: &mut String) {
    if buf.is_empty() {
        return;
    }
    let mut guard = JSONL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(w) = guard.as_mut() {
        let _ = w.write_all(buf.as_bytes());
        let _ = w.flush();
    }
    buf.clear();
}

/// Queues one rendered line on the calling thread's batch, flushing
/// when the batch is full or the record is operator-facing.
fn queue_line(line: &str, urgent: bool) {
    // `try_with` so a record emitted from another thread-local's
    // destructor during thread teardown degrades to a direct write
    // instead of panicking.
    let queued = LOCAL_BUF
        .try_with(|b| {
            let mut local = b.borrow_mut();
            local.buf.push_str(line);
            if urgent || local.buf.len() >= FLUSH_BYTES {
                flush_buf(&mut local.buf);
            }
        })
        .is_ok();
    if !queued {
        let mut owned = line.to_string();
        flush_buf(&mut owned);
    }
}

/// Flushes the calling thread's pending JSONL batch to the file.
/// Other threads' batches flush on their own cadence (size, level,
/// thread exit); a coordinator that has joined its workers and calls
/// this has the complete log on disk.
pub fn flush_jsonl() {
    let _ = LOCAL_BUF.try_with(|b| flush_buf(&mut b.borrow_mut().buf));
}

fn clock_origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local monotonic origin (first call).
/// Shared by all records so a trace file is internally orderable.
pub fn mono_ns() -> u64 {
    clock_origin().elapsed().as_nanos() as u64
}

pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// `true` iff a JSONL sink is open.
#[inline]
pub fn jsonl_active() -> bool {
    JSONL_ACTIVE.load(Ordering::Relaxed)
}

/// `true` iff the stderr subscriber is on.
#[inline]
pub fn stderr_active() -> bool {
    STDERR_ACTIVE.load(Ordering::Relaxed)
}

/// `true` iff `info!`/`warn!` have anywhere to go.
#[inline]
pub fn log_active() -> bool {
    jsonl_active() || stderr_active()
}

/// Turns the formatted stderr subscriber on or off (on by default).
pub fn set_stderr(on: bool) {
    STDERR_ACTIVE.store(on, Ordering::Relaxed);
}

/// Opens (or switches to) an append-mode JSONL sink at `path`,
/// creating parent directories. Anchors the monotonic clock if this is
/// the first telemetry call. The calling thread's pending batch is
/// flushed to the *old* sink first so lines never migrate files.
pub fn init_jsonl(path: &Path) -> io::Result<()> {
    clock_origin();
    flush_jsonl();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    *JSONL.lock().unwrap() = Some(BufWriter::new(file));
    JSONL_ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Flushes (the calling thread's batch, then the writer), fsyncs and
/// closes the JSONL sink (no-op if none is open).
pub fn close_jsonl() {
    flush_jsonl();
    let mut guard = JSONL.lock().unwrap();
    JSONL_ACTIVE.store(false, Ordering::Relaxed);
    if let Some(mut w) = guard.take() {
        let _ = w.flush();
        let _ = w.get_ref().sync_all();
    }
}

/// The `CFX_TRACE` environment variable, read once per process;
/// `None` when unset or empty. The one reader of the variable: the
/// tape profiler arms from it as well as [`init_from_env`].
pub fn trace_env() -> Option<&'static str> {
    static SPEC: OnceLock<Option<String>> = OnceLock::new();
    SPEC.get_or_init(|| std::env::var("CFX_TRACE").ok().filter(|v| !v.is_empty()))
        .as_deref()
}

/// Configures sinks from [`trace_env`]:
///
/// * unset or empty — nothing happens, returns `Ok(false)`;
/// * `1` or `stderr` — tracing requested without a file (the tape
///   profiler arms itself off the same value), returns `Ok(true)`;
/// * anything else — treated as a JSONL output path, returns `Ok(true)`.
pub fn init_from_env() -> io::Result<bool> {
    let Some(spec) = trace_env() else {
        return Ok(false);
    };
    if spec != "1" && spec != "stderr" {
        init_jsonl(Path::new(spec))?;
    }
    Ok(true)
}

/// Emits one structured record. Prefer the [`crate::event!`],
/// [`crate::info!`] and [`crate::warn!`] macros, which gate field
/// evaluation on an active sink.
pub fn emit_event(name: &str, level: Level, fields: &[(&str, FieldValue)]) {
    write_record("event", name, level, span::current_span(), None, None, fields);
    if level != Level::Trace && stderr_active() {
        let mut line = String::with_capacity(96);
        line.push_str("cfx[");
        line.push_str(level.as_str());
        line.push_str("] ");
        line.push_str(name);
        for (key, value) in fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            match value {
                FieldValue::U64(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{v}"));
                }
                FieldValue::I64(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{v}"));
                }
                FieldValue::F64(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{v}"));
                }
                FieldValue::Bool(v) => {
                    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{v}"));
                }
                FieldValue::Str(s) => {
                    if s.contains([' ', '"', '\n']) {
                        json::write_str(&mut line, s);
                    } else {
                        line.push_str(s);
                    }
                }
            }
        }
        line.push('\n');
        let _ = io::stderr().lock().write_all(line.as_bytes());
    }
}

/// Emits one `stage` record: a named slice of a request's lifecycle
/// (parse, queue wait, explain, …) with its duration. The record
/// carries the thread's current trace id ([`crate::trace`]) — callers
/// bind a [`crate::trace::TraceScope`] first, so stages are
/// attributable to exactly one request.
pub fn emit_stage(name: &str, dur_ns: u64, fields: &[(&str, FieldValue)]) {
    if !jsonl_active() {
        return;
    }
    write_record("stage", name, Level::Trace, None, None, Some(dur_ns), fields);
}

/// Emits one `request` record: the terminal access-log line of a traced
/// request, carrying its outcome and per-stage timing fields. Exactly
/// one per trace id.
pub fn emit_request(name: &str, fields: &[(&str, FieldValue)]) {
    if !jsonl_active() {
        return;
    }
    write_record("request", name, Level::Trace, None, None, None, fields);
}

pub(crate) fn emit_span_enter(
    id: u64,
    parent: Option<u64>,
    name: &str,
    fields: &[(&str, FieldValue)],
) {
    write_record("span_enter", name, Level::Trace, Some(id), parent, None, fields);
}

pub(crate) fn emit_span_exit(id: u64, name: &str, dur_ns: u64) {
    write_record("span_exit", name, Level::Trace, Some(id), None, Some(dur_ns), &[]);
}

fn write_record(
    kind: &str,
    name: &str,
    level: Level,
    span: Option<u64>,
    parent: Option<u64>,
    dur_ns: Option<u64>,
    fields: &[(&str, FieldValue)],
) {
    use std::fmt::Write as _;
    if !JSONL_ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let mut line = String::with_capacity(160);
    let _ = write!(line, "{{\"schema_version\":{SCHEMA_VERSION},\"kind\":\"{kind}\",\"name\":");
    json::write_str(&mut line, name);
    let _ = write!(line, ",\"mono_ns\":{},\"thread\":{}", mono_ns(), thread_id());
    if let Some(t) = trace::current_trace() {
        let _ = write!(line, ",\"trace\":\"{t}\"");
    }
    if level != Level::Trace {
        let _ = write!(line, ",\"level\":\"{}\"", level.as_str());
    }
    if let Some(id) = span {
        let _ = write!(line, ",\"span\":{id}");
    }
    if let Some(id) = parent {
        let _ = write!(line, ",\"parent\":{id}");
    }
    if let Some(ns) = dur_ns {
        let _ = write!(line, ",\"dur_ns\":{ns}");
    }
    line.push_str(",\"fields\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        json::write_str(&mut line, key);
        line.push(':');
        match value {
            FieldValue::U64(v) => {
                let _ = write!(line, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(line, "{v}");
            }
            FieldValue::F64(v) => json::write_f64(&mut line, *v),
            FieldValue::Bool(v) => {
                let _ = write!(line, "{v}");
            }
            FieldValue::Str(s) => json::write_str(&mut line, s),
        }
    }
    line.push_str("}}\n");
    queue_line(&line, level != Level::Trace);
}

/// Prints a preformatted multi-line block (e.g. the end-of-run profile
/// report) to stderr, respecting the subscriber on/off switch.
pub fn stderr_block(text: &str) {
    if !stderr_active() {
        return;
    }
    let _ = io::stderr().lock().write_all(text.as_bytes());
}

/// Crash-consistent whole-file write: temp sibling → fsync → rename →
/// parent-dir fsync. The workspace's one atomic file write: `cfx-obs`
/// sits below every other crate, so checkpoints use it too.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => PathBuf::from(p),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&parent)?;
    let stem = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = parent.join(format!(".{stem}.tmp-{}", std::process::id()));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Ok(dir) = File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}
