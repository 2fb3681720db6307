//! Zero-dependency structured telemetry for the cfx workspace.
//!
//! Three concerns, one crate:
//!
//! * **Events and spans** — [`event!`] emits a structured record,
//!   [`span!`] brackets a region with enter/exit records carrying a
//!   monotonic duration and a parent link, so traces reconstruct the
//!   call hierarchy (`fit` → `fit_epoch` → …).
//! * **Metrics** — typed [`metrics::Counter`]/[`metrics::Gauge`]/
//!   [`metrics::Histogram`] handles in a global registry, exported as a
//!   Prometheus text-format snapshot.
//! * **Sinks** — an append-only JSONL event log (one schema-versioned
//!   object per line, batched per thread and appended under one lock
//!   per batch, with crash-flush on thread exit) and a formatted stderr
//!   subscriber for [`info!`]/[`warn!`] notices. The Prometheus
//!   snapshot is written crash-safely (temp sibling → fsync → rename →
//!   parent-dir fsync, the same discipline as `cfx_tensor::checkpoint`).
//!
//! # Determinism contract
//!
//! Telemetry must never perturb numeric results. Nothing in this crate
//! consumes RNG state, reorders floating-point work, or feeds back into
//! the computation: instrumentation only *reads* values and timestamps
//! them. Weights are bitwise identical with telemetry on and off
//! (pinned by `tests/obs_prop.rs`).
//!
//! # Cost when off
//!
//! Telemetry is always compiled in and switched at run time: by
//! `CFX_TRACE` ([`init_from_env`]), [`init_jsonl`] and [`set_stderr`].
//! With no sink open, every macro costs at most two relaxed atomic
//! loads and evaluates none of its field expressions. Metrics are
//! always recorded.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
mod sink;
pub mod sketch;
mod span;
pub mod trace;

pub use sink::{
    close_jsonl, emit_event, emit_request, emit_stage, flush_jsonl, init_from_env, init_jsonl,
    jsonl_active, log_active, mono_ns, set_stderr, stderr_active, stderr_block, trace_env,
    write_atomic, Level,
};
pub use span::{current_span, SpanGuard};
pub use trace::{current_trace, TraceId, TraceScope};

/// Version stamped on every JSONL line as `"schema_version"`. Bump on
/// any backwards-incompatible change to the line layout.
///
/// v2 (request tracing): records may carry an optional `"trace"` field
/// (a [`trace::TraceId`] in `{nonce:016x}-{seq:08x}` form), and two new
/// kinds join `event`/`span_enter`/`span_exit`: `stage` (one named,
/// timed slice of a request's lifecycle) and `request` (the terminal
/// per-request access-log record with outcome and stage-timing fields).
pub const SCHEMA_VERSION: u64 = 2;

/// A typed value attached to an event or span field.
///
/// Constructed implicitly by the emission macros via `From`; integers
/// widen losslessly, `f32` widens to `f64`, strings are owned.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, indices, nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values serialize as JSON `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Owned string (names, messages, paths).
    Str(String),
}

macro_rules! impl_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
impl_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Emits a trace-level structured event to the JSONL sink (if open).
///
/// ```
/// cfx_obs::event!("fit_epoch", epoch = 3u64, total = 0.25f32);
/// ```
///
/// Field expressions are evaluated only when a JSONL sink is active, so
/// high-frequency call sites cost one atomic load when tracing is off.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::jsonl_active() {
            $crate::emit_event(
                $name,
                $crate::Level::Trace,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    };
}

/// Emits an info-level notice: JSONL (if open) plus one formatted line
/// on stderr through the shared subscriber (unless silenced with
/// [`set_stderr`]). The one-for-one replacement for ad-hoc `eprintln!`.
#[macro_export]
macro_rules! info {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::log_active() {
            $crate::emit_event(
                $name,
                $crate::Level::Info,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    };
}

/// Emits a warning-level notice: JSONL (if open) plus one formatted
/// line on stderr through the shared subscriber.
#[macro_export]
macro_rules! warn {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::log_active() {
            $crate::emit_event(
                $name,
                $crate::Level::Warn,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            );
        }
    };
}

/// Opens a hierarchical span; the returned [`SpanGuard`] emits a
/// `span_enter` record now and a `span_exit` record (with `dur_ns`)
/// when dropped. Spans nest per thread; events emitted inside carry the
/// innermost span id.
///
/// ```
/// let _span = cfx_obs::span!("fit", epochs = 30u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::jsonl_active() {
            $crate::SpanGuard::enter(
                $name,
                &[$((stringify!($key), $crate::FieldValue::from($val))),*],
            )
        } else {
            $crate::SpanGuard::inert()
        }
    };
}
