//! Op-level tape profiler: wall-clock time and invocation counts per
//! [`OpKind`], for both forward construction and the backward sweep.
//!
//! Armed by `CFX_TRACE` (any non-empty value, read through
//! [`cfx_obs::trace_env`]) or [`set_enabled`]. Timing is recorded into
//! thread-local slots (no synchronization on the hot path) which are
//! flushed into a process-global table whenever a tape is reset — the
//! natural once-per-training-step point — or a [`snapshot`] is taken.
//!
//! The profiler only *times* op construction; it never adds, removes or
//! reorders tape nodes, so fault-injection op indices (`CFX_FAULT`) and
//! all numeric results are unchanged whether it is armed or not.
//! Disarmed, [`op_start`] returns `None` and nothing is recorded.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

/// Profiling category of a tape op. Fused ops get their own kinds
/// (`Affine` vs `AffineRelu`) so fusion wins stay visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // the variants mirror `graph::Op` one-to-one
pub enum OpKind {
    Leaf = 0,
    Matmul,
    Add,
    AddRow,
    Sub,
    Mul,
    Div,
    Neg,
    Scale,
    AddScalar,
    Relu,
    Sigmoid,
    Tanh,
    Softplus,
    Exp,
    Abs,
    Square,
    Dropout,
    ConcatCols,
    SliceCols,
    Sum,
    Mean,
    BceWithLogits,
    Hinge,
    SigmoidBce,
    Affine,
    AffineRelu,
}

impl OpKind {
    /// Number of distinct kinds (table size).
    pub const COUNT: usize = 27;

    /// Stable snake_case name, used in reports and metric names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Leaf => "leaf",
            OpKind::Matmul => "matmul",
            OpKind::Add => "add",
            OpKind::AddRow => "add_row",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Neg => "neg",
            OpKind::Scale => "scale",
            OpKind::AddScalar => "add_scalar",
            OpKind::Relu => "relu",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::Softplus => "softplus",
            OpKind::Exp => "exp",
            OpKind::Abs => "abs",
            OpKind::Square => "square",
            OpKind::Dropout => "dropout",
            OpKind::ConcatCols => "concat_cols",
            OpKind::SliceCols => "slice_cols",
            OpKind::Sum => "sum",
            OpKind::Mean => "mean",
            OpKind::BceWithLogits => "bce_with_logits",
            OpKind::Hinge => "hinge",
            OpKind::SigmoidBce => "sigmoid_bce",
            OpKind::Affine => "affine",
            OpKind::AffineRelu => "affine_relu",
        }
    }

    fn from_index(i: usize) -> OpKind {
        const ALL: [OpKind; OpKind::COUNT] = [
            OpKind::Leaf,
            OpKind::Matmul,
            OpKind::Add,
            OpKind::AddRow,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Neg,
            OpKind::Scale,
            OpKind::AddScalar,
            OpKind::Relu,
            OpKind::Sigmoid,
            OpKind::Tanh,
            OpKind::Softplus,
            OpKind::Exp,
            OpKind::Abs,
            OpKind::Square,
            OpKind::Dropout,
            OpKind::ConcatCols,
            OpKind::SliceCols,
            OpKind::Sum,
            OpKind::Mean,
            OpKind::BceWithLogits,
            OpKind::Hinge,
            OpKind::SigmoidBce,
            OpKind::Affine,
            OpKind::AffineRelu,
        ];
        ALL[i]
    }
}

static PROFILING: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

/// Whether the profiler is currently armed. The first call arms it
/// when `CFX_TRACE` is set ([`cfx_obs::trace_env`]); [`set_enabled`]
/// overrides.
#[inline]
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        if cfx_obs::trace_env().is_some() {
            PROFILING.store(true, Ordering::Relaxed);
        }
    });
    PROFILING.load(Ordering::Relaxed)
}

/// Arms or disarms the profiler programmatically (e.g. from the bench
/// harness on `--trace-out`).
pub fn set_enabled(on: bool) {
    let _ = enabled(); // settle the env default first so it can't override
    PROFILING.store(on, Ordering::Relaxed);
}

/// A pending forward timing: the start instant, `None` when disarmed.
pub type OpTimer = Option<Instant>;

/// Starts timing one op construction; `None` when disarmed.
#[inline]
pub fn op_start() -> OpTimer {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    fwd_calls: u64,
    fwd_ns: u64,
    fwd_flops: u64,
    bwd_calls: u64,
    bwd_ns: u64,
    bwd_flops: u64,
}

const ZERO_SLOT: Slot =
    Slot { fwd_calls: 0, fwd_ns: 0, fwd_flops: 0, bwd_calls: 0, bwd_ns: 0, bwd_flops: 0 };

thread_local! {
    static LOCAL: RefCell<[Slot; OpKind::COUNT]> =
        const { RefCell::new([ZERO_SLOT; OpKind::COUNT]) };
}

static GLOBAL: Mutex<[Slot; OpKind::COUNT]> =
    Mutex::new([ZERO_SLOT; OpKind::COUNT]);

/// Credits a finished forward compute to `kind`.
#[inline]
pub fn record_forward(kind: OpKind, t: OpTimer) {
    record_forward_flops(kind, t, 0);
}

/// Like [`record_forward`], also crediting a FLOP count so the report
/// and metrics can show achieved GFLOP/s for compute-bound kernels.
#[inline]
pub fn record_forward_flops(kind: OpKind, t: OpTimer, flops: u64) {
    if let Some(t0) = t {
        let ns = t0.elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut slots = l.borrow_mut();
            let slot = &mut slots[kind as usize];
            slot.fwd_calls += 1;
            slot.fwd_ns += ns;
            slot.fwd_flops += flops;
        });
    }
}

/// Credits one backward-sweep iteration to `kind`.
#[inline]
pub fn record_backward(kind: OpKind, t: OpTimer) {
    record_backward_flops(kind, t, 0);
}

/// Like [`record_backward`], also crediting a FLOP count.
#[inline]
pub fn record_backward_flops(kind: OpKind, t: OpTimer, flops: u64) {
    if let Some(t0) = t {
        let ns = t0.elapsed().as_nanos() as u64;
        LOCAL.with(|l| {
            let mut slots = l.borrow_mut();
            let slot = &mut slots[kind as usize];
            slot.bwd_calls += 1;
            slot.bwd_ns += ns;
            slot.bwd_flops += flops;
        });
    }
}

/// Merges this thread's slots into the global table. Called from
/// `Tape::reset` (once per training step) and from [`snapshot`]; cheap
/// enough to call freely, a no-op when disarmed.
pub fn flush_thread() {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        let has_data = local
            .iter()
            .any(|s| s.fwd_calls != 0 || s.bwd_calls != 0);
        if !has_data {
            return;
        }
        let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        for (g, s) in global.iter_mut().zip(local.iter_mut()) {
            g.fwd_calls += s.fwd_calls;
            g.fwd_ns += s.fwd_ns;
            g.fwd_flops += s.fwd_flops;
            g.bwd_calls += s.bwd_calls;
            g.bwd_ns += s.bwd_ns;
            g.bwd_flops += s.bwd_flops;
            *s = Slot::default();
        }
    });
}

/// Zeroes the global table and this thread's slots.
pub fn reset() {
    LOCAL.with(|l| *l.borrow_mut() = [Slot::default(); OpKind::COUNT]);
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    *global = [Slot::default(); OpKind::COUNT];
}

/// Aggregated timings for one op kind.
#[derive(Debug, Clone, Copy)]
pub struct OpProfile {
    /// Which op.
    pub kind: OpKind,
    /// Forward constructions recorded.
    pub fwd_calls: u64,
    /// Nanoseconds spent in forward compute.
    pub fwd_ns: u64,
    /// FLOPs credited to forward compute (0 for un-annotated ops).
    pub fwd_flops: u64,
    /// Backward-sweep iterations recorded.
    pub bwd_calls: u64,
    /// Nanoseconds spent in backward rules.
    pub bwd_ns: u64,
    /// FLOPs credited to backward rules (0 for un-annotated ops).
    pub bwd_flops: u64,
}

impl OpProfile {
    /// Forward + backward self time.
    pub fn total_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns
    }

    /// Forward + backward credited FLOPs.
    pub fn total_flops(&self) -> u64 {
        self.fwd_flops + self.bwd_flops
    }

    /// Achieved GFLOP/s over forward + backward self time, or `None`
    /// when the op carries no FLOP annotation (element-wise ops).
    pub fn gflops(&self) -> Option<f64> {
        if self.total_flops() == 0 || self.total_ns() == 0 {
            return None;
        }
        // flops / ns ≡ GFLOP/s.
        Some(self.total_flops() as f64 / self.total_ns() as f64)
    }
}

/// Flushes the calling thread and returns all op kinds with any
/// recorded activity, sorted by total self time, descending. Note
/// worker threads flush on their own tape resets; a snapshot taken
/// mid-step may lag them by one step.
pub fn snapshot() -> Vec<OpProfile> {
    flush_thread();
    let global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<OpProfile> = global
        .iter()
        .enumerate()
        .filter(|(_, s)| s.fwd_calls != 0 || s.bwd_calls != 0)
        .map(|(i, s)| OpProfile {
            kind: OpKind::from_index(i),
            fwd_calls: s.fwd_calls,
            fwd_ns: s.fwd_ns,
            fwd_flops: s.fwd_flops,
            bwd_calls: s.bwd_calls,
            bwd_ns: s.bwd_ns,
            bwd_flops: s.bwd_flops,
        })
        .collect();
    out.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()));
    out
}

/// Renders a human-readable top-`top_n` table of ops by self time (the
/// end-of-run report the bench bins print). Empty string when nothing
/// was recorded.
pub fn report(top_n: usize) -> String {
    use std::fmt::Write as _;
    let profiles = snapshot();
    if profiles.is_empty() {
        return String::new();
    }
    let grand_total: u64 = profiles.iter().map(|p| p.total_ns()).sum();
    let shown = profiles.len().min(top_n);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tape profile (top {shown} of {} op kinds by self time)",
        profiles.len()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>11} {:>11} {:>11} {:>6} {:>8}",
        "op", "calls", "fwd_ms", "bwd_ms", "total_ms", "%", "gflops"
    );
    for p in profiles.iter().take(top_n) {
        let gflops = match p.gflops() {
            Some(g) => format!("{g:>8.2}"),
            None => format!("{:>8}", "-"),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>11.2} {:>11.2} {:>11.2} {:>6.1} {gflops}",
            p.kind.name(),
            p.fwd_calls,
            p.fwd_ns as f64 / 1e6,
            p.bwd_ns as f64 / 1e6,
            p.total_ns() as f64 / 1e6,
            100.0 * p.total_ns() as f64 / grand_total.max(1) as f64,
        );
    }
    out
}

/// Exports the profile table plus pool, threading, and kernel-dispatch
/// stats as Prometheus metrics (`cfx_op_*`, `cfx_pool_*`, `cfx_threads`,
/// `cfx_dispatch_{serial,parallel}_total`).
pub fn export_metrics() {
    for p in snapshot() {
        let name = p.kind.name();
        cfx_obs::metrics::gauge(&format!("cfx_op_{name}_calls")).set(p.fwd_calls as f64);
        cfx_obs::metrics::gauge(&format!("cfx_op_{name}_fwd_ns")).set(p.fwd_ns as f64);
        cfx_obs::metrics::gauge(&format!("cfx_op_{name}_bwd_ns")).set(p.bwd_ns as f64);
        if let Some(g) = p.gflops() {
            cfx_obs::metrics::gauge(&format!("cfx_op_{name}_gflops")).set(g);
        }
    }
    // The dispatcher counts decisions in plain process-wide atomics
    // (the hot path must not take the metrics-registry lock); sync
    // the exported counters up to the live totals here.
    let (serial, parallel) = crate::runtime::dispatch_counts();
    let c = cfx_obs::metrics::counter("cfx_dispatch_serial_total");
    c.inc(serial.saturating_sub(c.get()));
    let c = cfx_obs::metrics::counter("cfx_dispatch_parallel_total");
    c.inc(parallel.saturating_sub(c.get()));
    let pool = crate::pool::stats();
    cfx_obs::metrics::gauge("cfx_pool_hits").set(pool.hits as f64);
    cfx_obs::metrics::gauge("cfx_pool_misses").set(pool.misses as f64);
    cfx_obs::metrics::gauge("cfx_pool_live_bytes").set(pool.live_bytes as f64);
    cfx_obs::metrics::gauge("cfx_pool_peak_bytes").set(pool.peak_bytes as f64);
    cfx_obs::metrics::gauge("cfx_threads").set(crate::runtime::max_threads() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_when_armed_only() {
        // Serialize against other profiler users in this binary.
        reset();
        set_enabled(false);
        record_forward(OpKind::Matmul, op_start());
        assert!(snapshot().is_empty());

        set_enabled(true);
        record_forward_flops(OpKind::Matmul, op_start(), 1_000_000);
        record_backward_flops(OpKind::Matmul, op_start(), 500_000);
        record_forward(OpKind::Add, op_start());
        let snap = snapshot();
        set_enabled(false);
        let mm = snap.iter().find(|p| p.kind == OpKind::Matmul).unwrap();
        assert_eq!(mm.fwd_calls, 1);
        assert_eq!(mm.bwd_calls, 1);
        assert_eq!(mm.total_flops(), 1_500_000);
        assert!(mm.gflops().unwrap() > 0.0);
        let add = snap.iter().find(|p| p.kind == OpKind::Add).unwrap();
        assert_eq!(add.gflops(), None, "un-annotated ops show no rate");
        let text = report(5);
        assert!(text.contains("matmul"), "{text}");
        assert!(text.contains("gflops"), "{text}");
        reset();
    }
}
