//! Process-unique request trace ids and a per-thread trace context.
//!
//! A [`TraceId`] is a boot nonce (derived once per process from the
//! wall clock and pid, FNV-mixed) paired with a monotonically
//! increasing sequence number. The nonce makes ids from different
//! processes (or restarts of the same daemon) distinguishable in a
//! merged log; the counter makes allocation a single relaxed
//! `fetch_add` — no RNG state is consumed, so tracing cannot perturb
//! any seeded computation (the crate-wide determinism contract).
//!
//! The *context* half mirrors [`crate::current_span`]: a thread can
//! enter a trace with [`TraceScope::enter`], and every JSONL record
//! written while the scope is open carries `"trace":"<id>"`. The serve
//! daemon sets the scope on the connection thread for the lifetime of
//! one request and on the worker thread around each job, so events
//! emitted deep inside `explain_batch` are attributable to the exact
//! request that triggered them without threading an id through every
//! call signature.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static NEXT_TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT_TRACE: Cell<Option<TraceId>> = const { Cell::new(None) };
}

/// FNV-1a over 8 bytes; local copy so this crate stays dependency-free.
fn fnv_mix(v: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in v.to_le_bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The per-process boot nonce: wall-clock nanos XOR pid, mixed once.
/// Stable for the lifetime of the process, different across restarts.
pub fn boot_nonce() -> u64 {
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        fnv_mix(nanos ^ ((std::process::id() as u64) << 32))
    })
}

/// A process-unique request identifier: boot nonce + sequence number.
///
/// Formats as `{nonce:016x}-{seq:08x}` — fixed-width, lexicographically
/// ordered by allocation within one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId {
    /// The per-process boot nonce ([`boot_nonce`]).
    pub nonce: u64,
    /// Allocation sequence number (1-based, never reused in-process).
    pub seq: u64,
}

impl TraceId {
    /// Allocates the next trace id (one relaxed atomic increment).
    pub fn next() -> TraceId {
        TraceId {
            nonce: boot_nonce(),
            seq: NEXT_TRACE_SEQ.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}-{:08x}", self.nonce, self.seq)
    }
}

/// The trace this thread is currently working on behalf of, if any.
/// JSONL records written while a trace is set carry it as `"trace"`.
pub fn current_trace() -> Option<TraceId> {
    CURRENT_TRACE.with(|c| c.get())
}

/// RAII guard binding a [`TraceId`] to the current thread; restores the
/// previous binding (scopes nest, e.g. a worker processing jobs inside
/// its own housekeeping trace) on drop.
pub struct TraceScope {
    prev: Option<TraceId>,
}

impl TraceScope {
    /// Binds `id` as this thread's current trace until the guard drops.
    pub fn enter(id: TraceId) -> TraceScope {
        let prev = CURRENT_TRACE.with(|c| c.replace(Some(id)));
        TraceScope { prev }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_TRACE.with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_ordered() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_eq!(a.nonce, b.nonce);
        assert!(b.seq > a.seq);
        let s = a.to_string();
        assert_eq!(s.len(), 16 + 1 + 8);
        assert_eq!(&s[16..17], "-");
    }

    #[test]
    fn scope_nests_and_restores() {
        assert_eq!(current_trace(), None);
        let outer = TraceId::next();
        {
            let _s = TraceScope::enter(outer);
            assert_eq!(current_trace(), Some(outer));
            let inner = TraceId::next();
            {
                let _t = TraceScope::enter(inner);
                assert_eq!(current_trace(), Some(inner));
            }
            assert_eq!(current_trace(), Some(outer));
        }
        assert_eq!(current_trace(), None);
    }
}
