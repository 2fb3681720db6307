//! Shape-keyed tensor buffer pool — the allocator behind zero-churn
//! training.
//!
//! Every forward value, gradient, and op context tensor a [`Tape`]
//! materialises is drawn from a thread-local pool of `Vec<f32>` free
//! lists keyed by **element count** (shape-keyed: a 4×5 and a 2×10
//! buffer share a free list because only the length matters for
//! reuse). [`Tape::reset`](crate::Tape::reset) returns every buffer,
//! so a steady-state training epoch — same batch shapes step after
//! step — runs at zero heap allocations: each `take` is a hit against
//! a buffer recycled from the previous step.
//!
//! # Why thread-local
//!
//! The determinism contract in [`guard`](crate::guard) already pins
//! tape construction to the thread driving the training loop; worker
//! threads spawned by [`runtime`](crate::runtime) only run
//! data-parallel kernels over `&mut [f32]` chunks and never allocate
//! tensors. A thread-local pool therefore needs no locks, and buffers
//! handed to `parallel_chunks_mut` are plain slices — the pool is
//! invisible to the parallel layer.
//!
//! # Stats
//!
//! [`stats`] reports hits, misses, bytes currently cached in the free
//! lists (`live_bytes`), and the high-water mark (`peak_bytes`). The
//! steady-state regression test asserts a warmed-up train step
//! performs **zero misses**; the `table4` bin appends the counters to
//! `$BENCH_JSON` so allocation behaviour is recorded alongside timings.
//!
//! [`Tape`]: crate::Tape

use std::cell::RefCell;
use std::collections::HashMap;

/// Snapshot of the calling thread's pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from a free list (no heap allocation).
    pub hits: u64,
    /// `take` calls that had to fall back to the heap allocator.
    pub misses: u64,
    /// Bytes currently cached in the free lists, ready for reuse.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` over the thread's lifetime.
    pub peak_bytes: u64,
}

#[derive(Default)]
struct PoolInner {
    /// Free lists keyed by buffer element count.
    free: HashMap<usize, Vec<Vec<f32>>>,
    stats: PoolStats,
}

thread_local! {
    static POOL: RefCell<PoolInner> = RefCell::new(PoolInner::default());
}

fn bytes(len: usize) -> u64 {
    (len * std::mem::size_of::<f32>()) as u64
}

/// Takes a buffer of exactly `len` elements with **unspecified
/// contents** — the caller must overwrite every element before
/// reading any. Misses allocate a zeroed buffer from the heap.
pub fn take_buf(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let recycled = p.free.get_mut(&len).and_then(Vec::pop);
        if recycled.is_some() {
            p.stats.hits += 1;
            p.stats.live_bytes -= bytes(len);
        } else {
            p.stats.misses += 1;
        }
        recycled.unwrap_or_else(|| vec![0.0; len])
    })
}

/// Takes a buffer of exactly `len` elements, zero-filled — bitwise
/// identical to a fresh `vec![0.0; len]`.
pub fn take_zeroed_buf(len: usize) -> Vec<f32> {
    let mut buf = take_buf(len);
    buf.iter_mut().for_each(|x| *x = 0.0);
    buf
}

/// Returns a buffer to the calling thread's free list. Accepts any
/// `Vec<f32>` regardless of where it was allocated, so externally
/// built tensors (leaf inputs, masks) enter the cycle too.
pub fn give_buf(buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.live_bytes += bytes(len);
        p.stats.peak_bytes = p.stats.peak_bytes.max(p.stats.live_bytes);
        p.free.entry(len).or_default().push(buf);
    });
}

/// Counters for the calling thread's pool.
pub fn stats() -> PoolStats {
    POOL.with(|p| p.borrow().stats)
}

/// Resets hit/miss counters (keeps `live_bytes` accurate for the
/// buffers still cached). Used by the steady-state regression test to
/// isolate one train step.
pub fn reset_stats() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.stats.hits = 0;
        p.stats.misses = 0;
    });
}

/// Drops every cached buffer and zeroes all counters — a cold pool,
/// as if the thread had just started.
pub fn clear() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.free.clear();
        p.stats = PoolStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_same_allocation() {
        clear();
        let mut a = take_buf(17);
        a.iter_mut().for_each(|x| *x = 3.0);
        let ptr = a.as_ptr();
        give_buf(a);
        let b = take_buf(17);
        assert_eq!(b.as_ptr(), ptr, "free list must hand back the cached buffer");
        assert_eq!(b.len(), 17);
        give_buf(b);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        clear();
        let mut a = take_buf(8);
        a.iter_mut().for_each(|x| *x = f32::NAN);
        give_buf(a);
        let b = take_zeroed_buf(8);
        assert!(b.iter().all(|&x| x == 0.0));
        give_buf(b);
    }

    #[test]
    fn zero_len_buffers_bypass_the_pool() {
        clear();
        give_buf(Vec::new());
        assert_eq!(take_buf(0).len(), 0);
        assert_eq!(stats().live_bytes, 0);
    }

    #[test]
    fn stats_track_hits_misses_and_bytes() {
        clear();
        let a = take_buf(10); // miss
        let b = take_buf(10); // miss
        give_buf(a);
        give_buf(b);
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 2));
        assert_eq!(s.live_bytes, 80);
        assert_eq!(s.peak_bytes, 80);

        let c = take_buf(10); // hit
        let s = stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.live_bytes, 40);
        assert_eq!(s.peak_bytes, 80, "peak must not shrink on take");
        give_buf(c);

        reset_stats();
        let s = stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(s.live_bytes, 80, "reset_stats keeps live accounting");
    }
}
