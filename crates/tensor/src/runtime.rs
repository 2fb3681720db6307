//! Workspace-wide threading runtime.
//!
//! Every parallel code path in the workspace sizes itself through this
//! module, so one environment variable controls them all:
//!
//! * `CFX_THREADS=n` caps the worker count (`1` forces exact serial
//!   execution everywhere);
//! * unset, the runtime uses [`std::thread::available_parallelism`];
//! * [`with_threads`] overrides the count for one call on one thread.
//!
//! Workers are plain [`std::thread::scope`] threads — the environment this
//! workspace builds in has no registry access, so a `rayon` dependency is
//! not an option and the helpers here provide the two shapes the kernels
//! need: mutable chunk splitting ([`parallel_chunks_mut`]) and an indexed
//! work queue ([`parallel_map`]).
//!
//! # Determinism contract
//!
//! Parallelism never changes results. Kernels split *output* ranges across
//! threads and keep every per-element accumulation in its serial order, so
//! a run with `CFX_THREADS=8` is bitwise identical to `CFX_THREADS=1`
//! (property-tested in `tests/parallel_prop.rs` at the workspace root).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

static MAX_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// FLOPs a kernel call must offer **per worker** before the dispatcher
/// spawns threads for it. At the ~20 GFLOP/s the register-tiled
/// microkernels sustain on one core, this is ≈200 µs of work per
/// worker — an order of magnitude above scoped-thread spawn+join cost,
/// so parallelism only kicks in where it can actually win.
pub const DEFAULT_PAR_THRESHOLD: u64 = 4_000_000;

static HW_THREADS: OnceLock<usize> = OnceLock::new();
static DISPATCH_SERIAL: AtomicU64 = AtomicU64::new(0);
static DISPATCH_PARALLEL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THRESHOLD_OVERRIDE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The process-wide worker cap: `CFX_THREADS` if set to a positive number,
/// otherwise the machine's available parallelism.
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| match std::env::var("CFX_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                cfx_obs::warn!(
                    "cfx_threads_invalid",
                    value = v.as_str(),
                    fallback = "available_parallelism",
                );
                available()
            }
        },
        Err(_) => available(),
    })
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine's actual core count (cached `available_parallelism`),
/// independent of `CFX_THREADS`. The cost-aware dispatcher never spawns
/// more workers than this: oversubscribing a compute-bound kernel can
/// only add scheduling overhead, never speed.
pub fn hw_threads() -> usize {
    *HW_THREADS.get_or_init(available)
}

/// The FLOP threshold the cost-aware dispatcher uses on this thread:
/// the innermost [`with_par_threshold`] override, else
/// [`DEFAULT_PAR_THRESHOLD`].
///
/// A threshold of `0` means "always parallel": the dispatcher spawns
/// [`current_threads`] workers regardless of work size or core count.
/// That is never a performance win — it exists so tests can force the
/// parallel split paths on machines where the dispatcher would
/// otherwise (correctly) stay serial.
pub fn par_threshold() -> u64 {
    THRESHOLD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or(DEFAULT_PAR_THRESHOLD)
}

/// Runs `f` with this thread's dispatch threshold pinned to `t`
/// (thread-local, restored afterwards even on panic — the same
/// discipline as [`with_threads`]). `0` forces the parallel path.
pub fn with_par_threshold<T>(t: u64, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THRESHOLD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore =
        Restore(THRESHOLD_OVERRIDE.with(|o| o.replace(Some(t))));
    f()
}

/// `(serial, parallel)` decision counts made by [`dispatch_rows`] since
/// process start. Exported as the `cfx_dispatch_{serial,parallel}_total`
/// metrics by `profile::export_metrics`.
pub fn dispatch_counts() -> (u64, u64) {
    (
        DISPATCH_SERIAL.load(Ordering::Relaxed),
        DISPATCH_PARALLEL.load(Ordering::Relaxed),
    )
}

/// Cost-aware splitting of `data` into per-thread runs of whole
/// `unit`-sized blocks: the kernel's entry point for "maybe parallel".
///
/// `flops` is the caller's estimate of total floating-point work. The
/// dispatcher stays serial (calls `f(0, data)` inline) unless the call
/// offers at least [`par_threshold`] FLOPs *per worker*, and it never
/// uses more workers than [`hw_threads`] — `CFX_THREADS=4` on a 1-core
/// box runs serial rather than measuring scheduling overhead. Above the
/// threshold, rows are handed out in contiguous cache-friendly blocks
/// via [`parallel_chunks_mut`], sized so every worker clears the
/// threshold.
///
/// Like every helper here, the split never changes accumulation order
/// within a unit, so results are bitwise identical to the serial path.
pub fn dispatch_rows<T, F>(data: &mut [T], unit: usize, flops: u64, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threshold = par_threshold();
    let threads = if threshold == 0 {
        current_threads()
    } else {
        let budget = (flops / threshold) as usize;
        current_threads().min(hw_threads()).min(budget)
    };
    let units = if unit > 0 { data.len() / unit } else { 0 };
    if threads <= 1 || units <= 1 {
        DISPATCH_SERIAL.fetch_add(1, Ordering::Relaxed);
        f(0, data);
        return;
    }
    DISPATCH_PARALLEL.fetch_add(1, Ordering::Relaxed);
    with_threads(threads.min(units), || {
        parallel_chunks_mut(data, unit, 1, f)
    });
}

/// The worker count parallel helpers use on this thread right now:
/// the innermost [`with_threads`] override, or [`max_threads`].
pub fn current_threads() -> usize {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(max_threads)
}

/// Runs `f` with this thread's worker count pinned to `n` (min 1).
///
/// The override is thread-local and restored afterwards even on panic.
/// Worker threads spawned by the helpers below do **not** inherit it —
/// which is exactly what a coarse-grained caller wants: the concurrent
/// Table IV harness pins each row's worker to one thread so row-level
/// parallelism is not multiplied by kernel-level parallelism.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Splits `data` into per-thread runs of whole `unit`-sized blocks and
/// calls `f(first_unit_index, chunk)` on each, concurrently.
///
/// `min_units_per_thread` keeps tiny inputs serial: no thread is spawned
/// unless every worker gets at least that many units. With one effective
/// thread, `f(0, data)` runs inline — the serial path is the parallel path.
///
/// # Panics
/// Panics if `unit` is zero or does not divide `data.len()`.
pub fn parallel_chunks_mut<T, F>(
    data: &mut [T],
    unit: usize,
    min_units_per_thread: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "parallel_chunks_mut: unit must be positive");
    assert_eq!(
        data.len() % unit,
        0,
        "parallel_chunks_mut: {} values are not whole {unit}-sized units",
        data.len()
    );
    let units = data.len() / unit;
    let threads = current_threads()
        .min(units / min_units_per_thread.max(1))
        .max(1);
    if threads <= 1 || units <= 1 {
        f(0, data);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = data;
        let mut start = 0;
        for t in 0..threads {
            let take = (units - start).div_ceil(threads - t);
            let (chunk, tail) = rest.split_at_mut(take * unit);
            rest = tail;
            if t + 1 == threads {
                // The caller's thread handles the final chunk instead of
                // idling at the join point.
                f(start, chunk);
            } else {
                let f = &f;
                s.spawn(move || f(start, chunk));
            }
            start += take;
        }
    });
}

/// Computes `f(0), f(1), …, f(n - 1)` on a pool of worker threads and
/// returns the results in index order.
///
/// Indices are handed out through an atomic queue, so heterogeneous work
/// (the Table IV rows range from seconds to minutes) balances itself.
/// `min_per_thread` keeps small `n` serial, and with one effective thread
/// the helper is a plain sequential map.
pub fn parallel_map<T, F>(n: usize, min_per_thread: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = current_threads()
        .min(n / min_per_thread.max(1))
        .max(1);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> =
            (1..threads).map(|_| s.spawn(drain)).collect();
        for (i, v) in handles
            .into_iter()
            .flat_map(|h| h.join().expect("cfx worker thread panicked"))
            .chain(drain())
        {
            slots[i] = Some(v);
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("parallel_map: worker skipped an index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        let inner = with_threads(3, current_threads);
        assert_eq!(inner, 3);
        assert_eq!(current_threads(), outer);
        // Restored even when the body panics.
        let caught = std::panic::catch_unwind(|| {
            with_threads(2, || panic!("boom"))
        });
        assert!(caught.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for threads in [1, 2, 5] {
            let out = with_threads(threads, || {
                parallel_map(23, 1, |i| i * i)
            });
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_stays_serial_below_min_per_thread() {
        // 4 items at min 8 per thread must not spawn; verify by checking
        // every call runs on the caller's thread.
        let caller = std::thread::current().id();
        with_threads(8, || {
            parallel_map(4, 8, |_| {
                assert_eq!(std::thread::current().id(), caller);
            })
        });
    }

    #[test]
    fn parallel_chunks_mut_covers_every_unit_once() {
        for threads in [1, 2, 3, 7] {
            let mut data = vec![0u32; 6 * 35];
            with_threads(threads, || {
                parallel_chunks_mut(&mut data, 6, 1, |start, chunk| {
                    for (u, unit) in chunk.chunks_mut(6).enumerate() {
                        for v in unit {
                            *v += (start + u) as u32;
                        }
                    }
                });
            });
            let want: Vec<u32> = (0..35u32)
                .flat_map(|u| std::iter::repeat_n(u, 6))
                .collect();
            assert_eq!(data, want, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn parallel_chunks_mut_rejects_ragged_units() {
        let mut data = vec![0u8; 7];
        parallel_chunks_mut(&mut data, 2, 1, |_, _| {});
    }
}
