//! Hierarchical spans: RAII guards emitting `span_enter`/`span_exit`
//! records with monotonic durations and parent links.
//!
//! Span ids are process-global (one atomic counter); the nesting stack
//! is per thread, so spans opened on worker threads parent correctly
//! within their own thread and never race.

use crate::{sink, FieldValue};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span on this thread, if any. Events emitted
/// while a span is open carry this id.
pub fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard for one span. Construct via [`crate::span!`]; dropping
/// it emits the `span_exit` record with `dur_ns`.
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span now: allocates an id, emits `span_enter` (with
    /// `parent` when nested) and pushes onto this thread's stack.
    pub fn enter(name: &'static str, fields: &[(&str, FieldValue)]) -> SpanGuard {
        if !sink::jsonl_active() {
            return SpanGuard::inert();
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = current_span();
        sink::emit_span_enter(id, parent, name, fields);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard { id, name, start: Some(Instant::now()) }
    }

    /// A guard that does nothing on drop (used when no sink is open).
    pub fn inert() -> SpanGuard {
        SpanGuard { id: 0, name: "", start: None }
    }

    /// This span's id (0 for inert guards).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards are RAII so LIFO is the norm; tolerate manual
            // drops out of order rather than corrupting the stack.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&id| id != self.id);
            }
        });
        sink::emit_span_exit(self.id, self.name, start.elapsed().as_nanos() as u64);
    }
}
