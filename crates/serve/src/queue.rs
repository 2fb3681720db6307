//! A bounded multi-producer, multi-consumer work queue with explicit
//! load shedding.
//!
//! The cap is enforced at push time: a full queue rejects the item and
//! hands it back ([`PushError::Full`]), so admission control happens at
//! the socket — the daemon never buffers unboundedly, it sheds with a
//! `429` and a retry hint. Closing the queue wakes every blocked
//! consumer; pops then drain whatever is left, which is exactly the
//! graceful-drain contract: accepted work completes, new work is
//! refused.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Why a push was refused (the item comes back to the caller).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — shed the request.
    Full(T),
    /// The queue is draining — no new admissions.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity FIFO connecting connection threads to the explain
/// workers, all of which pop from it.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    nonempty: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `cap` items (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            nonempty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admission capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Current depth (racy by nature; used for gauges and health).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push; a full or closed queue refuses and returns the
    /// item so the caller can reply with a typed shed/drain response.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        g.items.push_back(item);
        drop(g);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// empty (drain complete) — `None` means the consumer should exit.
    pub fn pop_wait(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.nonempty.wait(g).expect("queue lock poisoned");
        }
    }

    /// Like [`pop_wait`](Self::pop_wait) but gives up at `deadline`;
    /// `None` means either timeout or drained-and-closed.
    pub fn pop_until(&self, deadline: Instant) -> Option<T> {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, timeout) = self
                .nonempty
                .wait_timeout(g, deadline - now)
                .expect("queue lock poisoned");
            g = guard;
            if timeout.timed_out() && g.items.is_empty() {
                return None;
            }
        }
    }

    /// Stops admissions and wakes all blocked consumers; queued items
    /// remain poppable so in-flight work finishes.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo_and_shed_at_cap() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("room for a first item");
        q.try_push(2).expect("room up to the cap");
        assert_eq!(q.len(), 2);
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push(7).expect("an open queue with room admits");
        q.close();
        match q.try_push(8) {
            Err(PushError::Closed(8)) => {}
            other => panic!("{other:?}"),
        }
        // Queued item still served, then the exit signal.
        assert_eq!(q.pop_wait(), Some(7));
        assert_eq!(q.pop_wait(), None);
    }

    #[test]
    fn pop_until_times_out_empty() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        let t0 = Instant::now();
        assert_eq!(q.pop_until(t0 + Duration::from_millis(20)), None);
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_wait());
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(h.join().expect("consumer thread exits cleanly"), None);
    }
}
