//! Numeric guards and a deterministic fault injector.
//!
//! Two halves, one module:
//!
//! * **Guards** — cheap finite-checks ([`check_finite`], [`all_finite`])
//!   that training loops call on losses and gradients *before* an
//!   optimizer step can poison the weights. Always compiled.
//! * **Fault injection** — a deterministic corruption hook wired into
//!   [`Tape`](crate::Tape) op construction so tests can corrupt exactly
//!   one op and prove the recovery machinery works. Armed either
//!   programmatically ([`with_fault`]) or through the
//!   `CFX_FAULT=nan@<op_index>` environment knob; unarmed, the hook is a
//!   cheap no-op.
//!
//! # Determinism
//!
//! The injector state is **thread-local**: an armed fault counts tape ops
//! on the thread that arms it and corrupts the op whose 0-based index
//! matches. Tape construction always happens on the thread driving the
//! training loop (worker threads only run data-parallel kernels, never
//! tape pushes), so the corrupted op is the same one on every run and at
//! every `CFX_THREADS` setting. A fault fires **once**: after the
//! watchdog rolls back and retries, the rerun proceeds clean — exactly
//! the transient-fault model the recovery tests need.

use crate::error::CfxError;
use crate::tensor::Tensor;
use std::cell::Cell;
use std::sync::OnceLock;

/// What the injected corruption writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Write a `NaN`.
    Nan,
    /// Write a `+Inf`.
    Inf,
}

/// A deterministic single-op fault: corrupt the value of the `op_index`-th
/// tape op (0-based, counted per thread) with [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What to write.
    pub kind: FaultKind,
    /// Which tape op (0-based construction order on the arming thread).
    pub op_index: u64,
}

impl Fault {
    /// Parses a `CFX_FAULT` spec: `nan@<op_index>` or `inf@<op_index>`.
    pub fn parse(spec: &str) -> Result<Fault, CfxError> {
        let err = || {
            CfxError::Fault(format!(
                "expected nan@<op_index> or inf@<op_index>, got {spec:?}"
            ))
        };
        let (kind, idx) = spec.trim().split_once('@').ok_or_else(err)?;
        let kind = match kind.to_ascii_lowercase().as_str() {
            "nan" => FaultKind::Nan,
            "inf" => FaultKind::Inf,
            _ => return Err(err()),
        };
        let op_index = idx.trim().parse::<u64>().map_err(|_| err())?;
        Ok(Fault { kind, op_index })
    }

    fn value(&self) -> f32 {
        match self.kind {
            FaultKind::Nan => f32::NAN,
            FaultKind::Inf => f32::INFINITY,
        }
    }
}

/// The fault configured by the `CFX_FAULT` environment variable, read
/// once per process. `Ok(None)` when the variable is unset; a malformed
/// spec is a hard [`CfxError::Fault`] so a typo'd CI scenario fails
/// loudly instead of silently running fault-free.
pub fn env_fault() -> Result<Option<Fault>, CfxError> {
    static ENV: OnceLock<Result<Option<Fault>, CfxError>> = OnceLock::new();
    ENV.get_or_init(|| match std::env::var("CFX_FAULT") {
        Ok(spec) => Fault::parse(&spec).map(Some),
        Err(_) => Ok(None),
    })
    .clone()
}

#[derive(Clone, Copy)]
struct InjectorState {
    armed: Option<Fault>,
    count: u64,
    fired: bool,
}

thread_local! {
    // None = not yet initialized on this thread (lazily armed from the
    // environment on first tape op).
    static STATE: Cell<Option<InjectorState>> = const { Cell::new(None) };
}

fn load_state() -> InjectorState {
    STATE.with(|s| {
        s.get().unwrap_or_else(|| InjectorState {
            // A bad CFX_FAULT spec must abort, not silently disarm the
            // injector: tests that rely on the fault firing would pass
            // vacuously otherwise.
            armed: env_fault()
                .unwrap_or_else(|e| panic!("invalid CFX_FAULT: {e}")),
            count: 0,
            fired: false,
        })
    })
}

/// Tape-op hook: counts the op and corrupts its value if this thread's
/// armed fault targets it. Called by `Tape::push`; a cheap no-op when
/// no fault is armed.
pub(crate) fn tamper(mut value: Tensor) -> Tensor {
    let mut st = load_state();
    if let Some(fault) = st.armed {
        if !st.fired && st.count == fault.op_index {
            if let Some(v) = value.as_mut_slice().first_mut() {
                *v = fault.value();
            }
            st.fired = true;
            cfx_obs::event!(
                "fault_injected",
                op_index = fault.op_index,
                kind = if fault.value().is_nan() { "nan" } else { "inf" },
            );
        }
        st.count += 1;
        STATE.with(|s| s.set(Some(st)));
    }
    value
}

/// Runs `f` with `fault` armed on this thread (counter reset to op 0),
/// restoring the previous injector state afterwards — even on panic.
/// Returns `f`'s result and whether the fault actually fired.
pub fn with_fault<T>(fault: Fault, f: impl FnOnce() -> T) -> (T, bool) {
    struct Restore(Option<InjectorState>);
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.with(|s| s.set(self.0));
        }
    }
    let prev = STATE.with(|s| {
        s.replace(Some(InjectorState {
            armed: Some(fault),
            count: 0,
            fired: false,
        }))
    });
    let _restore = Restore(prev);
    let out = f();
    let fired =
        STATE.with(|s| s.get().map_or(false, |st| st.fired));
    (out, fired)
}

/// Whether every tensor is entirely finite.
pub fn all_finite(tensors: &[&Tensor]) -> bool {
    tensors.iter().all(|t| t.all_finite())
}

/// Errors with [`CfxError::NonFinite`] naming `context` if any tensor
/// contains a NaN/Inf. The guard the watchdog places in front of every
/// optimizer step.
pub fn check_finite(
    context: &str,
    tensors: &[&Tensor],
) -> Result<(), CfxError> {
    if all_finite(tensors) {
        Ok(())
    } else {
        Err(CfxError::non_finite(context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;

    #[test]
    fn fault_spec_parses_and_rejects() {
        assert_eq!(
            Fault::parse("nan@12").unwrap(),
            Fault { kind: FaultKind::Nan, op_index: 12 }
        );
        assert_eq!(
            Fault::parse(" INF@0 ").unwrap(),
            Fault { kind: FaultKind::Inf, op_index: 0 }
        );
        assert!(Fault::parse("nan").is_err());
        assert!(Fault::parse("boom@3").is_err());
        assert!(Fault::parse("nan@minus-one").is_err());
    }

    #[test]
    fn check_finite_trips_on_nan_and_inf() {
        let ok = Tensor::row(&[1.0, -2.0]);
        let nan = Tensor::row(&[1.0, f32::NAN]);
        let inf = Tensor::row(&[f32::INFINITY, 0.0]);
        assert!(check_finite("loss", &[&ok]).is_ok());
        assert!(all_finite(&[&ok, &ok]));
        assert!(!all_finite(&[&ok, &nan]));
        let err = check_finite("grads", &[&ok, &inf]).unwrap_err();
        assert_eq!(err, CfxError::non_finite("grads"));
    }

    #[test]
    fn injected_fault_corrupts_exactly_one_op_once() {
        let fault = Fault { kind: FaultKind::Nan, op_index: 1 };
        let ((), fired) = with_fault(fault, || {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::row(&[1.0, 2.0])); // op 0: clean
            let s = tape.square(x); // op 1: corrupted
            let z = tape.sum(s); // op 2: NaN propagates
            assert!(tape.value(x).all_finite());
            assert!(!tape.value(s).all_finite());
            assert!(!tape.value(z).item().is_finite());
            // One-shot: a second tape on the same thread stays clean.
            let mut tape2 = Tape::new();
            let y = tape2.leaf(Tensor::row(&[3.0]));
            let s2 = tape2.square(y);
            assert!(tape2.value(s2).all_finite());
        });
        assert!(fired);
    }

    #[test]
    fn unreached_fault_never_fires_and_state_restores() {
        let fault = Fault { kind: FaultKind::Inf, op_index: 10_000 };
        let ((), fired) = with_fault(fault, || {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::row(&[4.0]));
            let s = tape.square(x);
            assert!(tape.value(s).all_finite());
        });
        assert!(!fired);
        // Outside with_fault, ops are untouched (no env fault in tests).
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::row(&[5.0]));
        assert!(tape.value(x).all_finite());
    }
}
