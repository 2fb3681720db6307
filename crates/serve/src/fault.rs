//! Deterministic network-layer chaos, extending the `CFX_FAULT` tape
//! injector pattern (PR 2) to the serving daemon.
//!
//! `CFX_SERVE_FAULT` arms exactly one fault for the process:
//!
//! * `slow-client[@n]` — every `n`-th accepted connection (default 4)
//!   is handled as if the client dribbled its bytes: the server stalls
//!   for its read-timeout budget before parsing, so those requests
//!   deterministically exercise the deadline/timeout reply path.
//! * `malformed[@n]` — every `n`-th accepted connection has the first
//!   byte of its request head flipped before parsing, deterministically
//!   exercising the typed `4xx` reply path.
//! * `kill@n` — the process exits with code 137 (the SIGKILL/crash
//!   convention of `CFX_CRASH`) immediately after serving `n` requests:
//!   a crash drill for restart tooling.
//!
//! Faults key off monotone process-global counters (connection index,
//! served-request count), so a given load script hits exactly the same
//! fault points on every run. A bad spec is a hard error at startup —
//! a chaos drill that silently disarms is worse than no drill.

use cfx_tensor::CfxError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default period for `slow-client` / `malformed` without an `@n`.
pub const DEFAULT_PERIOD: u64 = 4;

/// One armed network fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// Stall every `period`-th connection past its read budget.
    SlowClient {
        /// Connection-index period.
        period: u64,
    },
    /// Corrupt the head of every `period`-th connection.
    Malformed {
        /// Connection-index period.
        period: u64,
    },
    /// Exit 137 after this many served requests.
    Kill {
        /// Served-request count that triggers the kill.
        after: u64,
    },
}

impl ServeFault {
    /// Parses a `CFX_SERVE_FAULT` spec (see module docs for grammar).
    pub fn parse(spec: &str) -> Result<ServeFault, CfxError> {
        let (name, arg) = match spec.split_once('@') {
            Some((n, a)) => (n, Some(a)),
            None => (spec, None),
        };
        let period = |arg: Option<&str>| -> Result<u64, CfxError> {
            match arg {
                None => Ok(DEFAULT_PERIOD),
                Some(a) => a.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(
                    || {
                        CfxError::Fault(format!(
                            "bad period {a:?} in CFX_SERVE_FAULT (want integer >= 1)"
                        ))
                    },
                ),
            }
        };
        match name {
            "slow-client" => Ok(ServeFault::SlowClient { period: period(arg)? }),
            "malformed" => Ok(ServeFault::Malformed { period: period(arg)? }),
            "kill" => match arg {
                Some(a) => a
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .map(|after| ServeFault::Kill { after })
                    .ok_or_else(|| {
                        CfxError::Fault(format!(
                            "bad kill count {a:?} in CFX_SERVE_FAULT"
                        ))
                    }),
                None => Err(CfxError::Fault(
                    "kill requires a count: CFX_SERVE_FAULT=kill@<n>".into(),
                )),
            },
            other => Err(CfxError::Fault(format!(
                "unknown CFX_SERVE_FAULT {other:?} (want slow-client|malformed|kill@<n>)"
            ))),
        }
    }

    /// The fault armed by `CFX_SERVE_FAULT`, read once per process. A
    /// malformed spec is an error (callers abort startup), not a
    /// silently disarmed drill.
    pub fn from_env() -> Result<Option<ServeFault>, CfxError> {
        static ENV: OnceLock<Result<Option<ServeFault>, CfxError>> = OnceLock::new();
        ENV.get_or_init(|| match std::env::var("CFX_SERVE_FAULT") {
            Ok(spec) if !spec.is_empty() => ServeFault::parse(&spec).map(Some),
            _ => Ok(None),
        })
        .clone()
    }
}

/// Monotone counters the fault decisions key off. Shared by reference
/// between the accept loop and connection threads of one server.
#[derive(Debug, Default)]
pub struct FaultClock {
    /// Accepted-connection count (1-based after `next_conn`).
    conns: AtomicU64,
    /// Completed-request count.
    served: AtomicU64,
}

impl FaultClock {
    /// Allocates the next 1-based connection index.
    pub fn next_conn(&self) -> u64 {
        self.conns.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Records one served request; returns the new total.
    pub fn record_served(&self) -> u64 {
        self.served.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Completed-request count so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Whether connection `conn_index` should be handled as a slow
    /// client under `fault`.
    pub fn stalls(&self, fault: Option<ServeFault>, conn_index: u64) -> bool {
        matches!(fault, Some(ServeFault::SlowClient { period })
            if conn_index % period == 0)
    }

    /// Whether connection `conn_index` should have its head corrupted
    /// under `fault`.
    pub fn corrupts(&self, fault: Option<ServeFault>, conn_index: u64) -> bool {
        matches!(fault, Some(ServeFault::Malformed { period })
            if conn_index % period == 0)
    }

    /// Whether the process should crash-drill now (call after
    /// [`record_served`](Self::record_served)).
    pub fn should_kill(&self, fault: Option<ServeFault>, served: u64) -> bool {
        matches!(fault, Some(ServeFault::Kill { after }) if served >= after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse() {
        assert_eq!(
            ServeFault::parse("slow-client").expect("valid fault spec"),
            ServeFault::SlowClient { period: DEFAULT_PERIOD }
        );
        assert_eq!(
            ServeFault::parse("slow-client@3").expect("valid fault spec"),
            ServeFault::SlowClient { period: 3 }
        );
        assert_eq!(
            ServeFault::parse("malformed@2").expect("valid fault spec"),
            ServeFault::Malformed { period: 2 }
        );
        assert_eq!(
            ServeFault::parse("kill@10").expect("valid fault spec"),
            ServeFault::Kill { after: 10 }
        );
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in ["", "nope", "kill", "kill@", "kill@x", "slow-client@0", "malformed@-1"] {
            assert!(
                matches!(ServeFault::parse(bad), Err(CfxError::Fault(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn clock_is_deterministic() {
        let c = FaultClock::default();
        let fault = Some(ServeFault::Malformed { period: 3 });
        let hits: Vec<bool> =
            (0..9).map(|_| c.corrupts(fault, c.next_conn())).collect();
        assert_eq!(
            hits,
            [false, false, true, false, false, true, false, false, true]
        );
        assert!(!c.stalls(fault, 3), "malformed never stalls");
        let kill = Some(ServeFault::Kill { after: 2 });
        assert!(!c.should_kill(kill, c.record_served()));
        assert!(c.should_kill(kill, c.record_served()));
    }
}
