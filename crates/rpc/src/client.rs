//! Client-side pieces shared by every caller: the retransmission
//! policy a [`Channel`](crate::Channel) applies to each call, and
//! one-way sends, which need no channel because nothing comes back.

use std::time::Duration;

use simnet::{Ctx, Endpoint};
use wire::Value;

use crate::proto::Oneway;

/// Retransmission policy for a channel's calls.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// The initial RTO and its floor: a channel sends its first call
    /// with this timeout and never lets its RTT estimate drop below it.
    pub timeout: Duration,
    /// Total attempts (first send plus retransmissions).
    pub max_attempts: u32,
    /// Multiplier applied to a call's RTO after each attempt
    /// (1.0 = fixed interval, 2.0 = exponential backoff).
    pub backoff: f64,
}

impl RetryPolicy {
    /// A policy that never retransmits: one attempt with the given timeout.
    pub fn no_retry(timeout: Duration) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_attempts: 1,
            backoff: 1.0,
        }
    }

    /// Fixed-interval retransmission.
    pub fn fixed(timeout: Duration, max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_attempts,
            backoff: 1.0,
        }
    }

    /// Exponential backoff with factor 2.
    pub fn exponential(timeout: Duration, max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_attempts,
            backoff: 2.0,
        }
    }

    /// The timeout of transmission `attempt` (0 = the first send) of a
    /// call first sent with `rto`: `rto * backoff^attempt`.
    pub(crate) fn attempt_timeout(&self, rto: Duration, attempt: u32) -> Duration {
        let factor = self.backoff.powi(attempt as i32);
        Duration::from_nanos((rto.as_nanos() as f64 * factor) as u64)
    }
}

impl Default for RetryPolicy {
    /// 10ms initial RTO and floor, 4 attempts, exponential backoff. The
    /// floor sits well above a LAN round trip (500µs one-way latency),
    /// so LAN calls keep a fixed 10ms first timeout; slower paths raise
    /// the RTO through the channel's RTT estimate.
    fn default() -> RetryPolicy {
        RetryPolicy::exponential(Duration::from_millis(10), 4)
    }
}

/// Sends a one-way notification (helper for servers
/// pushing invalidations or replication traffic). The notification
/// carries the caller's active span and is recorded as an
/// immediately-closed one-way span parented to it, which is how
/// invalidations and recalls stay causally attributable to the write
/// that triggered them.
pub fn send_oneway(ctx: &Ctx, to: Endpoint, op: &str, args: Value) {
    let parent = ctx.current_span();
    let span = note_oneway_span(ctx, parent, op, &args);
    let msg = Oneway {
        from: ctx.endpoint(),
        op: op.to_owned(),
        args,
        span: span.raw(),
    };
    ctx.send_traced(to, msg.to_bytes(), span);
}

/// Sends a one-way notification from a specific bound source endpoint.
pub fn send_oneway_from(ctx: &Ctx, from: Endpoint, to: Endpoint, op: &str, args: Value) {
    let parent = ctx.current_span();
    let span = note_oneway_span(ctx, parent, op, &args);
    let msg = Oneway {
        from,
        op: op.to_owned(),
        args,
        span: span.raw(),
    };
    ctx.send_from_traced(from, to, msg.to_bytes(), span);
}

/// Records a one-way span for a notification. The service label comes
/// from the body's `"svc"` field when present (invalidate/recall bodies
/// carry it), falling back to the sending process's name.
fn note_oneway_span(ctx: &Ctx, parent: obs::SpanId, op: &str, args: &Value) -> obs::SpanId {
    let service = args.get_str("svc").unwrap_or(ctx.name()).to_owned();
    ctx.obs()
        .note_oneway(parent, &service, op, ctx.now().as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_backoff_grows() {
        let p = RetryPolicy::exponential(Duration::from_millis(10), 4);
        let rto = p.timeout;
        assert_eq!(p.attempt_timeout(rto, 0), Duration::from_millis(10));
        assert_eq!(p.attempt_timeout(rto, 1), Duration::from_millis(20));
        assert_eq!(p.attempt_timeout(rto, 2), Duration::from_millis(40));
        // A call sent with a raised RTO backs off from that RTO.
        let raised = Duration::from_millis(30);
        assert_eq!(p.attempt_timeout(raised, 2), Duration::from_millis(120));
    }

    #[test]
    fn policy_fixed_is_flat() {
        let p = RetryPolicy::fixed(Duration::from_millis(5), 3);
        assert_eq!(
            p.attempt_timeout(p.timeout, 0),
            p.attempt_timeout(p.timeout, 2)
        );
    }

    #[test]
    fn no_retry_is_single_attempt() {
        let p = RetryPolicy::no_retry(Duration::from_millis(1));
        assert_eq!(p.max_attempts, 1);
    }
}
