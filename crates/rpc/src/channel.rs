//! The RPC channel: the one client transport.
//!
//! A [`Channel`] keeps up to [`ChannelConfig::pipeline_depth`] calls in
//! flight against one server endpoint. A stop-and-wait call is just a
//! channel with one call outstanding: [`Channel::call`] begins a call
//! and waits for it. Pipelined callers stage calls with
//! [`Channel::begin_call`] and redeem the returned [`CallHandle`] with
//! [`Channel::wait`] / [`Channel::wait_all`] (blocking style), or with
//! [`Channel::poll_wait`] / [`Channel::try_take`] from poll-driven
//! processes, which complete on the reply's own delivery wake instead
//! of a parked thread. Replies are matched by call id, each call keeps
//! its own retransmission timer, and ids retransmit unchanged — so the
//! server's per-client window gives **at-most-once** execution (the
//! Birrell & Nelson design the paper's stubs assume), even when calls
//! complete out of order.
//!
//! On top of pipelining the channel *batches*: staged requests bound for
//! the same endpoint coalesce into one [`Batch`] datagram (up to
//! [`ChannelConfig::max_batch`] per frame), and the server coalesces the
//! replies on the way back — many calls, one network traversal each
//! way. Retransmissions are always sent individually: by the time a
//! timer fires, batch-mates have usually been acknowledged.
//!
//! One-way and request datagrams that arrive while the channel pumps are
//! not its business; it keeps them, in arrival order, for
//! [`Channel::take_strays`]. Smart proxies route invalidations from
//! there, and servers blocked in a call requeue requests.
//!
//! Every call gets its own `Invoke` span (parented to the caller's
//! active span), so causal traces show per-call latency even when the
//! datagrams were shared.
//!
//! The retransmission timeout adapts to the path. A channel is bound to
//! one endpoint, so it keeps one Jacobson/Karels estimate (smoothed RTT
//! and RTT variance) for that destination, and sends each new call with
//! RTO = max(`policy.timeout`, SRTT + max(1 ms, 4·RTTVAR)), the 1 ms
//! being RFC 6298's granularity margin. The policy's timeout is
//! both the first RTO and the floor, so a LAN path whose round trips sit
//! far below it keeps exactly the fixed-timeout schedule. Only a reply
//! to a call that was never retransmitted is a sample (Karn's rule): a
//! reply to a retransmitted call cannot say which send it answers. A
//! retransmission backs off from the RTO its call was first sent with,
//! times `policy.backoff^attempt`, and that backed-off timeout carries
//! over to later calls until a clean sample arrives — otherwise an
//! initial RTO below the path's RTT would retransmit every call and
//! Karn's rule would discard every sample. Before the first sample the
//! carry is unbounded; after it, it is capped at twice the estimate, so
//! a burst of losses cannot ratchet the timeout far past the path.
//! [`Channel::rebind`] starts a fresh estimate for the new endpoint.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use simnet::{Ctx, Endpoint, Message, SimTime};
use wire::Value;

use crate::client::RetryPolicy;
use crate::error::{RemoteError, RpcError};
use crate::proto::{Packet, Reply, Request};

/// Tuning knobs for a [`Channel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Maximum calls in flight at once (1 = synchronous behaviour).
    pub pipeline_depth: usize,
    /// Maximum staged requests coalesced into one datagram (1 = no
    /// batching).
    pub max_batch: usize,
    /// Retransmission policy: the initial RTO and its floor, the
    /// back-off factor and the attempt budget.
    pub policy: RetryPolicy,
}

impl Default for ChannelConfig {
    /// Depth 8, no batching, the default [`RetryPolicy`].
    fn default() -> ChannelConfig {
        ChannelConfig {
            pipeline_depth: 8,
            max_batch: 1,
            policy: RetryPolicy::default(),
        }
    }
}

impl ChannelConfig {
    /// A config with the given depth, no batching, default retries.
    pub fn with_depth(pipeline_depth: usize) -> ChannelConfig {
        ChannelConfig {
            pipeline_depth,
            ..ChannelConfig::default()
        }
    }

    /// Sets the batch size.
    pub fn batched(mut self, max_batch: usize) -> ChannelConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> ChannelConfig {
        self.policy = policy;
        self
    }
}

/// A ticket for one in-flight call; redeem with [`Channel::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallHandle(u64);

impl CallHandle {
    /// The underlying call id (diagnostics only).
    pub fn call_id(&self) -> u64 {
        self.0
    }
}

/// Counters accumulated by a channel (readable by harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Calls begun.
    pub calls: u64,
    /// Calls that completed with a reply (ok or remote error).
    pub completed: u64,
    /// Calls that exhausted their retry budget.
    pub timeouts: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Batch datagrams sent (excluding single-request sends).
    pub batches_sent: u64,
    /// Requests that travelled inside a batch datagram.
    pub batched_calls: u64,
    /// Replies that matched no outstanding call.
    pub stale_replies: u64,
    /// Datagrams discarded while pumping: undecodable frames, and
    /// strays the caller passed to [`Channel::discard_strays`].
    pub discarded: u64,
}

#[derive(Debug)]
enum CallState {
    /// Staged, not yet sent (pipeline window was full).
    Queued,
    /// Sent; waiting for its reply or its retransmission timer.
    Outstanding,
    /// Reply arrived.
    Done(Result<Value, RemoteError>),
    /// Retry budget exhausted.
    TimedOut,
}

#[derive(Debug)]
struct CallRec {
    request: Request,
    /// Encoded once; retransmissions reuse the bytes (and thus the span).
    bytes: Bytes,
    span: obs::SpanId,
    attempt: u32,
    /// When the first transmission left (the RTT sample's start).
    sent_at: SimTime,
    /// The RTO the first transmission was sent with; retransmissions
    /// back off from it.
    rto: Duration,
    deadline: SimTime,
    state: CallState,
}

/// The least margin the RTO keeps above SRTT (RFC 6298's clock
/// granularity G). A path with no jitter drives RTTVAR to zero, which
/// would put the deadline on the reply's arrival instant, where the
/// timer wins the tie and every other call retransmits.
const RTO_GRANULARITY: Duration = Duration::from_millis(1);

/// A channel's round-trip estimate and the RTO its next call is sent
/// with (Jacobson/Karels smoothing; see the module docs).
#[derive(Debug)]
struct RttEstimator {
    /// The policy's timeout: the RTO before any sample, and its floor.
    floor: Duration,
    /// Smoothed RTT; `None` until the first clean sample.
    srtt: Option<Duration>,
    rttvar: Duration,
    /// The RTO for the next first transmission: the estimate, or a
    /// carried back-off above it.
    rto: Duration,
}

impl RttEstimator {
    fn new(floor: Duration) -> RttEstimator {
        RttEstimator {
            floor,
            srtt: None,
            rttvar: Duration::ZERO,
            rto: floor,
        }
    }

    /// max(floor, SRTT + max(G, 4·RTTVAR)), or the floor before any
    /// sample.
    fn estimate(&self) -> Duration {
        self.srtt.map_or(self.floor, |srtt| {
            (srtt + (self.rttvar * 4).max(RTO_GRANULARITY)).max(self.floor)
        })
    }

    /// Folds in the RTT of a call that was sent exactly once, and drops
    /// any carried back-off.
    fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                self.rttvar = (self.rttvar * 3 + srtt.abs_diff(rtt)) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        self.rto = self.estimate();
    }

    /// Carries a retransmission's backed-off timeout over to later
    /// calls: unbounded before the first sample, at most twice the
    /// estimate after it.
    fn carry(&mut self, timeout: Duration) {
        let carried = match self.srtt {
            Some(_) => timeout.min(self.estimate() * 2),
            None => timeout,
        };
        self.rto = self.rto.max(carried);
    }
}

/// A pipelined, batching RPC channel bound to one server endpoint.
///
/// Not a [`Proxy`](../index.html): the channel is the *transport object*
/// proxies build on — the ODP "channel object" whose protocol (depth,
/// batching, retries) the service side may choose freely behind an
/// unchanged call interface.
#[derive(Debug)]
pub struct Channel {
    service: String,
    server: Endpoint,
    cfg: ChannelConfig,
    calls: HashMap<u64, CallRec>,
    /// Queued call ids in begin order.
    queue: VecDeque<u64>,
    outstanding: usize,
    rtt: RttEstimator,
    /// One-way and request datagrams absorbed while pumping, in arrival
    /// order.
    strays: Vec<Message>,
    /// Counters (readable by experiment harnesses).
    pub stats: ChannelStats,
}

impl Channel {
    /// Creates a channel for `service` at `server`.
    pub fn new(service: impl Into<String>, server: Endpoint, cfg: ChannelConfig) -> Channel {
        let rtt = RttEstimator::new(cfg.policy.timeout);
        Channel {
            service: service.into(),
            server,
            cfg: ChannelConfig {
                pipeline_depth: cfg.pipeline_depth.max(1),
                max_batch: cfg.max_batch.max(1),
                policy: cfg.policy,
            },
            calls: HashMap::new(),
            queue: VecDeque::new(),
            outstanding: 0,
            rtt,
            strays: Vec::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The server endpoint this channel is bound to.
    pub fn server(&self) -> Endpoint {
        self.server
    }

    /// Repoints the channel at a new server endpoint (a `Moved`
    /// redirect or a fresh name lookup). Later sends and retransmissions
    /// go to `server`; late replies from the old endpoint count as stale.
    /// The RTT estimate belongs to the old path, so it starts over.
    pub fn rebind(&mut self, server: Endpoint) {
        self.server = server;
        self.rtt = RttEstimator::new(self.cfg.policy.timeout);
    }

    /// The RTO the next call will be sent with: the estimate, or a
    /// back-off carried over from a recent retransmission.
    pub fn rto(&self) -> Duration {
        self.rtt.rto
    }

    /// The estimated RTO, max(`policy.timeout`, SRTT + max(1 ms,
    /// 4·RTTVAR)), with no carried back-off; `policy.timeout` before the
    /// first sample.
    pub fn rto_estimate(&self) -> Duration {
        self.rtt.estimate()
    }

    /// The smoothed round-trip time, or `None` before the first reply to
    /// a call that was never retransmitted.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt
    }

    /// Whether `call_id` belongs to a call begun on this channel whose
    /// record has not yet been claimed.
    pub fn owns(&self, call_id: u64) -> bool {
        self.calls.contains_key(&call_id)
    }

    /// Calls currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Calls staged but not yet sent.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether this handle has settled (reply arrived or timed out).
    pub fn is_settled(&self, h: CallHandle) -> bool {
        match self.calls.get(&h.0) {
            Some(rec) => matches!(rec.state, CallState::Done(_) | CallState::TimedOut),
            None => true,
        }
    }

    /// Stages a call on the server's default object and returns its
    /// handle. Nothing is sent until [`Channel::flush`] (which `wait`,
    /// `wait_all` and `poll` call for you).
    pub fn begin_call(&mut self, ctx: &mut Ctx, op: &str, args: Value) -> CallHandle {
        self.begin_call_object(ctx, "", op, args)
    }

    /// Stages a call on a named object in the server context.
    pub fn begin_call_object(
        &mut self,
        ctx: &mut Ctx,
        object: &str,
        op: &str,
        args: Value,
    ) -> CallHandle {
        // Ids come from the per-process counter, shared by every channel
        // in the process, so the server's per-endpoint window sees one
        // id space and a reply names its channel unambiguously.
        let call_id = ctx.next_seq();
        self.stats.calls += 1;
        ctx.obs().on_call();
        // Each call gets its own invoke span parented to the caller's
        // active span; the request is encoded once so retransmissions
        // carry the same span by construction.
        let span = ctx.obs().open_span(
            obs::SpanKind::Invoke,
            ctx.current_span(),
            &self.service,
            op,
            ctx.now().as_nanos(),
        );
        let request = Request {
            call_id,
            reply_to: ctx.endpoint(),
            object: object.to_owned(),
            op: op.to_owned(),
            args,
            span: span.raw(),
        };
        let bytes = request.to_bytes();
        self.calls.insert(
            call_id,
            CallRec {
                request,
                bytes,
                span,
                attempt: 0,
                sent_at: SimTime::ZERO,
                rto: Duration::ZERO,
                deadline: SimTime::ZERO,
                state: CallState::Queued,
            },
        );
        self.queue.push_back(call_id);
        CallHandle(call_id)
    }

    /// Promotes queued calls into the pipeline window and sends them,
    /// coalescing up to `max_batch` requests per datagram.
    pub fn flush(&mut self, ctx: &mut Ctx) {
        while self.outstanding < self.cfg.pipeline_depth && !self.queue.is_empty() {
            let room = self.cfg.pipeline_depth - self.outstanding;
            let n = self.cfg.max_batch.min(room).min(self.queue.len());
            let ids: Vec<u64> = self.queue.drain(..n).collect();
            let now = ctx.now();
            let rto = self.rtt.rto;
            for &id in &ids {
                let rec = self.calls.get_mut(&id).expect("queued call exists");
                rec.state = CallState::Outstanding;
                rec.attempt = 0;
                rec.sent_at = now;
                rec.rto = rto;
                rec.deadline = now + rto;
            }
            self.outstanding += ids.len();
            if ids.len() == 1 {
                let rec = &self.calls[&ids[0]];
                ctx.send_traced(self.server, rec.bytes.clone(), rec.span);
            } else {
                // Borrow-based batch encode: the staged requests are
                // written straight into the frame, never cloned.
                let payload = crate::proto::encode_request_batch(
                    ids.iter().map(|id| &self.calls[id].request),
                );
                self.stats.batches_sent += 1;
                self.stats.batched_calls += ids.len() as u64;
                // The datagram serves many spans at once, so it is
                // attributed to none; each call's own span still opens
                // and closes around its reply.
                ctx.trace(simnet::TraceEvent::Batched {
                    src: ctx.endpoint(),
                    dst: self.server,
                    count: ids.len(),
                    span: obs::SpanId::NONE,
                });
                ctx.send_traced(self.server, payload, obs::SpanId::NONE);
            }
        }
        self.note_depth(ctx);
    }

    /// Samples the channel's pipeline window and backlog into the flight
    /// recorder, keyed by service. Called at every transition point
    /// (flush, expiry, reply) so the gauges bracket each change; costs
    /// one relaxed load when the recorder is off.
    fn note_depth(&self, ctx: &mut Ctx) {
        let obs = ctx.obs();
        if !obs.timeseries_enabled() {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        obs.ts_gauge(
            now_ns,
            &format!("inflight@{}", self.service),
            self.outstanding as u64,
        );
        obs.ts_gauge(
            now_ns,
            &format!("queued@{}", self.service),
            self.queue.len() as u64,
        );
    }

    /// Fires retransmission timers: calls past their deadline either
    /// retransmit (individually — batch-mates are usually already
    /// acknowledged) or, once the retry budget is gone, settle as timed
    /// out.
    fn expire(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let mut expired: Vec<u64> = self
            .calls
            .iter()
            .filter(|(_, r)| matches!(r.state, CallState::Outstanding) && r.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        // HashMap iteration order varies run to run; retransmitting in
        // map order would let two calls with equal deadlines swap their
        // send order between seeds-identical runs. Sorted ids keep the
        // retransmission stream a pure function of simulation state.
        expired.sort_unstable();
        for id in expired {
            let rec = self.calls.get_mut(&id).expect("expired call exists");
            rec.attempt += 1;
            if rec.attempt >= self.cfg.policy.max_attempts {
                rec.state = CallState::TimedOut;
                self.outstanding -= 1;
                self.stats.timeouts += 1;
                ctx.obs().on_timeout();
                ctx.obs().close_span(rec.span, ctx.now().as_nanos(), false);
                continue;
            }
            self.stats.retries += 1;
            ctx.obs().on_retry();
            ctx.obs().span_retransmit_at(rec.span, now.as_nanos());
            ctx.trace(simnet::TraceEvent::Retransmit {
                src: ctx.endpoint(),
                dst: self.server,
                span: rec.span,
                attempt: rec.attempt,
            });
            ctx.send_traced(self.server, rec.bytes.clone(), rec.span);
            let timeout = self.cfg.policy.attempt_timeout(rec.rto, rec.attempt);
            rec.deadline = now + timeout;
            self.rtt.carry(timeout);
        }
        self.note_depth(ctx);
    }

    /// Settles an outstanding call with its reply. A reply for a call id
    /// this channel never issued goes to `foreign` when the caller
    /// collects those (a sibling channel may own it), and otherwise
    /// counts as stale, like a duplicate of a settled call.
    fn on_reply(
        &mut self,
        ctx: &mut Ctx,
        rep: Reply,
        src: Endpoint,
        foreign: Option<&mut Vec<(Endpoint, Reply)>>,
    ) {
        let rec = self.calls.get_mut(&rep.call_id);
        if let (None, Some(foreign)) = (&rec, foreign) {
            foreign.push((src, rep));
            return;
        }
        ctx.obs().span_reply(rep.span, ctx.now().as_nanos());
        match rec {
            Some(rec) if src == self.server && matches!(rec.state, CallState::Outstanding) => {
                // Karn's rule: a retransmitted call's reply may answer
                // any of its sends, so only first-send replies are timed.
                if rec.attempt == 0 {
                    self.rtt.sample(ctx.now() - rec.sent_at);
                }
                self.outstanding -= 1;
                self.stats.completed += 1;
                ctx.obs()
                    .close_span(rec.span, ctx.now().as_nanos(), rep.result.is_ok());
                rec.state = CallState::Done(rep.result);
                self.note_depth(ctx);
            }
            _ => {
                // Duplicate of an already-settled call, from an old
                // endpoint, or owned by no channel at all.
                self.stats.stale_replies += 1;
                ctx.obs().on_stale_reply();
            }
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx,
        msg: Message,
        mut foreign: Option<&mut Vec<(Endpoint, Reply)>>,
    ) {
        match Packet::from_frame(&msg.payload) {
            Ok(Packet::Reply(rep)) => self.on_reply(ctx, rep, msg.src, foreign),
            Ok(Packet::Batch(batch)) => {
                for item in batch.items {
                    match item {
                        Packet::Reply(rep) => {
                            self.on_reply(ctx, rep, msg.src, foreign.as_deref_mut())
                        }
                        _ => {
                            self.stats.discarded += 1;
                            ctx.obs().on_stray_dropped();
                        }
                    }
                }
            }
            Ok(Packet::Oneway(_) | Packet::Request(_)) => self.strays.push(msg),
            Err(_) => {
                self.stats.discarded += 1;
                ctx.obs().on_stray_dropped();
            }
        }
    }

    /// Drives the channel until `target` settles (or, with `None`, until
    /// every staged call has settled).
    fn pump(&mut self, ctx: &mut Ctx, target: Option<u64>) -> Result<(), RpcError> {
        loop {
            self.flush(ctx);
            self.expire(ctx);
            let settled = match target {
                Some(id) => self.is_settled(CallHandle(id)),
                None => self.outstanding == 0 && self.queue.is_empty(),
            };
            if settled {
                return Ok(());
            }
            let deadline = self
                .calls
                .values()
                .filter(|r| matches!(r.state, CallState::Outstanding))
                .map(|r| r.deadline)
                .min();
            let Some(deadline) = deadline else {
                // Nothing in flight but the target is unsettled: flush on
                // the next iteration will send queued work.
                continue;
            };
            if let Some(msg) = ctx.recv_deadline(deadline)? {
                self.on_message(ctx, msg, None);
            }
        }
    }

    /// Waits for one call to settle and returns its result. Consumes the
    /// handle's slot: waiting twice on the same handle returns
    /// [`RpcError::Timeout`].
    ///
    /// # Errors
    ///
    /// * [`RpcError::Timeout`] — the call's retry budget ran out.
    /// * [`RpcError::Remote`] — the server executed and reported failure.
    /// * [`RpcError::Stopped`] — simulation shutdown.
    pub fn wait(&mut self, ctx: &mut Ctx, h: CallHandle) -> Result<Value, RpcError> {
        if !self.is_settled(h) {
            self.pump(ctx, Some(h.0))?;
        }
        match self.calls.remove(&h.0) {
            Some(CallRec {
                state: CallState::Done(result),
                ..
            }) => result.map_err(RpcError::Remote),
            _ => Err(RpcError::Timeout {
                attempts: self.cfg.policy.max_attempts,
            }),
        }
    }

    /// Calls `op` on the server's default object and waits for the
    /// reply: a stop-and-wait call. One-way and request datagrams that
    /// arrive meanwhile stay available through [`Channel::take_strays`].
    ///
    /// # Errors
    ///
    /// See [`Channel::wait`].
    pub fn call(&mut self, ctx: &mut Ctx, op: &str, args: Value) -> Result<Value, RpcError> {
        let h = self.begin_call(ctx, op, args);
        self.wait(ctx, h)
    }

    /// Drives the channel until every staged call has settled. Results
    /// stay claimable through [`Channel::wait`] (which then returns
    /// immediately).
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown.
    pub fn wait_all(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        self.pump(ctx, None)
    }

    /// Non-blocking progress: sends staged calls, fires due timers, and
    /// absorbs whatever already sits in the mailbox. The write-behind
    /// path of the caching proxy calls this between invocations.
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown.
    pub fn poll(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        self.poll_inner(ctx, None)
    }

    /// Like [`Channel::poll`], for a process that drives several
    /// channels: a reply for a call id this channel never issued is
    /// handed back instead of counted stale, because call ids are unique
    /// per process and a sibling channel may own it. Give each one to
    /// the channel that [`owns`](Channel::owns) its id with
    /// [`Channel::deliver`].
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown.
    pub fn poll_shared(&mut self, ctx: &mut Ctx) -> Result<Vec<(Endpoint, Reply)>, RpcError> {
        let mut foreign = Vec::new();
        self.poll_inner(ctx, Some(&mut foreign))?;
        Ok(foreign)
    }

    fn poll_inner(
        &mut self,
        ctx: &mut Ctx,
        mut foreign: Option<&mut Vec<(Endpoint, Reply)>>,
    ) -> Result<(), RpcError> {
        self.flush(ctx);
        self.expire(ctx);
        while let Some(msg) = ctx.try_recv()? {
            self.on_message(ctx, msg, foreign.as_deref_mut());
        }
        self.flush(ctx);
        Ok(())
    }

    /// Delivers a reply that a sibling channel absorbed (see
    /// [`Channel::poll_shared`]). A reply this channel does not own
    /// either counts as stale.
    pub fn deliver(&mut self, ctx: &mut Ctx, src: Endpoint, rep: Reply) {
        self.on_reply(ctx, rep, src, None);
    }

    /// Claims the result of a settled call without blocking, consuming
    /// its slot. Returns `None` while the call is still in flight; a
    /// reaped or unknown handle reports `Some(Err(Timeout))`, matching
    /// [`Channel::wait`].
    pub fn try_take(&mut self, h: CallHandle) -> Option<Result<Value, RpcError>> {
        if !self.is_settled(h) {
            return None;
        }
        Some(match self.calls.remove(&h.0) {
            Some(CallRec {
                state: CallState::Done(result),
                ..
            }) => result.map_err(RpcError::Remote),
            _ => Err(RpcError::Timeout {
                attempts: self.cfg.policy.max_attempts,
            }),
        })
    }

    /// The earliest retransmission deadline among in-flight calls, or
    /// `None` when nothing is outstanding. Poll-driven callers arm a
    /// timer wake at this instant before parking, so retransmits and
    /// final timeouts fire even if no reply ever arrives.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.calls
            .values()
            .filter(|r| matches!(r.state, CallState::Outstanding))
            .map(|r| r.deadline)
            .min()
    }

    /// Poll-driven analogue of [`Channel::wait`]: drives the channel as
    /// far as it can without blocking, and either yields the settled
    /// result or registers the wakes that complete it — the reply
    /// delivery itself (every delivery polls a parked process) plus a
    /// timer at the next retransmission deadline.
    ///
    /// Completed calls settle via the *completion wake* of the reply
    /// datagram; there is no condvar and no parked thread.
    pub fn poll_wait(
        &mut self,
        cx: &mut simnet::ProcCx,
        h: CallHandle,
    ) -> simnet::Poll<Result<Value, RpcError>> {
        if let Err(e) = self.poll(cx.ctx()) {
            return simnet::Poll::Ready(Err(e));
        }
        // Arm the earliest retransmit deadline *before* checking for
        // completion: when this call settles, a sibling pipelined call
        // may still be outstanding, and this poll may be the last one
        // the process makes before parking. Arming only on the Pending
        // path would leave that sibling with no timer — a lost wakeup,
        // not a slowdown. A wake for a deadline that retransmission
        // later supersedes is harmless: the timer is gen-stale by the
        // time it fires.
        if let Some(dl) = self.next_deadline() {
            cx.wake_at(dl);
        }
        match self.try_take(h) {
            Some(result) => simnet::Poll::Ready(result),
            None => simnet::Poll::Pending,
        }
    }

    /// Takes the one-way and request datagrams that arrived while the
    /// channel was pumping, in arrival order. Callers route one-ways
    /// (invalidations, recalls) to their proxies and requeue requests
    /// for service.
    pub fn take_strays(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.strays)
    }

    /// Discards the strays a caller has no use for, counting each one.
    pub fn discard_strays(&mut self, ctx: &Ctx) {
        for _ in self.strays.drain(..) {
            self.stats.discarded += 1;
            ctx.obs().on_stray_dropped();
        }
    }

    /// Discards every settled call record without claiming its result
    /// and returns how many were dropped. Fire-and-forget users (the
    /// caching proxy's write-behind path) call this so unclaimed
    /// results do not accumulate; a later [`Channel::wait`] on a reaped
    /// handle reports a timeout.
    pub fn reap_settled(&mut self) -> usize {
        let before = self.calls.len();
        self.calls
            .retain(|_, r| !matches!(r.state, CallState::Done(_) | CallState::TimedOut));
        before - self.calls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_builds() {
        let c = ChannelConfig::with_depth(0);
        let ch = Channel::new(
            "svc",
            Endpoint::new(simnet::NodeId(0), simnet::PortId(1)),
            c.batched(0),
        );
        assert_eq!(ch.cfg.pipeline_depth, 1, "depth clamped to 1");
        assert_eq!(ch.cfg.max_batch, 1, "batch clamped to 1");
        assert_eq!(ch.outstanding(), 0);
        assert_eq!(ch.queued(), 0);
    }

    #[test]
    fn unknown_handle_is_settled() {
        let ch = Channel::new(
            "svc",
            Endpoint::new(simnet::NodeId(0), simnet::PortId(1)),
            ChannelConfig::default(),
        );
        assert!(ch.is_settled(CallHandle(99)));
    }
}
