//! The poll-driven key-value workloads: `kv-lan` and `fleet-mc`.
//!
//! Both drive stub KV shards (`ServiceBuilder` + `ProxySpec::Stub`)
//! through the non-blocking `SessionCore` surface from closed-loop
//! clients: a client issues its next call only when one of its calls
//! settles. `kv-lan` keeps a few long-lived clients with a window of
//! calls in flight on a pipelined channel configured to batch (replies
//! free one pipeline slot at a time, so each flush still sends a single
//! request and `rpc.calls_per_batch` reads 1.0); `fleet-mc` spawns
//! thousands of short-lived stop-and-wait clients over eight scheduler
//! domains, so binding, spawn/retire and the cross-domain merge dominate.
//!
//! Output check: every get returns a value this client put to that key,
//! byte for byte, no older than the last put to the key that completed
//! before the get was issued. A client never has two puts to one key in
//! flight, so "last completed" is well defined.

use std::sync::{Arc, Mutex};

use proxy_core::{AsyncHandle, BindFuture, CallFuture, ProxySpec, ServiceBuilder, SessionCore};
use rpc::ChannelConfig;
use services::kv::KvStore;
use simnet::{NetworkConfig, NodeId, Poll, ProcCx, Process, SimTime};
use wire::Value;

use crate::common::{self, harvest, new_sim, Calls, Observe, Phases, Rep, Rng};
use crate::span::{Recorder, ROOT_RUN};

/// LAN jitter (fraction of the base latency), so that virtual times
/// depend on the seed.
const LAN_JITTER: f64 = 0.05;

/// Length of every value a client puts.
pub const VALUE_LEN: usize = 64;

/// One KV workload's shape.
#[derive(Debug, Clone)]
pub struct Shape {
    pub domains: usize,
    pub threads: usize,
    pub shards: usize,
    pub clients: usize,
    /// Nodes the clients are spread over.
    pub client_nodes: u32,
    /// Calls a client keeps in flight.
    pub window: usize,
    pub calls_per_client: u32,
    pub keys_per_client: u32,
    /// Channel settings for async-bound services (`None`: the default).
    pub channel: Option<ChannelConfig>,
}

impl Shape {
    pub fn kv_lan(small: bool) -> Shape {
        Shape {
            domains: 1,
            threads: 1,
            shards: 2,
            clients: 64,
            client_nodes: 8,
            window: 8,
            calls_per_client: if small { 40 } else { 300 },
            keys_per_client: 8,
            channel: Some(ChannelConfig::with_depth(4).batched(4)),
        }
    }

    pub fn fleet_mc(small: bool) -> Shape {
        Shape {
            domains: 8,
            threads: 2,
            shards: 8,
            clients: if small { 300 } else { 3000 },
            client_nodes: 32,
            window: 1,
            calls_per_client: 4,
            keys_per_client: 2,
            channel: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Get,
}

#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Highest version this client has issued a put for.
    issued: u32,
    /// Version of the last put that completed.
    floor: u32,
    put_inflight: bool,
}

#[derive(Debug)]
struct InFlight {
    fut: CallFuture,
    op: Op,
    key: u32,
    /// The put's version, or the get's floor at issue time.
    ver: u32,
    issued_at: SimTime,
    call: u64,
}

enum Phase {
    Start,
    Binding(BindFuture, SimTime),
    Running(AsyncHandle),
    Done,
}

/// What a finished client hands back.
#[derive(Debug, Default)]
struct ClientOut {
    calls: Calls,
    violations: Vec<String>,
    bind_sim_ns: Option<u64>,
    chan: rpc::ChannelStats,
}

type Sink = Arc<Mutex<Vec<ClientOut>>>;

struct Client {
    core: SessionCore,
    id: usize,
    shard: String,
    phase: Phase,
    rng: Rng,
    keys: Vec<KeyState>,
    inflight: Vec<InFlight>,
    issued: u32,
    target: u32,
    window: usize,
    pad: u8,
    out: ClientOut,
    sink: Sink,
    rec: Recorder,
    /// Id of the open `client.poll` span (parent of the core spans).
    poll_span: u64,
}

/// The value a client puts for `(key, ver)`: self-identifying, padded to
/// [`VALUE_LEN`].
fn make_value(client: usize, key: u32, ver: u32, pad: u8) -> String {
    let mut s = format!("c{client}/k{key}/v{ver}/");
    while s.len() < VALUE_LEN {
        s.push(char::from(b'a' + pad % 26));
    }
    s
}

/// The version of a value this client put to `key`: `Some(0)` for a key
/// never written, `None` unless the whole value is exactly what
/// [`make_value`] gives for the version its prefix names.
fn value_version(v: &Value, client: usize, key: u32, pad: u8) -> Option<u32> {
    if matches!(v, Value::Null) {
        return Some(0);
    }
    let s = v.as_str()?;
    let rest = s.strip_prefix(&format!("c{client}/k{key}/v"))?;
    let ver = rest.split('/').next()?.parse().ok()?;
    (ver > 0 && s == make_value(client, key, ver, pad)).then_some(ver)
}

impl Client {
    fn issue(&mut self, cx: &mut ProcCx, h: AsyncHandle) {
        let nkeys = self.keys.len() as u32;
        let op = if self.rng.below(2) == 0 {
            Op::Put
        } else {
            Op::Get
        };
        let mut key = self.rng.below(u64::from(nkeys)) as u32;
        if op == Op::Put {
            // Never two puts to one key in flight (window <= keys).
            while self.keys[key as usize].put_inflight {
                key = (key + 1) % nkeys;
            }
        }
        let kname = format!("c{}/k{key}", self.id);
        let ks = &mut self.keys[key as usize];
        let (args, opname, ver) = match op {
            Op::Put => {
                ks.issued += 1;
                ks.put_inflight = true;
                let v = make_value(self.id, key, ks.issued, self.pad);
                (
                    Value::record([("key", Value::str(kname)), ("value", Value::str(v))]),
                    "put",
                    ks.issued,
                )
            }
            Op::Get => (Value::record([("key", Value::str(kname))]), "get", ks.floor),
        };
        self.issued += 1;
        self.out.calls.attempted += 1;
        let call = (self.id as u64) << 32 | u64::from(self.issued);
        let open = self.rec.open();
        let fut = self.core.invoke_async(cx, h, opname, args);
        self.rec
            .close(open, "core.invoke_async", self.poll_span, call);
        self.inflight.push(InFlight {
            fut,
            op,
            key,
            ver,
            issued_at: cx.now(),
            call,
        });
    }

    fn settle(&mut self, f: &InFlight, now: SimTime, r: Result<Value, rpc::RpcError>) {
        self.out
            .calls
            .lat_ns
            .push(now.as_nanos() - f.issued_at.as_nanos());
        let ks = &mut self.keys[f.key as usize];
        if f.op == Op::Put {
            ks.put_inflight = false;
        }
        let v = match r {
            Ok(v) => v,
            Err(_) => {
                // Counted against `attempted`, not an output-check failure.
                self.out.calls.failed += 1;
                return;
            }
        };
        self.out.calls.ok += 1;
        match f.op {
            Op::Put => ks.floor = f.ver,
            Op::Get => {
                let seen = value_version(&v, self.id, f.key, self.pad);
                let fine = matches!(seen, Some(s) if s >= f.ver && s <= ks.issued);
                if !fine && self.out.violations.len() < 4 {
                    self.out.violations.push(format!(
                        "client {} key {}: get returned {v:?}, want a version in {}..={}",
                        self.id, f.key, f.ver, ks.issued
                    ));
                }
            }
        }
    }

    /// Polls every in-flight call once per pass until none progresses.
    fn drive(&mut self, cx: &mut ProcCx, h: AsyncHandle) -> Poll<()> {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.inflight.len() {
                let (fut, call) = (self.inflight[i].fut, self.inflight[i].call);
                let open = self.rec.open();
                let r = self.core.poll_call(cx, fut);
                self.rec.close(open, "core.poll_call", self.poll_span, call);
                match r {
                    Poll::Pending => i += 1,
                    Poll::Ready(r) => {
                        let f = self.inflight.swap_remove(i);
                        let now = cx.now();
                        self.settle(&f, now, r);
                        progressed = true;
                    }
                }
            }
            while self.inflight.len() < self.window && self.issued < self.target {
                self.issue(cx, h);
                progressed = true;
            }
            if self.inflight.is_empty() {
                self.out.chan = self.core.async_stats(h);
                return Poll::Ready(());
            }
            if !progressed {
                return Poll::Pending;
            }
        }
    }

    fn step(&mut self, cx: &mut ProcCx) -> Poll<()> {
        loop {
            match self.phase {
                Phase::Start => {
                    let open = self.rec.open();
                    let f = self.core.bind_async(cx, &self.shard);
                    self.rec.close(open, "core.bind_async", self.poll_span, 0);
                    self.phase = Phase::Binding(f, cx.now());
                }
                Phase::Binding(f, t0) => {
                    let open = self.rec.open();
                    let r = self.core.poll_bind(cx, f);
                    self.rec.close(open, "core.poll_bind", self.poll_span, 0);
                    match r {
                        Poll::Pending => return Poll::Pending,
                        Poll::Ready(Ok(h)) => {
                            self.out.bind_sim_ns = Some(cx.now().as_nanos() - t0.as_nanos());
                            self.phase = Phase::Running(h);
                        }
                        Poll::Ready(Err(_)) => {
                            // Every call this client would have made fails.
                            let n = u64::from(self.target);
                            self.out.calls.attempted += n;
                            self.out.calls.failed += n;
                            self.phase = Phase::Done;
                        }
                    }
                }
                Phase::Running(h) => {
                    if self.drive(cx, h).is_pending() {
                        return Poll::Pending;
                    }
                    self.phase = Phase::Done;
                }
                Phase::Done => return Poll::Ready(()),
            }
        }
    }
}

impl Process for Client {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        let open = self.rec.open();
        self.poll_span = open.map_or(0, |o| o.id);
        let r = self.step(cx);
        self.rec.close(open, "client.poll", ROOT_RUN, 0);
        if r.is_ready() {
            self.rec.flush();
            let out = std::mem::take(&mut self.out);
            self.sink
                .lock()
                .expect("a client panicked while holding the result sink")
                .push(out);
        }
        r
    }
}

/// Runs one repetition of a KV workload.
pub fn run_rep(shape: &Shape, seed: u64, obs: &Observe) -> Rep {
    let mut rep = Rep::default();
    let mut ph = Phases::start(obs);
    let net = NetworkConfig::lan().with_jitter(LAN_JITTER);
    let mut sim = new_sim(net, seed, shape.domains, shape.threads, obs);
    let ns = ph.spawn(|| naming::spawn_name_server(&sim, NodeId(0)));
    for s in 0..shape.shards {
        ph.spawn(|| {
            ServiceBuilder::new(format!("kv{s}"))
                .spec(ProxySpec::Stub)
                .object(|| Box::new(KvStore::new()))
                .spawn(&sim, NodeId(1 + s as u32), ns)
        });
    }
    let sink: Sink = Arc::new(Mutex::new(Vec::with_capacity(shape.clients)));
    let first_node = 1 + shape.shards as u32;
    let mut assign = Rng::new(seed, 0xa551_6e00);
    for c in 0..shape.clients {
        let node = NodeId(first_node + (c as u32 % shape.client_nodes));
        let shard = format!("kv{}", assign.below(shape.shards as u64));
        let mut core = SessionCore::new(ns);
        if let Some(cfg) = &shape.channel {
            core = core.with_channel_config(cfg.clone());
        }
        let mut rng = Rng::new(seed, c as u64 + 1);
        let pad = rng.next_u64() as u8;
        let client = Client {
            core,
            id: c,
            shard,
            phase: Phase::Start,
            rng,
            keys: vec![KeyState::default(); shape.keys_per_client as usize],
            inflight: Vec::with_capacity(shape.window),
            issued: 0,
            target: shape.calls_per_client,
            window: shape.window.min(shape.keys_per_client as usize),
            pad,
            out: ClientOut::default(),
            sink: Arc::clone(&sink),
            rec: Recorder::new(obs.tracer.as_ref()),
            poll_span: 0,
        };
        ph.spawn(|| sim.spawn_poll(format!("c{c}"), node, client));
    }
    let report = ph.run(&mut sim, &mut rep);
    harvest(&sim, obs, &mut rep);
    drop(sim);

    let outs = std::mem::take(
        &mut *sink
            .lock()
            .expect("a client panicked while holding the result sink"),
    );
    let mut chan = rpc::ChannelStats::default();
    for o in outs {
        rep.calls.merge(o.calls);
        rep.violations.extend(o.violations);
        rep.bind_sim_ns.extend(o.bind_sim_ns);
        chan.calls += o.chan.calls;
        chan.batches_sent += o.chan.batches_sent;
        chan.batched_calls += o.chan.batched_calls;
        chan.discarded += o.chan.discarded;
    }
    // A client reports only when it finishes, so a short count means
    // some client never did.
    let expected = shape.clients as u64 * u64::from(shape.calls_per_client);
    if rep.calls.attempted != expected {
        rep.violations.push(format!(
            "{} of {expected} calls attempted: not every client finished",
            rep.calls.attempted
        ));
    }
    // Request datagrams the channels sent for first transmissions.
    let datagrams = chan.batches_sent + (chan.calls - chan.batched_calls);
    rep.extra.push((
        "rpc.calls_per_batch",
        chan.calls as f64 / datagrams.max(1) as f64,
    ));
    rep.extra
        .push(("core.channel_discarded", chan.discarded as f64));
    rep.calls.lat_ns.sort_unstable();
    rep.bind_sim_ns.sort_unstable();
    rep.fingerprint = common::fingerprint(&rep, &report);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_identify_client_key_and_version() {
        let v = make_value(12, 3, 7, 5);
        assert_eq!(v.len(), VALUE_LEN);
        let v = Value::str(v);
        assert_eq!(value_version(&v, 12, 3, 5), Some(7));
        assert_eq!(value_version(&v, 12, 4, 5), None);
        assert_eq!(value_version(&v, 1, 3, 5), None);
        assert_eq!(value_version(&Value::Null, 12, 3, 5), Some(0));
    }

    #[test]
    fn a_damaged_value_is_rejected() {
        let good = make_value(12, 3, 7, 5);
        // Another pad: the prefix parses, the payload does not match.
        let other_pad = Value::str(make_value(12, 3, 7, 6));
        assert_eq!(value_version(&other_pad, 12, 3, 5), None);
        // Truncated, and one byte altered near the end.
        let cut = Value::str(&good[..VALUE_LEN - 1]);
        assert_eq!(value_version(&cut, 12, 3, 5), None);
        let mut bytes = good.into_bytes();
        bytes[VALUE_LEN - 2] ^= 1;
        let flipped = Value::str(String::from_utf8(bytes).unwrap());
        assert_eq!(value_version(&flipped, 12, 3, 5), None);
    }
}
