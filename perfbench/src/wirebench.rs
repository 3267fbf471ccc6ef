//! Post-run timings of the public wire functions on the workload's own
//! request and reply values.

use std::hint::black_box;
use std::time::Instant;

use simnet::{Endpoint, NodeId, PortId};
use wire::Value;

use crate::span::{Recorder, ROOT_WIRE};

/// Per-operation host costs, each the mean over the workload's messages
/// of the median per-call time of a few timed batches.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub frame_ns: f64,
    pub unframe_ns: f64,
    pub crc_ns_per_kib: f64,
}

impl WireCosts {
    /// One message sent and received: framed (encode + CRC) on one side,
    /// unframed (CRC + decode) on the other.
    pub fn per_message_ns(&self) -> f64 {
        self.frame_ns + self.unframe_ns
    }
}

const BATCHES: usize = 5;
/// Host time one batch aims for.
const BATCH_NS: u64 = 2_000_000;

/// Median per-call nanoseconds of `f` over a few timed batches; each
/// batch is one span named `name`.
fn time_op(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    // Calibrate the batch length on one timed call.
    let t0 = Instant::now();
    f();
    let one = (t0.elapsed().as_nanos() as u64).max(1);
    let iters = (BATCH_NS / one).clamp(1, 1_000_000);
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let open = rec.open();
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        rec.close(open, name, ROOT_WIRE, 0);
    }
    crate::stats::median(&per_call).unwrap_or(0.0)
}

/// Times encode / decode_bytes / frame / unframe_bytes on each message
/// and CRC-32 on a 64 KiB buffer.
pub fn measure(messages: &[Value], rec: &mut Recorder) -> WireCosts {
    let root = rec.open_root(ROOT_WIRE);
    let mut c = WireCosts::default();
    for m in messages {
        let encoded = wire::encode(m);
        let framed = wire::frame(m);
        c.encode_ns += time_op(rec, "wire.encode", || {
            black_box(wire::encode(black_box(m)));
        });
        c.decode_ns += time_op(rec, "wire.decode", || {
            black_box(wire::decode_bytes(black_box(&encoded)).ok());
        });
        c.frame_ns += time_op(rec, "wire.frame", || {
            black_box(wire::frame(black_box(m)));
        });
        c.unframe_ns += time_op(rec, "wire.unframe", || {
            black_box(wire::unframe_bytes(black_box(&framed)).ok());
        });
    }
    let n = messages.len().max(1) as f64;
    c.encode_ns /= n;
    c.decode_ns /= n;
    c.frame_ns /= n;
    c.unframe_ns /= n;
    let buf: Vec<u8> = (0..64 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    c.crc_ns_per_kib = time_op(rec, "wire.crc", || {
        black_box(wire::crc32(black_box(&buf)));
    }) / 64.0;
    rec.close(root, "wire", 0, 0);
    c
}

/// A request envelope as the RPC layer would send it.
pub fn request(op: &str, args: Value) -> Value {
    rpc::Request {
        call_id: 48_611,
        reply_to: Endpoint::new(NodeId(9), PortId(40_001)),
        object: String::new(),
        op: op.to_owned(),
        args,
        span: 0,
    }
    .to_value()
}

/// A successful reply envelope.
pub fn reply(result: Value) -> Value {
    rpc::Reply {
        call_id: 48_611,
        result: Ok(result),
        span: 0,
    }
    .to_value()
}
