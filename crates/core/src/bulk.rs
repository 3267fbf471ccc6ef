//! The out-of-band bulk data plane: pass-by-reference payloads.
//!
//! The paper's proxy encapsulates the service's distribution strategy —
//! *including how bytes move*. Inline marshalling ships a 1 MB value
//! over the same framed RPC path as a 40-byte control message, bloating
//! retransmit cost and tail latency. This module implements the
//! ProxyStore-style alternative: payloads above a spill threshold are
//! uploaded (chunked, pipelined) to a blob-store service and replaced on
//! the RPC path by a fixed-size [`wire::Value::Ref`] handle; whoever
//! actually touches the value fetches the bytes out-of-band, optionally
//! through a region-local edge cache. Client code sees plain blobs on
//! both ends — the substitution happens inside the proxy, which is
//! exactly the encapsulation the paper argues for.
//!
//! The pieces:
//!
//! * [`ops`] — the chunked blob protocol op names, shared by
//!   [`BlobClient`] and any service implementing the store side.
//! * [`BulkParams`] — the spill/transfer contract a service publishes in
//!   its [`crate::ProxySpec::Bulk`] binding metadata. Writer and reader
//!   must agree on the chunk size, so it rides the spec.
//! * [`BlobClient`] — chunked put/get over the pipelined
//!   [`rpc::Channel`], with whole-payload length + CRC verification.
//! * [`BulkEngine`] — the spill/resolve walkers a proxy wraps around its
//!   calls, plus the region routing that sends resolution to an edge
//!   cache instead of the origin.

use std::collections::HashMap;

use bytes::Bytes;
use naming::NameClient;
use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, Endpoint};
use wire::{BlobRef, Value};

use crate::proxy::OnewaySink;

/// Blob-store protocol operation names.
pub mod ops {
    /// Uploads one chunk: `{key, seq, total, len, crc, data}` — a write,
    /// tagged by `key` so cache invalidation rides the normal path.
    pub const PUT_CHUNK: &str = "put_chunk";
    /// Fetches one chunk: `{key, seq}` → `{data}` — a read, tagged by
    /// `key`.
    pub const GET_CHUNK: &str = "get_chunk";
    /// Reads a key's metadata: `{key}` → `{len, crc, chunks}`.
    pub const STAT: &str = "stat";
    /// Deletes a key: `{key}` — a write, tagged by `key`.
    pub const DEL: &str = "del";
}

/// Payload size above which a proxy spills a blob out-of-band instead of
/// marshalling it inline. Below this, the ref handle plus the extra
/// out-of-band round trip cost more than just shipping the bytes.
pub const DEFAULT_THRESHOLD: usize = 4 * 1024;

/// Default transfer chunk size, tuned to `simnet::net`'s bandwidth
/// model: on the WAN profile (10 ns/byte, 20 ms one-way) a 64 KiB chunk
/// costs ~0.65 ms of serialization against a 20 ms propagation delay, so
/// a modest pipeline depth keeps the link busy while each retransmit
/// unit stays small; on the LAN profile (1 ns/byte) per-message overhead
/// is amortized across 64 KiB of useful bytes.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// Largest chunk a blob store accepts in one `put_chunk` (hostile-size
/// guard on the server side; the wire-level companion is
/// [`wire::MAX_BULK_LEN`] on a ref's declared total length).
pub const MAX_CHUNK: usize = 1 << 20;

/// The bulk plane's contract between a service and its clients' proxies.
///
/// Published inside [`crate::ProxySpec::Bulk`] so both the writer (who
/// chunks uploads) and every reader (who computes chunk counts from a
/// ref's declared length) agree on the same parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkParams {
    /// Service name of the blob store holding spilled payloads.
    pub store: String,
    /// Spill payloads strictly larger than this many bytes.
    pub threshold: usize,
    /// Transfer chunk size in bytes.
    pub chunk: usize,
    /// Pipeline depth for chunked transfers.
    pub depth: usize,
}

impl Default for BulkParams {
    fn default() -> BulkParams {
        BulkParams {
            store: "blob".to_owned(),
            threshold: DEFAULT_THRESHOLD,
            chunk: DEFAULT_CHUNK,
            depth: 8,
        }
    }
}

impl BulkParams {
    /// Encodes the params for binding metadata.
    pub fn to_value(&self) -> Value {
        Value::record([
            ("store", Value::str(self.store.clone())),
            ("threshold", Value::U64(self.threshold as u64)),
            ("chunk", Value::U64(self.chunk as u64)),
            ("depth", Value::U64(self.depth as u64)),
        ])
    }

    /// Decodes params from binding metadata.
    ///
    /// # Errors
    ///
    /// [`wire::WireError`] for missing or malformed fields.
    pub fn from_value(v: &Value) -> Result<BulkParams, wire::WireError> {
        Ok(BulkParams {
            store: v.get_str("store")?.to_owned(),
            threshold: v.get_u64("threshold")? as usize,
            chunk: (v.get_u64("chunk")? as usize).clamp(1, MAX_CHUNK),
            depth: (v.get_u64("depth")? as usize).max(1),
        })
    }
}

fn remote(code: ErrorCode, msg: impl Into<String>) -> RpcError {
    RpcError::Remote(RemoteError::new(code, msg.into()))
}

/// Chunked blob transfer over the pipelined [`rpc::Channel`].
///
/// One client per store service; the endpoint is resolved through the
/// name service on first use and cached (a stale endpoint surfaces as a
/// per-call error and is re-resolved on the next call). So is the
/// channel to it, which carries its RTT estimate from one transfer to
/// the next.
#[derive(Debug)]
pub struct BlobClient {
    store: String,
    ns: NameClient,
    server: Option<Endpoint>,
    /// Idle between transfers; a failed transfer drops it.
    channel: Option<Channel>,
    chunk: usize,
    depth: usize,
}

impl BlobClient {
    /// Creates a client for the blob store registered under `store`,
    /// resolving through the name server at `ns`.
    pub fn new(store: impl Into<String>, ns: Endpoint, chunk: usize, depth: usize) -> BlobClient {
        BlobClient {
            store: store.into(),
            ns: NameClient::new(ns),
            server: None,
            channel: None,
            chunk: chunk.clamp(1, MAX_CHUNK),
            depth: depth.max(1),
        }
    }

    /// The store service this client talks to.
    pub fn store(&self) -> &str {
        &self.store
    }

    fn endpoint(&mut self, ctx: &mut Ctx) -> Result<Endpoint, RpcError> {
        if let Some(ep) = self.server {
            return Ok(ep);
        }
        let rec = self.ns.resolve(ctx, &self.store)?;
        self.server = Some(rec.endpoint);
        Ok(rec.endpoint)
    }

    /// Takes the channel to the store for one transfer, building a new
    /// one when there is none or the store's endpoint changed. A
    /// transfer that succeeds puts it back, so the RTT estimate learned
    /// on one transfer times the next.
    fn channel(&mut self, ctx: &mut Ctx) -> Result<Channel, RpcError> {
        let ep = self.endpoint(ctx)?;
        if let Some(ch) = self.channel.take().filter(|ch| ch.server() == ep) {
            return Ok(ch);
        }
        // Bulk transfers are throughput-bound, not latency-bound: a
        // pipelined chunk fetch legitimately queues behind its window
        // predecessors at the store (or behind a cold edge cache's
        // serial origin misses over the WAN). The channel's estimate
        // learns that delay, but only from replies; 50 ms is the first
        // RTO and its floor, and 8 exponentially backed-off attempts
        // keep a call alive while the estimate is still low — the
        // LAN-sized default policy would give up on calls the server
        // fully intends to answer.
        let policy = rpc::RetryPolicy::exponential(std::time::Duration::from_millis(50), 8);
        Ok(Channel::new(
            self.store.clone(),
            ep,
            ChannelConfig::with_depth(self.depth).with_policy(policy),
        ))
    }

    /// Uploads `data` under `key`, chunked and pipelined, and returns the
    /// reference handle to ship on the RPC path.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the transfer; on error the upload may be
    /// partially applied (a later upload under a fresh key supersedes it).
    pub fn put(
        &mut self,
        ctx: &mut Ctx,
        key: &str,
        data: &Bytes,
        strays: &mut dyn OnewaySink,
    ) -> Result<BlobRef, RpcError> {
        let crc = wire::crc32(data);
        let total = data.len().div_ceil(self.chunk).max(1) as u64;
        let mut ch = self.channel(ctx)?;
        let handles: Vec<_> = (0..total)
            .map(|seq| {
                let start = seq as usize * self.chunk;
                let end = (start + self.chunk).min(data.len());
                ch.begin_call(
                    ctx,
                    ops::PUT_CHUNK,
                    Value::record([
                        ("key", Value::str(key)),
                        ("seq", Value::U64(seq)),
                        ("total", Value::U64(total)),
                        ("len", Value::U64(data.len() as u64)),
                        ("crc", Value::U64(u64::from(crc))),
                        ("data", Value::Blob(data.slice(start..end))),
                    ]),
                )
            })
            .collect();
        ch.wait_all(ctx)?;
        let mut result = Ok(());
        for h in handles {
            if let Err(e) = ch.wait(ctx, h) {
                result = Err(e);
            }
        }
        crate::proxy::route_strays(ctx, &mut ch, strays);
        if let Err(e) = result {
            self.server = None;
            return Err(e);
        }
        self.channel = Some(ch);
        Ok(BlobRef {
            store: self.store.clone().into(),
            key: key.into(),
            len: data.len() as u64,
            crc,
        })
    }

    /// Fetches the payload a reference points at, chunked and pipelined,
    /// verifying the reassembled bytes against the ref's declared length
    /// and CRC.
    ///
    /// The chunk count is computed from the ref's length and this
    /// client's chunk size — the shared [`BulkParams`] contract; a
    /// mismatch surfaces as a verification failure, never silent
    /// corruption.
    ///
    /// # Errors
    ///
    /// Any transfer [`RpcError`]; [`ErrorCode::App`] if the reassembled
    /// payload fails length or CRC verification.
    pub fn get(
        &mut self,
        ctx: &mut Ctx,
        r: &BlobRef,
        strays: &mut dyn OnewaySink,
    ) -> Result<Bytes, RpcError> {
        if r.len > wire::MAX_BULK_LEN {
            return Err(remote(
                ErrorCode::BadArgs,
                format!("ref declares {} bytes, over MAX_BULK_LEN", r.len),
            ));
        }
        let total = (r.len as usize).div_ceil(self.chunk).max(1) as u64;
        let mut ch = self.channel(ctx)?;
        let handles: Vec<_> = (0..total)
            .map(|seq| {
                ch.begin_call(
                    ctx,
                    ops::GET_CHUNK,
                    Value::record([
                        ("key", Value::str(r.key.as_str())),
                        ("seq", Value::U64(seq)),
                    ]),
                )
            })
            .collect();
        ch.wait_all(ctx)?;
        let mut buf = Vec::with_capacity(r.len as usize);
        let mut result = Ok(());
        for h in handles {
            match ch.wait(ctx, h) {
                Ok(rep) => match rep.get_blob("data") {
                    Ok(b) => buf.extend_from_slice(b),
                    Err(e) => result = Err(RpcError::Wire(e)),
                },
                Err(e) => result = Err(e),
            }
        }
        crate::proxy::route_strays(ctx, &mut ch, strays);
        if let Err(e) = result {
            self.server = None;
            return Err(e);
        }
        self.channel = Some(ch);
        if buf.len() as u64 != r.len {
            return Err(remote(
                ErrorCode::App,
                format!(
                    "bulk payload {}: reassembled {} bytes, ref declares {} \
                     (chunk-size contract violated?)",
                    r.key,
                    buf.len(),
                    r.len
                ),
            ));
        }
        if wire::crc32(&buf) != r.crc {
            return Err(remote(
                ErrorCode::App,
                format!("bulk payload {}: CRC mismatch after reassembly", r.key),
            ));
        }
        Ok(Bytes::from(buf))
    }

    /// Deletes `key` from the store.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from the call.
    pub fn del(
        &mut self,
        ctx: &mut Ctx,
        key: &str,
        strays: &mut dyn OnewaySink,
    ) -> Result<(), RpcError> {
        let mut ch = self.channel(ctx)?;
        let h = ch.begin_call(ctx, ops::DEL, Value::record([("key", Value::str(key))]));
        ch.wait_all(ctx)?;
        let r = ch.wait(ctx, h).map(drop);
        crate::proxy::route_strays(ctx, &mut ch, strays);
        if r.is_ok() {
            self.channel = Some(ch);
        }
        r
    }
}

/// The spill/resolve engine a proxy wraps around its calls.
///
/// Outbound, [`BulkEngine::spill`] walks the argument tree and replaces
/// every blob above the threshold with a [`Value::Ref`] after uploading
/// the bytes to the configured store. Inbound, [`BulkEngine::resolve`]
/// walks a reply and replaces every ref with the fetched bytes — from
/// the ref's own store by default, or from a region-local edge cache
/// when a route override is set ([`BulkEngine::set_route`]). Client code
/// above the proxy sees plain blobs in both directions.
#[derive(Debug)]
pub struct BulkEngine {
    params: BulkParams,
    ns: Endpoint,
    route: Option<String>,
    clients: HashMap<String, BlobClient>,
    /// Payloads spilled out-of-band by this engine.
    pub spills: u64,
    /// References resolved out-of-band by this engine.
    pub resolves: u64,
    /// Total bytes moved off the RPC path by spills.
    pub bytes_spilled: u64,
    /// Total bytes fetched out-of-band by resolves.
    pub bytes_resolved: u64,
}

impl BulkEngine {
    /// Creates an engine with the given contract, resolving store names
    /// through the name server at `ns`.
    pub fn new(params: BulkParams, ns: Endpoint) -> BulkEngine {
        BulkEngine {
            params,
            ns,
            route: None,
            clients: HashMap::new(),
            spills: 0,
            resolves: 0,
            bytes_spilled: 0,
            bytes_resolved: 0,
        }
    }

    /// The engine's contract.
    pub fn params(&self) -> &BulkParams {
        &self.params
    }

    /// Routes *resolution* to a region-local service (an edge cache
    /// layered over the origin store) instead of the store named in each
    /// ref. Spills still go to the origin store — writes must land where
    /// invalidations originate.
    pub fn set_route(&mut self, route: Option<String>) {
        self.route = route;
    }

    fn client(&mut self, service: &str) -> &mut BlobClient {
        let (chunk, depth, ns) = (self.params.chunk, self.params.depth, self.ns);
        self.clients
            .entry(service.to_owned())
            .or_insert_with(|| BlobClient::new(service, ns, chunk, depth))
    }

    /// Whether a value tree contains any blob that would spill.
    pub fn wants_spill(&self, v: &Value) -> bool {
        match v {
            Value::Blob(b) => b.len() > self.params.threshold,
            Value::List(items) => items.iter().any(|i| self.wants_spill(i)),
            Value::Record(fields) => fields.iter().any(|(_, i)| self.wants_spill(i)),
            _ => false,
        }
    }

    /// Whether a value tree contains any reference to resolve.
    pub fn wants_resolve(v: &Value) -> bool {
        match v {
            Value::Ref(_) => true,
            Value::List(items) => items.iter().any(Self::wants_resolve),
            Value::Record(fields) => fields.iter().any(|(_, i)| Self::wants_resolve(i)),
            _ => false,
        }
    }

    /// Replaces every over-threshold blob in `v` with a reference after
    /// uploading its bytes to the origin store. Spill keys are unique per
    /// upload (endpoint + sequence), so spilled content is immutable:
    /// overwriting a logical value creates a fresh key rather than
    /// mutating a published one.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from an upload; already-spilled siblings stay
    /// uploaded (orphans are garbage, collectible via [`ops::DEL`]).
    pub fn spill(
        &mut self,
        ctx: &mut Ctx,
        v: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        match v {
            Value::Blob(b) if b.len() > self.params.threshold => {
                let key = format!("s/{}/{}", ctx.endpoint(), ctx.next_seq());
                let store = self.params.store.clone();
                let r = self.client(&store).put(ctx, &key, &b, strays)?;
                self.spills += 1;
                self.bytes_spilled += b.len() as u64;
                Ok(Value::Ref(r))
            }
            Value::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.spill(ctx, item, strays)?);
                }
                Ok(Value::List(out))
            }
            Value::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (k, item) in fields {
                    out.push((k, self.spill(ctx, item, strays)?));
                }
                Ok(Value::Record(out))
            }
            other => Ok(other),
        }
    }

    /// Replaces every reference in `v` with the fetched payload bytes.
    ///
    /// # Errors
    ///
    /// Any [`RpcError`] from a fetch, including verification failures.
    pub fn resolve(
        &mut self,
        ctx: &mut Ctx,
        v: Value,
        strays: &mut dyn OnewaySink,
    ) -> Result<Value, RpcError> {
        match v {
            Value::Ref(r) => {
                let service = match &self.route {
                    Some(route) => route.clone(),
                    None => r.store.as_str().to_owned(),
                };
                let bytes = self.client(&service).get(ctx, &r, strays)?;
                self.resolves += 1;
                self.bytes_resolved += bytes.len() as u64;
                Ok(Value::Blob(bytes))
            }
            Value::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.resolve(ctx, item, strays)?);
                }
                Ok(Value::List(out))
            }
            Value::Record(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (k, item) in fields {
                    out.push((k, self.resolve(ctx, item, strays)?));
                }
                Ok(Value::Record(out))
            }
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_roundtrip() {
        let p = BulkParams {
            store: "blob-origin".into(),
            threshold: 1000,
            chunk: 32 * 1024,
            depth: 4,
        };
        assert_eq!(BulkParams::from_value(&p.to_value()).unwrap(), p);
        // Hostile values are clamped into the legal range.
        let hostile = Value::record([
            ("store", Value::str("s")),
            ("threshold", Value::U64(10)),
            ("chunk", Value::U64(u64::MAX)),
            ("depth", Value::U64(0)),
        ]);
        let parsed = BulkParams::from_value(&hostile).unwrap();
        assert_eq!(parsed.chunk, MAX_CHUNK);
        assert_eq!(parsed.depth, 1);
    }

    #[test]
    fn spill_predicate_walks_the_tree() {
        let ns = Endpoint::new(simnet::NodeId(0), simnet::PortId(1));
        let eng = BulkEngine::new(
            BulkParams {
                threshold: 8,
                ..BulkParams::default()
            },
            ns,
        );
        assert!(!eng.wants_spill(&Value::blob(vec![0u8; 8])));
        assert!(eng.wants_spill(&Value::blob(vec![0u8; 9])));
        assert!(eng.wants_spill(&Value::record([(
            "deep",
            Value::list([Value::blob(vec![0u8; 64])]),
        )])));
        assert!(!eng.wants_spill(&Value::str("small")));
        assert!(BulkEngine::wants_resolve(&Value::list([Value::blob_ref(
            "s", "k", 1, 2
        )])));
        assert!(!BulkEngine::wants_resolve(&Value::blob(vec![1, 2])));
    }
}
