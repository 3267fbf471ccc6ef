//! The DSM manager: the page directory.
//!
//! Tracks, for every page, whether it is unmapped, shared by a copyset
//! of reader contexts, or exclusively owned by one writer context — and
//! orchestrates the transitions by calling the affected pagers
//! *synchronously* before granting a new mapping. That ordering is what
//! makes the protocol single-writer/multiple-reader at every instant.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use rpc::{
    endpoint_from_value, Channel, ChannelConfig, ErrorCode, Packet, RemoteError, Request, RpcError,
    RpcServer, Served,
};
use simnet::{Ctx, Endpoint, Message, NodeId, Simulation};
use wire::Value;

use crate::{proto, PageId};

/// Counters accumulated by the manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Read-mapping grants.
    pub ro_grants: u64,
    /// Exclusive-mapping grants.
    pub rw_grants: u64,
    /// Downgrades performed (exclusive → shared).
    pub downgrades: u64,
    /// Read copies invalidated.
    pub invalidations: u64,
    /// Exclusive mappings surrendered (ownership transfers).
    pub surrenders: u64,
}

#[derive(Debug, Clone)]
enum PageState {
    /// Home copy is authoritative; `copyset` holds reader pagers.
    Shared { data: Bytes, copyset: Vec<Endpoint> },
    /// One context may write; its pager holds the only valid bytes.
    Exclusive { owner: Endpoint },
}

struct Manager {
    page_size: usize,
    pages: HashMap<PageId, PageState>,
    requeued: VecDeque<Message>,
    stats: ManagerStats,
}

fn page_arg(args: &Value) -> Result<PageId, RemoteError> {
    let n = args
        .get_u64("page")
        .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
    Ok(PageId(u32::try_from(n).map_err(|_| {
        RemoteError::new(ErrorCode::BadArgs, "page id out of range")
    })?))
}

fn pager_arg(args: &Value) -> Result<Endpoint, RemoteError> {
    endpoint_from_value(
        args.get("pager")
            .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "missing pager"))?,
    )
    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))
}

impl Manager {
    /// Calls a pager, requeueing any app requests that arrive meanwhile.
    ///
    /// A grant reply and a subsequent coherence request race on the
    /// network: the manager may demand a surrender/downgrade before the
    /// target app has even received the grant that creates the mapping.
    /// The pager answers `NoSuchObject` in that window, so coherence
    /// calls retry briefly until the mapping lands — the standard
    /// in-flight-grant resolution in directory-based DSM protocols.
    fn call_pager(
        &mut self,
        ctx: &mut Ctx,
        pager: Endpoint,
        op: &str,
        page: PageId,
    ) -> Result<Value, RpcError> {
        let mut rpc = Channel::new("pager", pager, ChannelConfig::with_depth(1));
        for _attempt in 0..32 {
            let result = rpc.call(
                ctx,
                op,
                Value::record([("page", Value::U64(page.0.into()))]),
            );
            for m in rpc.take_strays() {
                match Packet::from_frame(&m.payload) {
                    Ok(Packet::Request(_)) => self.requeued.push_back(m),
                    _ => ctx.obs().on_stray_dropped(),
                }
            }
            match result {
                Err(RpcError::Remote(ref e))
                    if e.code == ErrorCode::NoSuchObject && op != proto::OP_INVALIDATE =>
                {
                    // Grant still in flight to that context; let it land.
                    if ctx.sleep(std::time::Duration::from_millis(1)).is_err() {
                        return result;
                    }
                }
                other => return other,
            }
        }
        Err(RpcError::Remote(RemoteError::new(
            ErrorCode::Unavailable,
            format!("{op} for {page} never became possible"),
        )))
    }

    fn fetch_ro(
        &mut self,
        ctx: &mut Ctx,
        page: PageId,
        pager: Endpoint,
    ) -> Result<Value, RemoteError> {
        let state = self.pages.remove(&page).unwrap_or(PageState::Shared {
            data: Bytes::from(vec![0u8; self.page_size]),
            copyset: Vec::new(),
        });
        let (data, mut copyset) = match state {
            PageState::Shared { data, copyset } => (data, copyset),
            PageState::Exclusive { owner } => {
                // Demote the writer so both can read.
                let bytes = self
                    .call_pager(ctx, owner, proto::OP_DOWNGRADE, page)
                    .map_err(|e| {
                        RemoteError::new(ErrorCode::Unavailable, format!("downgrade failed: {e}"))
                    })?;
                self.stats.downgrades += 1;
                let data = bytes
                    .as_blob()
                    .cloned()
                    .unwrap_or_else(|| Bytes::from(vec![0u8; self.page_size]));
                (data, vec![owner])
            }
        };
        if !copyset.contains(&pager) {
            copyset.push(pager);
        }
        self.stats.ro_grants += 1;
        let reply = Value::blob(data.clone());
        self.pages.insert(page, PageState::Shared { data, copyset });
        Ok(reply)
    }

    fn fetch_rw(
        &mut self,
        ctx: &mut Ctx,
        page: PageId,
        pager: Endpoint,
    ) -> Result<Value, RemoteError> {
        let state = self.pages.remove(&page).unwrap_or(PageState::Shared {
            data: Bytes::from(vec![0u8; self.page_size]),
            copyset: Vec::new(),
        });
        let data = match state {
            PageState::Exclusive { owner } if owner == pager => {
                // Already ours (a lost reply being retried at a higher
                // layer); nothing to transfer.
                self.pages.insert(page, PageState::Exclusive { owner });
                self.stats.rw_grants += 1;
                return Ok(Value::Null);
            }
            PageState::Exclusive { owner } => {
                let bytes = self
                    .call_pager(ctx, owner, proto::OP_SURRENDER, page)
                    .map_err(|e| {
                        RemoteError::new(ErrorCode::Unavailable, format!("surrender failed: {e}"))
                    })?;
                self.stats.surrenders += 1;
                bytes
                    .as_blob()
                    .cloned()
                    .unwrap_or_else(|| Bytes::from(vec![0u8; self.page_size]))
            }
            PageState::Shared { data, copyset } => {
                // Shoot down every reader except the requester.
                for reader in copyset {
                    if reader == pager {
                        continue;
                    }
                    self.call_pager(ctx, reader, proto::OP_INVALIDATE, page)
                        .map_err(|e| {
                            RemoteError::new(
                                ErrorCode::Unavailable,
                                format!("invalidate failed: {e}"),
                            )
                        })?;
                    self.stats.invalidations += 1;
                }
                data
            }
        };
        self.stats.rw_grants += 1;
        self.pages
            .insert(page, PageState::Exclusive { owner: pager });
        Ok(Value::blob(data))
    }

    fn execute(&mut self, ctx: &mut Ctx, req: &Request) -> Result<Value, RemoteError> {
        match req.op.as_str() {
            proto::OP_FETCH_RO => {
                let page = page_arg(&req.args)?;
                let pager = pager_arg(&req.args)?;
                self.fetch_ro(ctx, page, pager)
            }
            proto::OP_FETCH_RW => {
                let page = page_arg(&req.args)?;
                let pager = pager_arg(&req.args)?;
                self.fetch_rw(ctx, page, pager)
            }
            "_stats" => Ok(Value::record([
                ("ro", Value::U64(self.stats.ro_grants)),
                ("rw", Value::U64(self.stats.rw_grants)),
                ("downgrades", Value::U64(self.stats.downgrades)),
                ("invalidations", Value::U64(self.stats.invalidations)),
                ("surrenders", Value::U64(self.stats.surrenders)),
            ])),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Spawns the DSM manager on `node` with the given page size; returns
/// its endpoint (pass to [`crate::DsmClient::attach`]).
pub fn spawn_dsm_manager(sim: &Simulation, node: NodeId, page_size: usize) -> Endpoint {
    assert!(page_size > 0, "page size must be positive");
    sim.spawn("dsm-manager", node, move |ctx| {
        let mut mgr = Manager {
            page_size,
            pages: HashMap::new(),
            requeued: VecDeque::new(),
            stats: ManagerStats::default(),
        };
        let mut rpc = RpcServer::new();
        loop {
            let msg = match mgr.requeued.pop_front() {
                Some(m) => m,
                None => match ctx.recv() {
                    Ok(m) => m,
                    Err(_) => return,
                },
            };
            let mgr_ref = &mut mgr;
            let served = rpc.handle(ctx, &msg, |ctx, req| mgr_ref.execute(ctx, req));
            let _ = matches!(served, Served::Executed(_));
        }
    })
}
