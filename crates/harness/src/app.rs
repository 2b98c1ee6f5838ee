//! Recording application used by most experiments.
//!
//! Remembers every FUSE event with its timestamp, and implements the tiny
//! request/response protocol behind the paper's RPC calibration experiment
//! (Figure 6).

use bytes::Bytes;

use fuse_core::{
    CreateError, CreateTicket, FuseApi, FuseApp, FuseEvent, FuseId, GroupHandle, Notification,
};
use fuse_sim::{ProcId, SimDuration, SimTime};
use fuse_util::DetHashMap;
use fuse_wire::{Decode, Encode};

const RPC_REQUEST: u8 = 1;
const RPC_REPLY: u8 = 2;

/// Test/experiment application: records events, answers RPCs.
#[derive(Default)]
pub struct RecorderApp {
    /// Every FUSE event, timestamped.
    pub events: Vec<(SimTime, FuseEvent)>,
    /// Outstanding RPCs by nonce.
    outstanding: DetHashMap<u64, SimTime>,
    /// Completed RPC round-trip times.
    pub rpc_rtts: Vec<(SimTime, SimDuration)>,
}

impl RecorderApp {
    /// Fresh recorder.
    pub fn new() -> Self {
        RecorderApp::default()
    }

    /// Starts an RPC to `to`; the RTT lands in [`RecorderApp::rpc_rtts`].
    pub fn start_rpc(&mut self, api: &mut FuseApi<'_>, to: ProcId, nonce: u64) {
        self.outstanding.insert(nonce, api.now());
        api.send_app(to, (RPC_REQUEST, nonce).to_bytes());
    }

    /// Failure timestamps recorded for `id`.
    pub fn failures(&self, id: FuseId) -> Vec<SimTime> {
        self.notifications(id).into_iter().map(|(t, _)| t).collect()
    }

    /// Reason-carrying failure notifications recorded for `id`.
    pub fn notifications(&self, id: FuseId) -> Vec<(SimTime, Notification)> {
        self.events
            .iter()
            .filter_map(|&(t, ev)| match ev {
                FuseEvent::Notified(n) if n.id == id => Some((t, n)),
                _ => None,
            })
            .collect()
    }

    /// The `Created` result for `ticket`, if it arrived.
    pub fn created_result(&self, ticket: CreateTicket) -> Option<Result<GroupHandle, CreateError>> {
        self.events.iter().find_map(|(_, ev)| match ev {
            FuseEvent::Created { ticket: t, result } if *t == ticket => Some(*result),
            _ => None,
        })
    }

    /// Time at which `Created` for `ticket` arrived.
    pub fn created_at(&self, ticket: CreateTicket) -> Option<SimTime> {
        self.events.iter().find_map(|(t, ev)| match ev {
            FuseEvent::Created { ticket: tk, .. } if *tk == ticket => Some(*t),
            _ => None,
        })
    }
}

impl FuseApp for RecorderApp {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        self.events.push((api.now(), ev));
    }

    fn on_app_message(&mut self, api: &mut FuseApi<'_>, from: ProcId, payload: Bytes) {
        let mut r = fuse_wire::codec::Reader::new(&payload);
        let Ok(tag) = u8::decode(&mut r) else { return };
        let Ok(nonce) = u64::decode(&mut r) else {
            return;
        };
        match tag {
            RPC_REQUEST => {
                api.send_app(from, (RPC_REPLY, nonce).to_bytes());
            }
            RPC_REPLY => {
                if let Some(sent) = self.outstanding.remove(&nonce) {
                    self.rpc_rtts.push((api.now(), api.now().since(sent)));
                }
            }
            _ => {}
        }
    }
}
