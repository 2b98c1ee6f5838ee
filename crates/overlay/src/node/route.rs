//! Routing and delivery (paper §6.1: every intermediate hop of a routed
//! client message gets an upcall).
//!
//! A routed message moves greedily clockwise: each hop forwards it to the
//! table entry that makes the most progress without passing the target
//! name. It is delivered where the name matches exactly, or, when no
//! entry lies between a hop and the target, at that hop as the owner of
//! the target's ring position. This module writes no table, view or
//! liveness state; it only reads the tables and counts forwards and
//! stalls.

use bytes::Bytes;

use fuse_util::PeerAddr;

use super::{OverlayNode, RouteStart};
use crate::config::ROUTE_TTL;
use crate::id::{NodeInfo, NodeName};
use crate::io::{OverlayCx, OverlayUpcall};
use crate::messages::{OverlayMsg, RoutedClass};

impl OverlayNode {
    /// Routes a client payload toward `target` (per-hop upcalls fire on
    /// intermediate nodes, `Delivered` at the target).
    pub fn route_client(
        &mut self,
        io: &mut OverlayCx<'_>,
        target: &NodeName,
        payload: Bytes,
    ) -> RouteStart {
        if target == self.name() {
            return RouteStart::SelfIsTarget;
        }
        match self.next_hop(target) {
            Some(next) => {
                let msg = self.originate(*target, RoutedClass::Client, payload, Vec::new());
                io.send(next, msg);
                RouteStart::Sent { next }
            }
            None => RouteStart::NoRoute,
        }
    }

    /// A routed message this node starts, with the full TTL.
    pub(super) fn originate(
        &self,
        target: NodeName,
        class: RoutedClass,
        payload: Bytes,
        path: Vec<NodeInfo>,
    ) -> OverlayMsg {
        OverlayMsg::Routed {
            src: *self.info(),
            target,
            ttl: ROUTE_TTL,
            class: class as u8,
            payload,
            path,
        }
    }

    pub(super) fn forward_routed(
        &mut self,
        io: &mut OverlayCx<'_>,
        from: PeerAddr,
        src: NodeInfo,
        target: NodeName,
        ttl: u8,
        class: u8,
        payload: Bytes,
        mut path: Vec<NodeInfo>,
    ) {
        let me = *self.info();
        // Delivery at the exact target name.
        if target == me.name {
            self.deliver(io, from, src, target, class, payload, path, true);
            return;
        }
        if ttl == 0 {
            self.routed_failed(io, &src, &target, class, payload);
            return;
        }
        let rclass = RoutedClass::from_u8(class);
        match self.next_hop(&target) {
            Some(next) => {
                self.stats.forwarded += 1;
                if rclass == Some(RoutedClass::Probe) {
                    path.push(me);
                }
                if rclass == Some(RoutedClass::Client) && src.proc != me.proc {
                    io.upcall(OverlayUpcall::Forwarded {
                        src,
                        target,
                        prev: from,
                        next,
                        payload: payload.clone(),
                    });
                }
                io.send(
                    next,
                    OverlayMsg::Routed {
                        src,
                        target,
                        ttl: ttl - 1,
                        class,
                        payload,
                        path,
                    },
                );
            }
            None => {
                // No node lies between us and the target: we are the owner
                // of the target's ring position.
                self.deliver(io, from, src, target, class, payload, path, false);
            }
        }
    }

    /// Hands a routed message to this node, at its `exact` target name or
    /// as the owner of the target's ring position.
    fn deliver(
        &mut self,
        io: &mut OverlayCx<'_>,
        from: PeerAddr,
        src: NodeInfo,
        target: NodeName,
        class: u8,
        payload: Bytes,
        mut path: Vec<NodeInfo>,
        exact: bool,
    ) {
        match RoutedClass::from_u8(class) {
            Some(RoutedClass::Join) => self.handle_join_request(io, payload),
            Some(RoutedClass::Probe) => {
                path.push(*self.info());
                io.send(src.proc, OverlayMsg::ProbeReply { path });
            }
            Some(RoutedClass::Client) if exact => {
                io.upcall(OverlayUpcall::Delivered {
                    src,
                    prev: from,
                    payload,
                });
            }
            None if exact => {}
            Some(RoutedClass::Client) | None => {
                // Client messages target an exact node; reaching the owner
                // instead means the target is gone (or tables are stale).
                self.routed_failed(io, &src, &target, class, payload);
            }
        }
    }

    fn routed_failed(
        &mut self,
        io: &mut OverlayCx<'_>,
        src: &NodeInfo,
        target: &NodeName,
        class: u8,
        payload: Bytes,
    ) {
        self.stats.route_stalls += 1;
        if src.proc == self.info().proc {
            io.upcall(OverlayUpcall::RouteStuck {
                src: *src,
                target: *target,
                payload,
            });
        } else {
            io.send(
                src.proc,
                OverlayMsg::RoutedError {
                    target: *target,
                    at: *self.info(),
                    class,
                    payload,
                },
            );
        }
    }
}
