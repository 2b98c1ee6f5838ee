//! CDN update propagation guarded by FUSE groups (paper §4.1).
//!
//! An origin pushes document updates to replica sites. Each document's
//! replica set shares fate through one FUSE group: if any replica (or the
//! origin, or their connectivity) fails, every surviving party hears the
//! notification, drops its possibly-stale copy, and the origin rebuilds the
//! replica set — "FUSE can replace the per-tree heartbeat messages with a
//! more efficient and scalable means of detecting when the trees need to be
//! reconfigured".
//!
//! Run with `cargo run --example cdn_invalidation`.

use bytes::Bytes;

use fuse_core::{CreateTicket, FuseApi, FuseApp, FuseConfig, FuseEvent, FuseId};
use fuse_net::{NetConfig, Network, TopologyConfig};
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{ProcId, Sim, SimDuration};
use fuse_simdriver::NodeStack;
use fuse_util::DetHashMap;
use fuse_wire::{Decode, Encode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORIGIN: ProcId = 0;

#[derive(Default)]
struct CdnApp {
    /// Origin: document -> (replica set, guarding group, version).
    published: DetHashMap<u64, (Vec<NodeInfo>, FuseId, u64)>,
    /// Replica: group -> (document, version) served from this site.
    serving: DetHashMap<FuseId, (u64, u64)>,
    /// Pending (doc, version, replicas) keyed by the creation ticket.
    pending: DetHashMap<CreateTicket, (u64, u64, Vec<NodeInfo>)>,
    /// Count of re-replications performed (origin).
    rebuilds: u32,
}

impl CdnApp {
    /// Origin API: push `doc` at `version` to `replicas`, guarded by FUSE.
    fn publish(&mut self, api: &mut FuseApi<'_>, doc: u64, version: u64, replicas: Vec<NodeInfo>) {
        let ticket = api.create_group(replicas.clone());
        self.pending.insert(ticket, (doc, version, replicas));
        println!(
            "[{}] origin: publishing doc {doc} v{version} under {}",
            api.now(),
            ticket.id()
        );
    }
}

fn encode_update(doc: u64, version: u64, group: FuseId) -> Bytes {
    (doc, (version, group)).to_bytes()
}

impl FuseApp for CdnApp {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        match ev {
            FuseEvent::Created { ticket, result } => {
                let Some((doc, version, replicas)) = self.pending.remove(&ticket) else {
                    return;
                };
                match result {
                    Ok(handle) => {
                        // The document id rides along as handler context and
                        // comes back inside the failure notification.
                        api.register_handler(handle.id, doc);
                        for r in &replicas {
                            api.send_app(r.proc, encode_update(doc, version, handle.id));
                        }
                        self.published.insert(doc, (replicas, handle.id, version));
                    }
                    Err(e) => {
                        println!(
                            "[{}] origin: publish of doc {doc} failed: {e:?}; retrying",
                            api.now()
                        );
                        self.publish(api, doc, version, replicas);
                    }
                }
            }
            FuseEvent::Notified(n) => {
                if api.me().proc == ORIGIN {
                    // The registered context *is* the document id.
                    if let Some(doc) = n.ctx {
                        if let Some((replicas, _, version)) = self.published.remove(&doc) {
                            self.rebuilds += 1;
                            println!(
                                "[{}] origin: replica set of doc {doc} failed ({}, cause {}); re-replicating at v{}",
                                api.now(),
                                n.id,
                                n.reason,
                                version + 1
                            );
                            // Re-publish to the replicas that are still
                            // useful; a real CDN would re-select sites here.
                            self.publish(api, doc, version + 1, replicas);
                        }
                    }
                } else {
                    // Replica: drop the possibly-stale copy (fate sharing).
                    if let Some((doc, version)) = self.serving.remove(&n.id) {
                        println!(
                            "[{}] replica {}: invalidating doc {doc} v{version} (group {}, cause {})",
                            api.now(),
                            api.me().proc,
                            n.id,
                            n.reason
                        );
                    }
                }
            }
        }
    }

    fn on_app_message(&mut self, api: &mut FuseApi<'_>, _from: ProcId, payload: Bytes) {
        let mut r = fuse_wire::codec::Reader::new(&payload);
        let (Ok(doc), Ok(version), Ok(group)) = (
            u64::decode(&mut r),
            u64::decode(&mut r),
            FuseId::decode(&mut r),
        ) else {
            return;
        };
        api.register_handler(group, doc);
        self.serving.insert(group, (doc, version));
        println!(
            "[{}] replica {}: serving doc {doc} v{version}",
            api.now(),
            api.me().proc
        );
    }
}

fn main() {
    let n = 24;
    let mut rng = StdRng::seed_from_u64(3);
    let net = Network::generate(
        &TopologyConfig::default(),
        n,
        NetConfig::simulator(),
        &mut rng,
    );
    let infos: Vec<NodeInfo> = (0..n)
        .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
        .collect();
    let ov_cfg = OverlayConfig::default();
    let tables = build_oracle_tables(&infos, &ov_cfg);
    let mut sim = Sim::new(9, net);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        let mut stack = NodeStack::new(
            *info,
            None,
            ov_cfg.clone(),
            FuseConfig::default(),
            CdnApp::default(),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    sim.run_for(SimDuration::from_secs(2));

    // Publish two documents to distinct replica sets.
    let set_a: Vec<NodeInfo> = [5usize, 9, 14].iter().map(|&i| infos[i]).collect();
    let set_b: Vec<NodeInfo> = [6usize, 11, 17].iter().map(|&i| infos[i]).collect();
    sim.with_proc(ORIGIN, |stack, ctx| {
        stack.with_api(ctx, |api, app| {
            app.publish(api, 1001, 1, set_a);
            app.publish(api, 2002, 1, set_b);
        })
    });
    sim.run_for(SimDuration::from_secs(10));

    // A replica of document 1001 dies. The whole replica set's state is
    // fate-shared: everyone hears, the origin re-replicates.
    println!("--- replica 9 crashes ---");
    sim.crash(9);
    sim.run_for(SimDuration::from_secs(400));

    let origin = sim.proc(ORIGIN).expect("origin alive");
    assert!(origin.app.rebuilds >= 1, "origin must have re-replicated");
    println!(
        "origin performed {} rebuild(s); doc 2002's replica set was untouched",
        origin.app.rebuilds
    );
    for replica in [6u32, 11, 17] {
        let app = &sim.proc(replica).expect("alive").app;
        assert!(
            app.serving.values().any(|&(doc, _)| doc == 2002),
            "replica {replica} must still serve doc 2002"
        );
    }
}
