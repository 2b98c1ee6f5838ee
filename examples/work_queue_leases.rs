//! Work-queue leases through FUSE fate-sharing (paper §4.1, the Om/
//! TotalRecall pattern: "these leases could be replaced by FUSE groups").
//!
//! A coordinator hands work items to workers. Each outstanding assignment
//! is guarded by a two-party FUSE group — the lease. If the worker crashes,
//! is partitioned away, or walks off the job (explicit signal), the
//! coordinator hears the notification and re-queues the item; if the
//! *coordinator* dies, every worker hears it and stops wasting effort. No
//! heartbeat code exists in the application at all.
//!
//! Run with `cargo run --example work_queue_leases`.

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

const COORDINATOR: ProcId = 0;

#[derive(Default)]
struct QueueApp {
    // Coordinator state.
    backlog: Vec<u64>,
    assigned: DetHashMap<FuseId, (u64, ProcId)>, // group -> (item, worker)
    pending: DetHashMap<CreateTicket, (u64, ProcId)>, // ticket -> (item, worker)
    completed: Vec<u64>,
    workers: Vec<NodeInfo>,
    rr: usize,
    // Worker state: item -> guarding lease.
    working_on: DetHashMap<u64, FuseId>,
}

impl QueueApp {
    fn dispatch(&mut self, api: &mut FuseApi<'_>) {
        while let Some(item) = self.backlog.pop() {
            if self.workers.is_empty() {
                self.backlog.push(item);
                return;
            }
            let w = self.workers[self.rr % self.workers.len()];
            self.rr += 1;
            let ticket = api.create_group(vec![w]);
            self.pending.insert(ticket, (item, w.proc));
            println!(
                "[{}] coordinator: leasing item {item} to worker {} under {}",
                api.now(),
                w.proc,
                ticket.id()
            );
        }
    }
}

fn msg(kind: u8, item: u64, group: FuseId) -> Bytes {
    (kind, (item, group)).to_bytes()
}

const ASSIGN: u8 = 1;
const DONE: u8 = 2;

impl FuseApp for QueueApp {
    fn on_fuse_event(&mut self, api: &mut FuseApi<'_>, ev: FuseEvent) {
        match ev {
            FuseEvent::Created { ticket, result } => {
                let Some((item, worker)) = self.pending.remove(&ticket) else {
                    return;
                };
                match result {
                    Ok(handle) => {
                        api.register_handler(handle.id, item);
                        self.assigned.insert(handle.id, (item, worker));
                        api.send_app(worker, msg(ASSIGN, item, handle.id));
                    }
                    Err(e) => {
                        println!(
                            "[{}] coordinator: lease to {worker} failed ({e:?}); re-queueing {item}",
                            api.now()
                        );
                        self.workers.retain(|w| w.proc != worker);
                        self.backlog.push(item);
                        self.dispatch(api);
                    }
                }
            }
            FuseEvent::Notified(n) => {
                if api.me().proc == COORDINATOR {
                    if let Some((item, worker)) = self.assigned.remove(&n.id) {
                        println!(
                            "[{}] coordinator: lease {} (item {item} on worker {worker}) failed ({}); re-queueing",
                            api.now(),
                            n.id,
                            n.reason
                        );
                        self.workers.retain(|w| w.proc != worker);
                        self.backlog.push(item);
                        self.dispatch(api);
                    }
                } else {
                    let abandoned: Vec<u64> = self
                        .working_on
                        .iter()
                        .filter(|(_, &g)| g == n.id)
                        .map(|(&item, _)| item)
                        .collect();
                    for item in abandoned {
                        self.working_on.remove(&item);
                        println!(
                            "[{}] worker {}: lease {} burned ({}); abandoning item {item}",
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

    fn on_app_message(&mut self, api: &mut FuseApi<'_>, from: ProcId, payload: Bytes) {
        let mut r = fuse_wire::codec::Reader::new(&payload);
        let (Ok(kind), Ok(item), Ok(group)) = (
            u8::decode(&mut r),
            u64::decode(&mut r),
            FuseId::decode(&mut r),
        ) else {
            return;
        };
        match kind {
            ASSIGN => {
                api.register_handler(group, item);
                self.working_on.insert(item, group);
                // "Work" takes 30 simulated seconds.
                api.set_app_timer(SimDuration::from_secs(30), item);
            }
            DONE if self.assigned.remove(&group).is_some() => {
                println!(
                    "[{}] coordinator: item {item} completed by {from}",
                    api.now()
                );
                self.completed.push(item);
                // The lease served its purpose; tear it down explicitly.
                api.signal_failure(group);
            }
            _ => {}
        }
    }

    fn on_app_timer(&mut self, api: &mut FuseApi<'_>, item: u64) {
        if let Some(group) = self.working_on.remove(&item) {
            // Report completion under the lease's fate-sharing contract
            // (§3.4): if the path to the coordinator is broken, the lease
            // burns instead of the result silently vanishing.
            api.group_send(group, COORDINATOR, msg(DONE, item, group));
        }
    }
}

fn main() {
    let n = 16;
    let mut rng = StdRng::seed_from_u64(8);
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
    let mut sim = Sim::new(21, net);
    for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
        let mut stack = NodeStack::new(
            *info,
            None,
            ov_cfg.clone(),
            FuseConfig::default(),
            QueueApp::default(),
        );
        stack.overlay.preload_tables(cw, ccw, rt);
        sim.add_process(stack);
    }
    sim.run_for(SimDuration::from_secs(1));

    // Seed the coordinator with work and three workers.
    let workers: Vec<NodeInfo> = [3usize, 7, 12].iter().map(|&i| infos[i]).collect();
    sim.with_proc(COORDINATOR, |stack, ctx| {
        stack.with_api(ctx, |api, app| {
            app.workers = workers;
            app.backlog = (1..=6).collect();
            app.dispatch(api);
        })
    });
    sim.run_for(SimDuration::from_secs(20));

    // Worker 7 dies mid-lease; FUSE burns its leases, the coordinator
    // re-queues without any application-level heartbeat.
    println!("--- worker 7 crashes mid-lease ---");
    sim.crash(7);
    sim.run_for(SimDuration::from_secs(600));

    let app = &sim.proc(COORDINATOR).expect("alive").app;
    let mut done = app.completed.clone();
    done.sort_unstable();
    println!("completed items: {done:?}");
    assert_eq!(done, vec![1, 2, 3, 4, 5, 6], "every item must complete");
    assert!(app.assigned.is_empty(), "no dangling leases");
}
