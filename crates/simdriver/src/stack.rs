//! The sim-kernel adapter: one sans-io [`FuseStack`] plus its application,
//! as a simulated process.

use std::ops::{Deref, DerefMut};

use fuse_core::{AppCall, FuseApi, FuseApp, FuseConfig, FuseStack, Input, Output, StackMsg};
use fuse_overlay::{NodeInfo, OverlayConfig};
use fuse_sim::process::Ctx;
use fuse_sim::{ProcId, Process};
use fuse_util::TimerKey;

/// The composed per-process protocol stack under the simulation kernel.
///
/// Owns the sans-io [`FuseStack`] and the application, and nothing else:
/// every `SetTimer` becomes a kernel timer tagged with its [`TimerKey`],
/// and every key fires; a key whose deadline moved finds nothing due. The
/// stack never emits `CancelTimer`. Dereferences to the inner
/// [`FuseStack`] for state introspection (`stack.fuse`, `stack.overlay`).
pub struct NodeStack<A> {
    /// The sans-io protocol stack (overlay + FUSE).
    pub stack: FuseStack,
    /// The application layer.
    pub app: A,
}

impl<A> Deref for NodeStack<A> {
    type Target = FuseStack;

    fn deref(&self) -> &FuseStack {
        &self.stack
    }
}

impl<A> DerefMut for NodeStack<A> {
    fn deref_mut(&mut self) -> &mut FuseStack {
        &mut self.stack
    }
}

impl<A: FuseApp> NodeStack<A> {
    /// Builds a stack for `me`, joining through `bootstrap` (or starting a
    /// fresh ring when `None`).
    pub fn new(
        me: NodeInfo,
        bootstrap: Option<ProcId>,
        ov_cfg: OverlayConfig,
        fuse_cfg: FuseConfig,
        app: A,
    ) -> Self {
        NodeStack {
            stack: FuseStack::new(me, bootstrap, ov_cfg, fuse_cfg),
            app,
        }
    }

    /// Runs `f` with the application API — the entry point for scripted
    /// calls (`CreateGroup`, `SignalFailure`, sends) from experiments.
    pub fn with_api<R>(
        &mut self,
        ctx: &mut Ctx<'_, StackMsg, TimerKey>,
        f: impl FnOnce(&mut FuseApi<'_>, &mut A) -> R,
    ) -> R {
        let now = ctx.now;
        let r = {
            let mut api = self.stack.api(now, ctx.rng());
            f(&mut api, &mut self.app)
        };
        self.drain(ctx);
        r
    }

    /// Drains the stack's output queue onto the kernel: sends and timer
    /// arms become kernel actions, application calls dispatch to the
    /// embedded [`FuseApp`] (whose own outputs append behind and drain in
    /// the same loop).
    fn drain(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>) {
        while let Some(out) = self.stack.poll_output() {
            match out {
                Output::Send { to, msg } => ctx.send(to, msg),
                Output::SetTimer { key, after } => ctx.set_timer(after, key),
                Output::CancelTimer { .. } => {}
                Output::App(call) => {
                    let now = ctx.now;
                    let mut api = self.stack.api(now, ctx.rng());
                    match call {
                        AppCall::Boot => self.app.on_boot(&mut api),
                        AppCall::Event(ev) => self.app.on_fuse_event(&mut api, ev),
                        AppCall::Message { from, payload } => {
                            self.app.on_app_message(&mut api, from, payload);
                        }
                        AppCall::Timer(tag) => self.app.on_app_timer(&mut api, tag),
                    }
                }
            }
        }
    }
}

impl<A: FuseApp> Process for NodeStack<A> {
    type Msg = StackMsg;
    type Timer = TimerKey;

    fn on_boot(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>) {
        self.stack.handle(ctx.now, ctx.rng(), Input::Boot);
        self.drain(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>, from: ProcId, msg: StackMsg) {
        self.stack
            .handle(ctx.now, ctx.rng(), Input::Message { from, msg });
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>, key: TimerKey) {
        self.stack.handle(ctx.now, ctx.rng(), Input::Timer(key));
        self.drain(ctx);
    }

    fn on_link_broken(&mut self, ctx: &mut Ctx<'_, StackMsg, TimerKey>, peer: ProcId) {
        self.stack
            .handle(ctx.now, ctx.rng(), Input::LinkBroken { peer });
        self.drain(ctx);
    }
}
