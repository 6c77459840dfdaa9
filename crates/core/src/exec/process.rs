//! Query processes: tasks with message inboxes.
//!
//! A query process receives its plan function **once**, installed before
//! execution (paper §III), then a stream of `Call` messages carrying
//! batches of parameter tuples. For each call it evaluates the installed
//! body per parameter and ships `ResultBatch` frames back, terminated by
//! an `EndOfCall` — the message `FF_APPLYP` uses to know a child is idle
//! again. The configured [`crate::transport::BatchPolicy`] bounds how many
//! result tuples a child buffers before flushing a frame, and a model-time
//! threshold flushes a partially filled buffer so first-row latency stays
//! honest; the default policy is one tuple per frame, the paper's exact
//! semantics.
//!
//! A process is a task on the [`wsmed_netsim::runtime`]'s worker set, not a
//! thread of its own; a parent waiting for a message, or for room in a
//! child's mailbox, suspends its task and its worker runs another process.
//!
//! Mailboxes are **bounded** ([`BatchPolicy::mailbox_capacity`]): a fast
//! producer waits instead of buffering an entire parameter or result
//! stream in memory, and the time spent waiting is counted per node
//! ([`TreeRegistry::note_blocked_send`]) next to `msgs_down`/`msgs_up`.
//!
//! Plan functions and tuples cross the boundary as serialized bytes
//! ([`crate::wire`]); the parent pays the modeled client-side costs
//! (process startup, plan shipping, per-frame and per-tuple dispatch) so
//! the economics of the paper's single-core coordinator are preserved.
//! A warm process acquired from the [`crate::exec::pool`] skips the
//! startup and plan-ship charges entirely: it is re-wired to its new
//! parent with an `Attach` message instead of being spawned.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Poll, Waker};
use std::time::Instant;

use bytes::Bytes;

use wsmed_netsim::runtime::{self, TaskHandle};
use wsmed_store::Tuple;

use crate::cache::CacheKey;
use crate::exec::mailbox::{bounded, Receiver, Sender, TrySendError};
use crate::exec::{compile, eval, ExecContext, Pipeline, ProcEnv};
use crate::obs::{TraceEventKind, TraceLog};
use crate::resilience::Skips;
use crate::stats::TreeRegistry;
use crate::transport::BatchPolicy;
use crate::wire;
use crate::{CoreError, CoreResult};

/// Messages a parent sends to a child query process.
#[derive(Debug)]
pub(crate) enum ToChild {
    /// Install the (serialized) plan function. Sent exactly once, first.
    Install(Bytes),
    /// Evaluate the installed plan function once per parameter tuple in
    /// the batch frame.
    Call {
        /// Correlation id, unique per parent.
        call_id: u64,
        /// Kind-prefixed message frame of parameter tuples — row or
        /// columnar format ([`wire::decode_message`]).
        params: Bytes,
    },
    /// Park-time: clear per-run state (adaptation cycle counters), and
    /// recursively reset the pooled subtree below so whole warm trees are
    /// reclaimed in one piece.
    Reset,
    /// Acquire-time: re-wire this warm process to a new parent run — new
    /// execution context (the pool is mediator-global, so the acquiring
    /// run may belong to a different query), new identity in that run's
    /// tree, new slot, new results channel, and a re-registration walk of
    /// the subtree into the run's fresh tree registry.
    Attach {
        /// The acquiring run's execution context.
        ctx: Arc<ExecContext>,
        /// This process's id in the acquiring run's tree.
        id: u64,
        /// This process's level in the acquiring run's tree.
        level: usize,
        /// The process's slot at its new parent.
        slot: usize,
        /// The new parent's result channel.
        results: Sender<FromChild>,
        /// Counts the process as installing in the acquiring run until
        /// its subtree has re-registered.
        ticket: InstallTicket,
    },
    /// Terminate: tear down the subtree and exit. The end of the mailbox
    /// (every sender gone) means the same.
    Shutdown,
}

/// Messages a child sends back to its parent.
#[derive(Debug)]
pub(crate) enum FromChild {
    /// Plan function installed (or failed to).
    Installed {
        /// The child's slot at the parent.
        slot: usize,
        /// Install error, if any.
        error: Option<String>,
    },
    /// A batch of result tuples of the current call.
    ResultBatch {
        /// The child's slot at the parent.
        slot: usize,
        /// Correlation id of the call.
        call_id: u64,
        /// Kind-prefixed message frame of result tuples
        /// ([`wire::decode_message`]).
        tuples: Bytes,
    },
    /// The current call finished (successfully or not).
    EndOfCall {
        /// The child's slot at the parent.
        slot: usize,
        /// Correlation id of the call.
        call_id: u64,
        /// Evaluation error, if any.
        error: Option<String>,
        /// Parameter tuples dropped under partial failure mode while
        /// evaluating this call, committed with the call's rows.
        skipped: Skips,
    },
}

/// The processes one run spawned cold or attached warm: how many have not
/// yet installed (sent `Installed` or ended, or re-registered their warm
/// subtree), and how many of the cold ones are still running.
#[derive(Debug, Default)]
pub(crate) struct SpawnCounts {
    installing: AtomicUsize,
    running: AtomicUsize,
    /// The coordinator, waiting for `installing` to reach zero.
    waiter: Mutex<Option<Waker>>,
}

impl SpawnCounts {
    /// Completes once every process spawned or attached so far has
    /// installed or ended. A process spawns its own children before it
    /// installs, and a warm one re-attaches its subtree before it counts as
    /// installed, so once this completes the whole tree is registered.
    pub(crate) async fn installs_settled(&self) {
        std::future::poll_fn(|cx| {
            if self.installing.load(Ordering::Acquire) == 0 {
                return Poll::Ready(());
            }
            *self.waiter.lock().unwrap_or_else(|e| e.into_inner()) = Some(cx.waker().clone());
            // Ordered after the registration by the waiter lock: the last
            // install either is seen here or finds the waker.
            if self.installing.load(Ordering::Acquire) == 0 {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
    }

    /// Processes of this run whose task has not finished.
    #[cfg(test)]
    pub(crate) fn running(&self) -> usize {
        self.running.load(Ordering::Acquire)
    }

    /// Counts one more process as installing.
    fn install_ticket(self: &Arc<Self>) -> InstallTicket {
        self.installing.fetch_add(1, Ordering::AcqRel);
        InstallTicket(Some(Arc::clone(self)))
    }

    /// Counts one more cold-spawned process as installing and running.
    fn ticket(self: &Arc<Self>) -> SpawnTicket {
        self.running.fetch_add(1, Ordering::AcqRel);
        SpawnTicket {
            install: self.install_ticket(),
            counts: Arc::clone(self),
        }
    }
}

/// One process's place among its run's installing processes, given up
/// once (at the latest when dropped).
#[derive(Debug)]
pub(crate) struct InstallTicket(Option<Arc<SpawnCounts>>);

impl InstallTicket {
    fn installed(&mut self) {
        let Some(counts) = self.0.take() else { return };
        if counts.installing.fetch_sub(1, Ordering::AcqRel) == 1 {
            let waiter = counts
                .waiter
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            if let Some(waker) = waiter {
                waker.wake();
            }
        }
    }
}

impl Drop for InstallTicket {
    fn drop(&mut self) {
        self.installed();
    }
}

/// A cold-spawned process's place in its run's [`SpawnCounts`], given up
/// as it installs and as its task ends.
struct SpawnTicket {
    install: InstallTicket,
    counts: Arc<SpawnCounts>,
}

impl SpawnTicket {
    fn installed(&mut self) {
        self.install.installed();
    }
}

impl Drop for SpawnTicket {
    fn drop(&mut self) {
        self.installed();
        self.counts.running.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Sends on a bounded mailbox, charging time blocked on a full one to node
/// `id`'s `blocked_send` counter (and recording a `blocked_send` trace
/// event when a log is live). Returns `false` when the receiver is gone.
async fn send_counted<T>(
    tx: &Sender<T>,
    msg: T,
    tree: &TreeRegistry,
    id: u64,
    trace: Option<&TraceLog>,
    level: usize,
    pf: &Arc<str>,
) -> bool {
    let msg = match tx.try_send(msg) {
        Ok(()) => return true,
        Err(TrySendError::Disconnected(_)) => return false,
        Err(TrySendError::Full(msg)) => msg,
    };
    let waited = Instant::now();
    let sent = tx.send(msg).await.is_ok();
    let elapsed = waited.elapsed();
    tree.note_blocked_send(id, elapsed);
    if let Some(tr) = trace {
        tr.emit(
            id,
            level,
            pf,
            TraceEventKind::BlockedSend {
                waited_secs: tr.model_secs(elapsed),
            },
        );
    }
    sent
}

/// A handle the parent keeps per child process.
#[derive(Debug)]
pub(crate) struct ChildProc {
    /// Process id in the tree registry.
    pub id: u64,
    tx: Sender<ToChild>,
    task: TaskHandle,
    tree: Arc<TreeRegistry>,
    deregistered: bool,
    /// Tree level this process is attached at (refreshed on warm attach).
    level: usize,
    /// Content digest of the plan function this process runs.
    pf: Arc<str>,
    /// The run's trace log, when the run that spawned (or warm-attached)
    /// this process had tracing enabled. Cleared on park so pooled handles
    /// never keep a finished run's log alive.
    trace: Option<Arc<TraceLog>>,
    /// Whether this process's terminal lifecycle event (park/kill/join)
    /// was already recorded — each spawn gets exactly one terminal.
    terminal_emitted: bool,
}

impl ChildProc {
    /// Spawns a child query process with the plan function queued in its
    /// mailbox.
    ///
    /// The parent process pays the modeled process-startup and
    /// plan-shipping costs before this completes, serializing process
    /// management on the parent as on the paper's single-core client.
    /// This is the single site charging `process_startup`, so the pool's
    /// `cold_spawns` counter is exactly the number of startup charges.
    pub async fn spawn(
        ctx: &Arc<ExecContext>,
        parent: &ProcEnv,
        slot: usize,
        pf_name: &str,
        pf_digest: &Arc<str>,
        pf_bytes: Bytes,
        results: Sender<FromChild>,
    ) -> ChildProc {
        let id = ctx.next_process_id();
        let level = parent.level + 1;
        let tree = Arc::clone(ctx.tree());
        tree.register(id, Some(parent.id), level, pf_name);
        ctx.pool_scope().note_cold_spawn();

        // Client-side costs: starting the process and shipping the plan.
        let (sim, client) = (ctx.sim(), &ctx.sim().client);
        parent.pay(sim, client.process_startup).await;
        parent
            .pay(
                sim,
                client.plan_ship_per_kib * pf_bytes.len() as f64 / 1024.0,
            )
            .await;
        ctx.record_shipped(pf_bytes.len());
        tree.note_msg_down(id);

        let trace = ctx.trace_handle();
        if let Some(tr) = &trace {
            tr.emit(
                id,
                level,
                pf_digest,
                TraceEventKind::ChildSpawn { warm: false },
            );
        }
        let (tx, rx) = bounded::<ToChild>(ctx.batch_policy().mailbox_capacity());
        tx.try_send(ToChild::Install(pf_bytes))
            .expect("a new mailbox has room for the plan function");
        let ticket = ctx.spawn_counts().ticket();
        let env = ProcEnv::new(id, level, Arc::clone(pf_digest));
        let task = start(Arc::clone(ctx), env, slot, rx, results, ticket);
        ChildProc {
            id,
            tx,
            task,
            tree,
            deregistered: false,
            level,
            pf: Arc::clone(pf_digest),
            trace,
            terminal_emitted: false,
        }
    }

    /// Sends a batch of `n_params` parameter tuples as one frame; the
    /// parent pays the per-frame plus per-tuple dispatch cost. Fails when
    /// the child hung up (died), so the caller can requeue the work.
    pub async fn send_call(
        &self,
        ctx: &ExecContext,
        parent: &ProcEnv,
        call_id: u64,
        params: Bytes,
        n_params: usize,
    ) -> CoreResult<()> {
        parent
            .pay(ctx.sim(), ctx.sim().client.frame_cost(n_params))
            .await;
        ctx.record_shipped(params.len());
        self.tree.note_msg_down(self.id);
        let sent = send_counted(
            &self.tx,
            ToChild::Call { call_id, params },
            &self.tree,
            self.id,
            self.trace.as_deref(),
            self.level,
            &self.pf,
        )
        .await;
        if sent {
            Ok(())
        } else {
            Err(CoreError::ProcessFailure(format!(
                "query process q{} hung up",
                self.id
            )))
        }
    }

    /// Records this process's terminal lifecycle event (at most once per
    /// spawn/attach) and releases the log handle.
    fn emit_terminal(&mut self, kind: TraceEventKind) {
        if self.terminal_emitted {
            self.trace = None;
            return;
        }
        self.terminal_emitted = true;
        if let Some(tr) = self.trace.take() {
            tr.emit(self.id, self.level, &self.pf, kind);
        }
    }

    /// Prepares the process for parking: sends `Reset` (clearing per-run
    /// state down the subtree) and deregisters it from the current run's
    /// tree. Returns `None` when the process is already dead — the caller
    /// must drop it instead of pooling it.
    pub async fn park(mut self, dropped_by_adaptation: bool) -> Option<ChildProc> {
        if self.tx.send(ToChild::Reset).await.is_err() {
            return None;
        }
        self.tree.deregister(self.id, dropped_by_adaptation);
        self.deregistered = true;
        self.emit_terminal(TraceEventKind::ChildPark);
        Some(self)
    }

    /// Re-wires a warm (parked) process to a new parent: registers it in
    /// the current run's tree, charges one message-dispatch for the attach
    /// frame, and triggers the subtree's re-registration walk. Returns
    /// `false` when the parked process turned out to be dead (the caller
    /// drops the handle and tries the next parked process).
    pub async fn attach(
        &mut self,
        ctx: &Arc<ExecContext>,
        parent: &ProcEnv,
        slot: usize,
        pf_name: &str,
        results: Sender<FromChild>,
    ) -> bool {
        // A mediator-global pool can hand this process to a *different*
        // query's run; take a fresh id from the acquiring context so the
        // process can never collide with ids that context already issued.
        self.id = ctx.next_process_id();
        self.tree = Arc::clone(ctx.tree());
        self.deregistered = false;
        self.tree
            .register(self.id, Some(parent.id), parent.level + 1, pf_name);
        parent.pay(ctx.sim(), ctx.sim().client.frame_cost(0)).await;
        self.tree.note_msg_down(self.id);
        self.level = parent.level + 1;
        let trace = ctx.trace_handle();
        let ok = send_counted(
            &self.tx,
            ToChild::Attach {
                ctx: Arc::clone(ctx),
                id: self.id,
                level: self.level,
                slot,
                results,
                ticket: ctx.spawn_counts().install_ticket(),
            },
            &self.tree,
            self.id,
            trace.as_deref(),
            self.level,
            &self.pf,
        )
        .await;
        if ok {
            // A warm acquire starts a fresh spawn→terminal lifecycle in
            // the new run's log; a dead parked process keeps its old (and
            // already terminated) record instead.
            self.trace = trace;
            self.terminal_emitted = false;
            if let Some(tr) = &self.trace {
                tr.emit(
                    self.id,
                    self.level,
                    &self.pf,
                    TraceEventKind::ChildSpawn { warm: true },
                );
            }
        }
        ok
    }

    /// Forwards a `Reset` down one edge of a warm subtree being parked.
    pub async fn forward_reset(&mut self) {
        if self.tx.send(ToChild::Reset).await.is_ok() {
            self.emit_terminal(TraceEventKind::ChildPark);
        }
    }

    /// Kills the process mid-stream without waiting: it may be blocked
    /// sending into a results mailbox the caller is not reading. The caller
    /// keeps the handle and joins it after closing that mailbox.
    pub fn kill(&mut self) {
        let _ = self.tx.try_send(ToChild::Shutdown);
        self.tree.deregister(self.id, false);
        self.deregistered = true;
        self.emit_terminal(TraceEventKind::ChildKill { adapt: false });
    }

    /// Shuts the child down and waits for its subtree to terminate. Only
    /// for a child that cannot be blocked sending results to the caller.
    pub async fn shutdown(mut self, dropped_by_adaptation: bool) {
        self.request_end(TraceEventKind::ChildKill {
            adapt: dropped_by_adaptation,
        })
        .await;
        self.finished(dropped_by_adaptation).await;
    }

    /// Ends every process of `procs` and waits for their subtrees to
    /// terminate — all asked first, so they end side by side.
    pub async fn join_all(mut procs: Vec<ChildProc>) {
        for proc in &mut procs {
            proc.request_end(TraceEventKind::ChildJoin).await;
        }
        for proc in procs {
            proc.finished(false).await;
        }
    }

    /// Records the terminal event and queues `Shutdown` behind whatever
    /// the process still has to read.
    async fn request_end(&mut self, terminal: TraceEventKind) {
        self.emit_terminal(terminal);
        let _ = self.tx.send(ToChild::Shutdown).await;
    }

    /// Waits for the task (and with it the subtree) to finish, then
    /// deregisters the process.
    async fn finished(mut self, dropped_by_adaptation: bool) {
        (&mut self.task).await;
        if !self.deregistered {
            self.tree.deregister(self.id, dropped_by_adaptation);
            self.deregistered = true;
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // Not joined (an abandoned run, an evicted or dead pooled process):
        // the mailbox ends as `tx` drops, and the task ends on its own.
        self.emit_terminal(TraceEventKind::ChildJoin);
        if !self.deregistered {
            self.tree.deregister(self.id, false);
            self.deregistered = true;
        }
    }
}

/// Starts a child process's task. A function of its own, so that the
/// compiler proves the task `Send` here and not inside
/// [`ChildProc::spawn`]'s future, which the task itself awaits when it
/// spawns children.
fn start(
    ctx: Arc<ExecContext>,
    env: ProcEnv,
    slot: usize,
    rx: Receiver<ToChild>,
    results: Sender<FromChild>,
    ticket: SpawnTicket,
) -> TaskHandle {
    runtime::spawn(child_main(ctx, env, slot, rx, results, ticket))
}

/// The child process main loop.
async fn child_main(
    mut ctx: Arc<ExecContext>,
    mut env: ProcEnv,
    mut slot: usize,
    rx: Receiver<ToChild>,
    mut results: Sender<FromChild>,
    mut ticket: SpawnTicket,
) {
    // ---- install phase ----------------------------------------------------
    let pf = match rx.recv().await {
        Some(ToChild::Install(bytes)) => match wire::decode_plan_function(bytes) {
            Ok(pf) => pf,
            Err(e) => {
                let failed = FromChild::Installed {
                    slot,
                    error: Some(e.to_string()),
                };
                report_install(&ctx, &env, &results, failed, &mut ticket);
                return;
            }
        },
        Some(ToChild::Call { call_id, .. }) => {
            ticket.installed();
            let error = Some("call before plan function installation".into());
            send_up(
                &ctx,
                &env,
                &results,
                FromChild::EndOfCall {
                    slot,
                    call_id,
                    error,
                    skipped: Skips::default(),
                },
            )
            .await;
            return;
        }
        _ => return,
    };

    // Compiling the body spawns this process's own children (the next tree
    // level) — "each query process initially receives its own plan function
    // definition once before execution" (§III).
    let mut body = match compile(&ctx, &env, &pf.body).await {
        Ok(body) => body,
        Err(e) => {
            let failed = FromChild::Installed {
                slot,
                error: Some(e.to_string()),
            };
            report_install(&ctx, &env, &results, failed, &mut ticket);
            return;
        }
    };
    let installed = FromChild::Installed { slot, error: None };
    let mut running = report_install(&ctx, &env, &results, installed, &mut ticket);
    let mut frame = wire::RowFrame::default();

    // ---- call loop ---------------------------------------------------------
    while running {
        let Some(msg) = rx.recv().await else { break };
        match msg {
            ToChild::Call { call_id, params } => {
                let prune_key = pf.prune.as_ref().map(|s| s.section_key.as_str());
                running = handle_call(
                    &ctx, &env, slot, &mut body, prune_key, call_id, params, &results, &mut frame,
                )
                .await;
            }
            ToChild::Reset => {
                // Parked: clear per-run state down the whole warm subtree.
                body.reset().await;
            }
            ToChild::Attach {
                ctx: new_ctx,
                id,
                level,
                slot: new_slot,
                results: new_results,
                ticket,
            } => {
                // Re-wired to a new parent run, possibly under a different
                // query's execution context: rebind everything — context,
                // identity, slot, results channel — then re-register the
                // warm subtree into the new run's tree with fresh ids. The
                // process keeps its pacing debt. The run's snapshot waits
                // for the walk: the ticket drops after.
                ctx = new_ctx;
                (env.id, env.level) = (id, level);
                slot = new_slot;
                results = new_results;
                body.reattach(&ctx, &env).await;
                drop(ticket);
            }
            ToChild::Shutdown => break,
            ToChild::Install(_) => {
                // Re-installation is a protocol violation; ignore.
            }
        }
    }
    body.shutdown().await;
}

/// Reports the install outcome (counted as one message up), and counts the
/// process as installed. The message is queued even on a full mailbox: a
/// parent that is between calls reads it only in its next one, the run's
/// wait for installs must not hang on that, and once that wait is over the
/// parent must find it queued to park the process. Returns `false` if the
/// parent hung up.
fn report_install(
    ctx: &ExecContext,
    env: &ProcEnv,
    results: &Sender<FromChild>,
    msg: FromChild,
    ticket: &mut SpawnTicket,
) -> bool {
    ctx.tree().note_msg_up(env.id);
    let sent = results.send_past_capacity(msg).is_ok();
    ticket.installed();
    sent
}

/// Sends one frame up to the parent, counting the message (and any time
/// blocked on a full channel) against this process's node.
async fn send_up(
    ctx: &Arc<ExecContext>,
    env: &ProcEnv,
    results: &Sender<FromChild>,
    msg: FromChild,
) -> bool {
    let tree = ctx.tree();
    tree.note_msg_up(env.id);
    send_counted(results, msg, tree, env.id, ctx.tracer(), env.level, &env.pf).await
}

/// Evaluates one parameter batch, streaming result frames through a
/// bounded flush buffer. Returns `false` if the parent hung up.
///
/// Each parameter's complete result set is also memoized in the call
/// cache's plan-function row memo (keyed by the process's plan-function
/// digest and the parameter's wire encoding) so the parent can
/// short-circuit later duplicates without shipping them to any child.
#[allow(clippy::too_many_arguments)]
async fn handle_call(
    ctx: &Arc<ExecContext>,
    env: &ProcEnv,
    slot: usize,
    body: &mut Pipeline,
    prune_key: Option<&str>,
    call_id: u64,
    params: Bytes,
    results: &Sender<FromChild>,
    frame: &mut wire::RowFrame,
) -> bool {
    let mut flush = FlushBuffer::new(ctx, env, slot, call_id, results, frame);
    // Fresh per call: skips `eval` records under partial failure mode
    // ship with this call's end-of-call message.
    let mut skipped = Skips::default();
    let outcome = eval_call(ctx, body, prune_key, params, &mut flush, &mut skipped).await;
    let error = match outcome {
        Ok(()) => {
            // Whatever is still buffered goes out before the end-of-call.
            if !flush.flush().await {
                return false;
            }
            None
        }
        Err(e) => Some(e.to_string()),
    };
    if error.is_some() && flush.parent_gone {
        return false;
    }
    let end = FromChild::EndOfCall {
        slot,
        call_id,
        error,
        skipped,
    };
    send_up(ctx, env, results, end).await
}

/// Evaluates every parameter of one call frame.
async fn eval_call(
    ctx: &Arc<ExecContext>,
    body: &mut Pipeline,
    prune_key: Option<&str>,
    params: Bytes,
    flush: &mut FlushBuffer<'_>,
    skips: &mut Skips,
) -> CoreResult<()> {
    let pf_digest: &str = &flush.env.pf;
    if ctx.call_cache().is_none() {
        // No memo to key: the parameters decode straight onto their rows.
        let mut rows = Vec::new();
        wire::decode_message_onto(params, &mut rows)?;
        for param in &rows {
            let key = || CacheKey::for_rows(pf_digest, &wire::encode_tuple(param));
            eval_param(ctx, body, param, key, prune_key, flush, skips).await?;
        }
        return Ok(());
    }
    match wire::decode_keyed_params(params)? {
        wire::KeyedParams::Rows(parts) => {
            for encoded in parts {
                let param = wire::decode_tuple(encoded.clone())?;
                let key = || CacheKey::for_rows(pf_digest, &encoded);
                eval_param(ctx, body, &param, key, prune_key, flush, skips).await?;
            }
        }
        wire::KeyedParams::Columnar(batch) => {
            for i in 0..batch.len() {
                let param = batch.row(i);
                // Memo-key parity: the key bytes come straight from the
                // column slices and equal the parent's `encode_tuple`
                // output exactly.
                let key = || CacheKey::for_batch_row(pf_digest, &batch, i);
                eval_param(ctx, body, &param, key, prune_key, flush, skips).await?;
            }
        }
    }
    Ok(())
}

/// One parameter's evaluation: streams its rows through the flush buffer
/// and memoizes its complete result set under its row-format wire encoding
/// (`key` is computed lazily — columnar frames only re-encode a row when
/// the memo will actually be written).
async fn eval_param(
    ctx: &Arc<ExecContext>,
    body: &mut Pipeline,
    param: &Tuple,
    key: impl FnOnce() -> CacheKey,
    prune_key: Option<&str>,
    flush: &mut FlushBuffer<'_>,
    skips: &mut Skips,
) -> CoreResult<()> {
    let parent_gone = || CoreError::ProcessFailure("parent gone".into());
    let skips_before = skips.len();
    let rows = eval(body, ctx, flush.env, param, skips).await?;
    for tuple in &rows {
        if !flush.push(tuple).await {
            return Err(parent_gone());
        }
    }
    // A parameter that deterministically produced no rows (no call was
    // skipped) is a semi-join pruning candidate: report it under this
    // section's stable key so a later planning pass can drop it
    // parent-side before any dependent call is issued.
    let complete = skips.len() == skips_before;
    if rows.is_empty() && complete {
        if let (Some(section), Some(obs)) = (prune_key, ctx.planner_obs()) {
            obs.observe_empty(section, wire::encode_tuple(param));
        }
    }
    if let Some(cache) = ctx.call_cache() {
        // A parameter whose evaluation skipped any call produced an
        // incomplete row set; memoizing it would let a later duplicate
        // short-circuit to partial rows without its skip being counted.
        if complete {
            cache.insert_rows(&key(), Arc::new(rows), ctx.cache_scope());
        }
    }
    // A cheap parameter between expensive ones must not strand buffered
    // results past the latency bound.
    if !flush.flush_if_stale().await {
        return Err(parent_gone());
    }
    Ok(())
}

/// Child-side result buffer: accumulates result tuples and flushes a
/// [`FromChild::ResultBatch`] frame when `max_result_tuples` is reached,
/// when `flush_model_secs` of model time passed since the buffer's first
/// tuple, or at end of call. At the default policy (1 tuple per frame)
/// every tuple flushes immediately — the paper's streaming behaviour.
struct FlushBuffer<'a> {
    ctx: &'a Arc<ExecContext>,
    env: &'a ProcEnv,
    slot: usize,
    call_id: u64,
    results: &'a Sender<FromChild>,
    max_tuples: usize,
    flush_model_secs: f64,
    /// Row mode: the frame body the tuples are encoded into as they come,
    /// the process's own, reused from call to call.
    frame: &'a mut wire::RowFrame,
    /// Columnar mode: buffered rows, whole-column encoded at flush.
    rows: Vec<Tuple>,
    columnar: bool,
    buffered_since: Option<Instant>,
    parent_gone: bool,
}

impl<'a> FlushBuffer<'a> {
    fn new(
        ctx: &'a Arc<ExecContext>,
        env: &'a ProcEnv,
        slot: usize,
        call_id: u64,
        results: &'a Sender<FromChild>,
        frame: &'a mut wire::RowFrame,
    ) -> Self {
        let policy: BatchPolicy = ctx.batch_policy();
        // What a failed call left behind is not this call's.
        frame.clear();
        FlushBuffer {
            ctx,
            env,
            slot,
            call_id,
            results,
            max_tuples: policy.max_result_tuples.max(1),
            flush_model_secs: policy.flush_model_secs,
            frame,
            rows: Vec::new(),
            columnar: policy.columnar,
            buffered_since: None,
            parent_gone: false,
        }
    }

    fn buffered(&self) -> usize {
        if self.columnar {
            self.rows.len()
        } else {
            self.frame.len()
        }
    }

    /// Buffers one result tuple, flushing if the buffer filled or went
    /// stale. Returns `false` if the parent hung up.
    async fn push(&mut self, tuple: &Tuple) -> bool {
        if self.columnar {
            self.rows.push(tuple.clone());
        } else {
            self.frame.push(tuple);
        }
        self.buffered_since.get_or_insert_with(Instant::now);
        if self.buffered() >= self.max_tuples {
            return self.flush().await;
        }
        self.flush_if_stale().await
    }

    /// Flushes when the oldest buffered tuple has waited longer than the
    /// model-time bound (only measurable when the sim is time-scaled).
    async fn flush_if_stale(&mut self) -> bool {
        let Some(since) = self.buffered_since else {
            return true;
        };
        let scale = self.ctx.sim().time_scale;
        if scale > 0.0 && since.elapsed().as_secs_f64() / scale >= self.flush_model_secs {
            return self.flush().await;
        }
        true
    }

    async fn flush(&mut self) -> bool {
        let n = self.buffered();
        if n == 0 {
            return true;
        }
        let frame = if self.columnar {
            let frame = wire::encode_columnar_message(&self.rows);
            self.rows.clear();
            frame
        } else {
            self.frame.take()
        };
        self.buffered_since = None;
        // The child pays its own send cost: one frame plus its tuples.
        let sim = self.ctx.sim();
        self.env.pay(sim, sim.client.frame_cost(n)).await;
        self.ctx.record_shipped(frame.len());
        let batch = FromChild::ResultBatch {
            slot: self.slot,
            call_id: self.call_id,
            tuples: frame,
        };
        let ok = send_up(self.ctx, self.env, self.results, batch).await;
        self.parent_gone = !ok;
        ok
    }
}
