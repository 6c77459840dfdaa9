//! Query processes: threads with message inboxes.
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
//! Mailboxes are **bounded** ([`BatchPolicy::mailbox_capacity`]): a fast
//! producer blocks instead of buffering an entire parameter or result
//! stream in memory, and the time spent blocked is counted per node
//! ([`TreeRegistry::note_blocked_send`]) next to `msgs_down`/`msgs_up`.
//!
//! Plan functions and tuples cross the boundary as serialized bytes
//! ([`crate::wire`]); the parent pays the modeled client-side costs
//! (process startup, plan shipping, per-frame and per-tuple dispatch) so
//! the economics of the paper's single-core coordinator are preserved.
//! A warm process acquired from the [`crate::exec::pool`] skips the
//! startup and plan-ship charges entirely: it is re-wired to its new
//! parent with an `Attach` message instead of being spawned.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, SendError, Sender, TrySendError};

use wsmed_store::Tuple;

use crate::exec::{compile, eval, ExecContext, ProcEnv};
use crate::obs::{self, TraceEventKind, TraceLog};
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
        /// This process's identity in the acquiring run's tree.
        env: ProcEnv,
        /// The process's slot at its new parent.
        slot: usize,
        /// The new parent's result channel.
        results: Sender<FromChild>,
    },
    /// Terminate: tear down the subtree and exit.
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
        /// evaluating this call, as `(owf name, count)` entries. Shipped
        /// with the end-of-call so the parent commits skips exactly when
        /// it commits the call's rows — a dead child's skips are
        /// discarded with its rows and re-counted by whichever survivor
        /// re-evaluates the requeued parameters.
        skipped: Vec<(String, u64)>,
    },
}

/// Sends on a (possibly bounded) mailbox, charging time blocked on a full
/// channel to node `id`'s `blocked_send` counter (and recording a
/// `blocked_send` trace event when a log is live).
fn send_counted<T>(
    tx: &Sender<T>,
    msg: T,
    tree: &TreeRegistry,
    id: u64,
    trace: Option<&TraceLog>,
    level: usize,
    pf: &Arc<str>,
) -> Result<(), SendError<T>> {
    match tx.try_send(msg) {
        Ok(()) => Ok(()),
        Err(TrySendError::Disconnected(v)) => Err(SendError(v)),
        Err(TrySendError::Full(v)) => {
            let waited = Instant::now();
            let result = tx.send(v);
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
            result
        }
    }
}

/// A handle the parent keeps per child process.
#[derive(Debug)]
pub(crate) struct ChildProc {
    /// Process id in the tree registry.
    pub id: u64,
    tx: Sender<ToChild>,
    join: Option<JoinHandle<()>>,
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
    /// Spawns a child query process and ships it the plan function.
    ///
    /// The calling (parent) thread pays the modeled process-startup and
    /// plan-shipping costs before this returns, serializing process
    /// management on the parent as on the paper's single-core client.
    /// This is the single site charging `process_startup`, so the pool's
    /// `cold_spawns` counter is exactly the number of startup charges.
    pub fn spawn(
        ctx: &Arc<ExecContext>,
        parent: &ProcEnv,
        slot: usize,
        pf_name: &str,
        pf_digest: &Arc<str>,
        pf_bytes: Bytes,
        results: Sender<FromChild>,
    ) -> CoreResult<ChildProc> {
        let id = ctx.next_process_id();
        let level = parent.level + 1;
        let tree = Arc::clone(ctx.tree());
        tree.register(id, Some(parent.id), level, pf_name);
        if let Some(pool) = ctx.process_pool() {
            pool.note_cold_spawn(Some(ctx.pool_scope()));
        }

        // Client-side costs: starting the process and shipping the plan.
        let client = &ctx.sim().client;
        ctx.sim().sleep_model(client.process_startup);
        ctx.sim()
            .sleep_model(client.plan_ship_per_kib * pf_bytes.len() as f64 / 1024.0);
        ctx.record_shipped(pf_bytes.len());
        tree.note_msg_down(id);

        let (tx, rx) = bounded::<ToChild>(ctx.batch_policy().mailbox_capacity());
        let ctx_child = Arc::clone(ctx);
        let join = std::thread::Builder::new()
            .name(format!("wsmed-qp-{id}"))
            .spawn(move || child_main(ctx_child, ProcEnv { id, level }, slot, rx, results))
            .map_err(|e| {
                tree.deregister(id, false);
                CoreError::ProcessFailure(format!("failed to spawn query process q{id}: {e}"))
            })?;

        let mut proc = ChildProc {
            id,
            tx,
            join: Some(join),
            tree,
            deregistered: false,
            level,
            pf: Arc::clone(pf_digest),
            trace: ctx.trace_handle(),
            terminal_emitted: false,
        };
        if let Some(tr) = &proc.trace {
            tr.emit(
                id,
                level,
                &proc.pf,
                TraceEventKind::ChildSpawn { warm: false },
            );
        }
        if proc.tx.send(ToChild::Install(pf_bytes)).is_err() {
            // The thread died before reading its mailbox; reap it and
            // surface the failure instead of silently dropping the plan.
            drop(proc.join.take().map(JoinHandle::join));
            proc.tree.deregister(id, false);
            proc.deregistered = true;
            return Err(CoreError::ProcessFailure(format!(
                "query process q{id} died before plan installation"
            )));
        }
        Ok(proc)
    }

    /// Sends a batch of `n_params` parameter tuples as one frame; the
    /// parent pays the per-frame plus per-tuple dispatch cost. Fails when
    /// the child hung up (died), so the caller can requeue the work.
    pub fn send_call(
        &self,
        ctx: &ExecContext,
        call_id: u64,
        params: Bytes,
        n_params: usize,
    ) -> CoreResult<()> {
        ctx.sim().sleep_model(ctx.sim().client.frame_cost(n_params));
        ctx.record_shipped(params.len());
        self.tree.note_msg_down(self.id);
        send_counted(
            &self.tx,
            ToChild::Call { call_id, params },
            &self.tree,
            self.id,
            self.trace.as_deref(),
            self.level,
            &self.pf,
        )
        .map_err(|_| CoreError::ProcessFailure(format!("query process q{} hung up", self.id)))
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
    pub fn park(mut self, dropped_by_adaptation: bool) -> Option<ChildProc> {
        if self.tx.send(ToChild::Reset).is_err() {
            return None; // dropping `self` reaps the dead thread
        }
        self.tree.deregister(self.id, dropped_by_adaptation);
        self.deregistered = true;
        self.emit_terminal(TraceEventKind::ChildPark);
        Some(self)
    }

    /// Re-wires a warm (parked) process to a new parent: registers it in
    /// the current run's tree, charges one message-dispatch for the attach
    /// frame, and triggers the subtree's re-registration walk. Returns
    /// `false` when the parked thread turned out to be dead (the caller
    /// drops the handle and tries the next parked process).
    pub fn attach(
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
        ctx.sim().sleep_model(ctx.sim().client.frame_cost(0));
        self.tree.note_msg_down(self.id);
        self.level = parent.level + 1;
        let trace = ctx.trace_handle();
        let ok = send_counted(
            &self.tx,
            ToChild::Attach {
                ctx: Arc::clone(ctx),
                env: ProcEnv {
                    id: self.id,
                    level: self.level,
                },
                slot,
                results,
            },
            &self.tree,
            self.id,
            trace.as_deref(),
            self.level,
            &self.pf,
        )
        .is_ok();
        if ok {
            // A warm acquire starts a fresh spawn→terminal lifecycle in
            // the new run's log; a dead parked thread keeps its old (and
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
    pub fn forward_reset(&mut self) {
        if self.tx.send(ToChild::Reset).is_ok() {
            self.emit_terminal(TraceEventKind::ChildPark);
        }
    }

    /// Requests shutdown without joining — for a child that may be blocked
    /// sending into a full results channel the caller is not draining.
    /// The handle must be kept and dropped after the results receiver
    /// (dropping joins the thread, which by then exits promptly).
    pub fn begin_shutdown(mut self) -> ChildProc {
        self.tx.try_send(ToChild::Shutdown).ok();
        self.tree.deregister(self.id, false);
        self.deregistered = true;
        self.emit_terminal(TraceEventKind::ChildKill { adapt: false });
        self
    }

    /// Shuts the child down and waits for its subtree to terminate.
    pub fn shutdown(mut self, dropped_by_adaptation: bool) {
        self.emit_terminal(TraceEventKind::ChildKill {
            adapt: dropped_by_adaptation,
        });
        self.tx.send(ToChild::Shutdown).ok();
        if let Some(join) = self.join.take() {
            join.join().ok();
        }
        self.tree.deregister(self.id, dropped_by_adaptation);
        self.deregistered = true;
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // Teardown on the normal path (operator dropped) and on unwinding.
        // Threads must never leak.
        self.emit_terminal(TraceEventKind::ChildJoin);
        self.tx.send(ToChild::Shutdown).ok();
        if let Some(join) = self.join.take() {
            join.join().ok();
        }
        if !self.deregistered {
            self.tree.deregister(self.id, false);
            self.deregistered = true;
        }
    }
}

/// The child process main loop.
fn child_main(
    mut ctx: Arc<ExecContext>,
    mut env: ProcEnv,
    mut slot: usize,
    rx: Receiver<ToChild>,
    mut results: Sender<FromChild>,
) {
    // Bind this thread to its tree node so events recorded deep inside
    // `eval` (cache lookups, retries, WS calls) carry the right identity;
    // the pf digest is filled in once the plan function arrives.
    obs::set_current_proc(env.id, env.level, Arc::from(""));
    // ---- install phase ----------------------------------------------------
    let (pf, pf_digest) = match rx.recv() {
        Ok(ToChild::Install(bytes)) => match wire::decode_plan_function(bytes.clone()) {
            // Digest the shipped bytes (the same bytes the parent hashed)
            // so parent-side memo lookups hit what this child inserts.
            Ok(pf) => {
                let digest = crate::cache::pf_digest(&pf.name, &bytes);
                obs::set_current_proc(env.id, env.level, Arc::from(digest.as_str()));
                (pf, digest)
            }
            Err(e) => {
                send_up(
                    &ctx,
                    &env,
                    &results,
                    FromChild::Installed {
                        slot,
                        error: Some(e.to_string()),
                    },
                );
                return;
            }
        },
        Ok(ToChild::Shutdown) | Ok(ToChild::Reset) | Ok(ToChild::Attach { .. }) | Err(_) => return,
        Ok(ToChild::Call { call_id, .. }) => {
            send_up(
                &ctx,
                &env,
                &results,
                FromChild::EndOfCall {
                    slot,
                    call_id,
                    error: Some("call before plan function installation".into()),
                    skipped: Vec::new(),
                },
            );
            return;
        }
    };

    // Compiling the body spawns this process's own children (the next tree
    // level) — "each query process initially receives its own plan function
    // definition once before execution" (§III).
    let mut body = match compile(&ctx, &env, &pf.body) {
        Ok(node) => node,
        Err(e) => {
            send_up(
                &ctx,
                &env,
                &results,
                FromChild::Installed {
                    slot,
                    error: Some(e.to_string()),
                },
            );
            return;
        }
    };
    ctx.tree().note_msg_up(env.id);
    if results
        .send(FromChild::Installed { slot, error: None })
        .is_err()
    {
        return;
    }

    // ---- call loop ---------------------------------------------------------
    while let Ok(msg) = rx.recv() {
        match msg {
            ToChild::Call { call_id, params } => {
                let prune_key = pf.prune.as_ref().map(|s| s.section_key.as_str());
                if !handle_call(
                    &ctx, &env, slot, &mut body, &pf_digest, prune_key, call_id, params, &results,
                ) {
                    return; // parent hung up
                }
            }
            ToChild::Reset => {
                // Parked: clear per-run state down the whole warm subtree.
                crate::exec::reset_subtree(&mut body);
            }
            ToChild::Attach {
                ctx: new_ctx,
                env: new_env,
                slot: new_slot,
                results: new_results,
            } => {
                // Re-wired to a new parent run, possibly under a different
                // query's execution context: rebind everything — context,
                // identity, slot, results channel — then re-register the
                // warm subtree into the new run's tree with fresh ids.
                ctx = new_ctx;
                env = new_env;
                slot = new_slot;
                results = new_results;
                obs::set_current_proc(env.id, env.level, Arc::from(pf_digest.as_str()));
                crate::exec::reattach_subtree(&mut body, &ctx, &env);
            }
            ToChild::Shutdown => break,
            ToChild::Install(_) => {
                // Re-installation is a protocol violation; ignore.
            }
        }
    }
    // `body` drops here, recursively shutting down this process's children.
}

/// Sends one frame up to the parent, counting the message (and any time
/// blocked on a full channel) against this process's node.
fn send_up(ctx: &Arc<ExecContext>, env: &ProcEnv, results: &Sender<FromChild>, msg: FromChild) {
    let tree = ctx.tree();
    tree.note_msg_up(env.id);
    let (_, level, pf) = obs::current_proc();
    send_counted(results, msg, tree, env.id, ctx.tracer(), level, &pf).ok();
}

/// Evaluates one parameter batch, streaming result frames through a
/// bounded flush buffer. Returns `false` if the parent hung up.
///
/// Each parameter's complete result set is also memoized in the call
/// cache's plan-function row memo (keyed by `pf_digest` and the
/// parameter's wire encoding) so the parent can short-circuit later
/// duplicates without shipping them to any child.
#[allow(clippy::too_many_arguments)]
fn handle_call(
    ctx: &Arc<ExecContext>,
    env: &ProcEnv,
    slot: usize,
    body: &mut crate::exec::ExecNode,
    pf_digest: &str,
    prune_key: Option<&str>,
    call_id: u64,
    params: Bytes,
    results: &Sender<FromChild>,
) -> bool {
    let cache = ctx.call_cache();
    let mut flush = FlushBuffer::new(ctx, env, slot, call_id, results);
    // Fresh per call: skips recorded by `eval` under partial failure mode
    // accumulate here and ship with this call's end-of-call message.
    crate::resilience::install_skip_sink();
    let outcome = (|| -> crate::CoreResult<()> {
        // One parameter's evaluation: stream its rows through the flush
        // buffer and memoize its complete result set under its row-format
        // wire encoding (`key` is computed lazily — columnar frames only
        // re-encode a row when the memo will actually be written).
        let mut eval_param = |param: &Tuple,
                              key: &mut dyn FnMut() -> crate::cache::CacheKey,
                              flush: &mut FlushBuffer|
         -> crate::CoreResult<()> {
            let skips_before = crate::resilience::skip_sink_len();
            let rows = eval(body, ctx, param)?;
            for tuple in &rows {
                if !flush.push(tuple) {
                    return Err(crate::CoreError::ProcessFailure("parent gone".into()));
                }
            }
            // A parameter that deterministically produced no rows (no call
            // was skipped) is a semi-join pruning candidate: report it under
            // this section's stable key so a later planning pass can drop it
            // parent-side before any dependent call is issued.
            if rows.is_empty() && crate::resilience::skip_sink_len() == skips_before {
                if let (Some(key), Some(obs)) = (prune_key, ctx.planner_obs()) {
                    obs.observe_empty(key, wire::encode_tuple(param));
                }
            }
            if let Some(cache) = cache {
                // A parameter whose evaluation skipped any call produced
                // an incomplete row set; memoizing it would let a later
                // duplicate short-circuit to partial rows without its
                // skip being counted.
                if crate::resilience::skip_sink_len() == skips_before {
                    cache.insert_rows(&key(), std::sync::Arc::new(rows), Some(ctx.cache_scope()));
                }
            }
            // A cheap parameter between expensive ones must not strand
            // buffered results past the latency bound.
            if !flush.flush_if_stale() {
                return Err(crate::CoreError::ProcessFailure("parent gone".into()));
            }
            Ok(())
        };
        match wire::decode_message(params)? {
            wire::MessageBatch::Rows(parts) => {
                for encoded in parts {
                    let param = wire::decode_tuple(encoded.clone())?;
                    eval_param(
                        &param,
                        &mut || crate::cache::CacheKey::for_rows(pf_digest, &encoded),
                        &mut flush,
                    )?;
                }
            }
            wire::MessageBatch::Columnar(batch) => {
                for i in 0..batch.len() {
                    let param = batch.row(i);
                    // Memo-key parity: the key bytes come straight from the
                    // column slices and equal the parent's `encode_tuple`
                    // output exactly.
                    eval_param(
                        &param,
                        &mut || crate::cache::CacheKey::for_batch_row(pf_digest, &batch, i),
                        &mut flush,
                    )?;
                }
            }
        }
        Ok(())
    })();
    let skipped = crate::resilience::take_skip_sink();
    let error = match outcome {
        Ok(()) => {
            if !flush.finish() {
                return false;
            }
            None
        }
        Err(e) => Some(e.to_string()),
    };
    if error.is_some() && flush.parent_gone {
        return false;
    }
    let tree = ctx.tree();
    tree.note_msg_up(env.id);
    let (_, level, pf) = obs::current_proc();
    send_counted(
        results,
        FromChild::EndOfCall {
            slot,
            call_id,
            error,
            skipped,
        },
        tree,
        env.id,
        ctx.tracer(),
        level,
        &pf,
    )
    .is_ok()
}

/// Child-side result buffer: accumulates encoded tuples and flushes a
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
    /// Row mode: per-tuple encodings, framed with a memcpy at flush.
    buf: Vec<Bytes>,
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
    ) -> Self {
        let policy: BatchPolicy = ctx.batch_policy();
        FlushBuffer {
            ctx,
            env,
            slot,
            call_id,
            results,
            max_tuples: policy.max_result_tuples.max(1),
            flush_model_secs: policy.flush_model_secs,
            buf: Vec::new(),
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
            self.buf.len()
        }
    }

    /// Buffers one result tuple, flushing if the buffer filled or went
    /// stale. Returns `false` if the parent hung up.
    fn push(&mut self, tuple: &Tuple) -> bool {
        if self.columnar {
            self.rows.push(tuple.clone());
        } else {
            self.buf.push(wire::encode_tuple(tuple));
        }
        self.buffered_since.get_or_insert_with(Instant::now);
        if self.buffered() >= self.max_tuples {
            return self.flush();
        }
        self.flush_if_stale()
    }

    /// Flushes when the oldest buffered tuple has waited longer than the
    /// model-time bound (only measurable when the sim is time-scaled).
    fn flush_if_stale(&mut self) -> bool {
        let Some(since) = self.buffered_since else {
            return true;
        };
        let scale = self.ctx.sim().time_scale;
        if scale > 0.0 && since.elapsed().as_secs_f64() / scale >= self.flush_model_secs {
            return self.flush();
        }
        true
    }

    /// Flushes any remaining tuples at end of call.
    fn finish(&mut self) -> bool {
        if self.buffered() == 0 {
            true
        } else {
            self.flush()
        }
    }

    fn flush(&mut self) -> bool {
        let n = self.buffered();
        if n == 0 {
            return true;
        }
        let frame = if self.columnar {
            wire::encode_columnar_message(&self.rows)
        } else {
            wire::encode_rows_message(&self.buf)
        };
        self.buf.clear();
        self.rows.clear();
        self.buffered_since = None;
        // The child pays its own send cost: one frame plus its tuples.
        let sim = self.ctx.sim();
        sim.sleep_model(sim.client.frame_cost(n));
        self.ctx.record_shipped(frame.len());
        let tree = self.ctx.tree();
        tree.note_msg_up(self.env.id);
        let (_, level, pf) = obs::current_proc();
        let ok = send_counted(
            self.results,
            FromChild::ResultBatch {
                slot: self.slot,
                call_id: self.call_id,
                tuples: frame,
            },
            tree,
            self.env.id,
            self.ctx.tracer(),
            level,
            &pf,
        )
        .is_ok();
        self.parent_gone = !ok;
        ok
    }
}
