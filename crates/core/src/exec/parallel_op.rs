//! The `FF_APPLYP` and `AFF_APPLYP` operators (paper §III.A and §V.A).
//!
//! Both share one dispatch engine: ship the plan function to a pool of
//! child query processes, then stream parameter tuples to whichever child
//! is idle — *first finished, first served*. Results are merged as they
//! arrive. The adaptive variant additionally monitors the average time per
//! incoming result tuple over *monitoring cycles* and grows (add stage) or
//! shrinks (drop stage) its pool of children, each of which adapts its own
//! subtree the same way — purely local, greedy decisions.
//!
//! When a warm process pool ([`crate::exec::pool`]) is installed, child
//! processes are acquired warm when a parked process with the same plan
//! function and tree level exists, and idle children are parked back at
//! end of run (or at an adaptive drop stage) instead of being joined.
//!
//! Results of an in-flight call are buffered per slot and committed only
//! at a successful `EndOfCall`, so a child that dies mid-call can have its
//! undelivered parameters requeued to surviving siblings without
//! duplicating the partial results it already shipped.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use wsmed_store::Tuple;

use crate::cache::{self, CacheKey, CallCache};
use crate::exec::mailbox::{bounded, Receiver, Sender};
use crate::exec::pool::{Acquired, ProcessPool};
use crate::exec::process::{ChildProc, FromChild};
use crate::exec::{ExecContext, ProcEnv};
use crate::obs::TraceEventKind;
use crate::plan::{AdaptDecision, AdaptiveConfig, PlanFunction, PruneSet};
use crate::resilience::Skips;
use crate::transport::DispatchPolicy;
use crate::wire;
use crate::{CoreError, CoreResult};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    /// Spawned; plan function not yet confirmed installed.
    Installing,
    /// Ready for a parameter tuple.
    Idle,
    /// Processing a call.
    Busy,
    /// Processing a call, marked for removal once it finishes.
    Draining,
    /// Shut down (dropped by adaptation, parked, or failed). A killed
    /// child keeps its handle here until the operator shuts down.
    Dead,
}

/// One parameter tuple staged for shipping: the row itself, which the
/// Call frame is encoded from, and, when a call cache screens parameters,
/// its row encoding — the memo key.
#[derive(Debug, Clone)]
struct ShipParam {
    row: Tuple,
    key: Option<Bytes>,
}

struct Slot {
    proc: Option<ChildProc>,
    status: SlotStatus,
    /// The call id this slot is currently processing, for protocol checks.
    current_call: Option<u64>,
    /// Parameters of the in-flight call — requeued to surviving
    /// siblings if this child dies before its `EndOfCall`.
    in_flight: Vec<ShipParam>,
    /// Result tuples of the in-flight call, committed at `EndOfCall`.
    call_buf: Vec<Tuple>,
}

impl Slot {
    fn new(proc: ChildProc, status: SlotStatus) -> Self {
        Slot {
            proc: Some(proc),
            status,
            current_call: None,
            in_flight: Vec::new(),
            call_buf: Vec::new(),
        }
    }
}

struct AdaptState {
    config: AdaptiveConfig,
    /// End-of-call messages seen in the current monitoring cycle.
    eoc_in_cycle: usize,
    /// Result tuples received in the current monitoring cycle.
    tuples_in_cycle: u64,
    /// Active (in-dispatch-loop) time accumulated in the current cycle.
    cycle_active: Duration,
    /// Average per-tuple time of the previous cycle.
    prev_t: Option<f64>,
    /// Adaptation has converged; no more add/drop stages.
    stopped: bool,
    /// The previous stage was a drop (a second worsening stops adaptation).
    last_was_drop: bool,
    /// Per-tuple time at the convergence cycle — the baseline the re-arm
    /// check ([`AdaptiveConfig::rearm_factor`]) measures deviation against.
    converged_t: Option<f64>,
    /// Completed monitoring cycles this run (trace record numbering).
    cycles: u64,
}

impl AdaptState {
    /// Clears the per-run monitoring state (park-time `Reset`), so a warm
    /// subtree re-adapts from scratch in its next run.
    fn reset(&mut self) {
        self.eoc_in_cycle = 0;
        self.tuples_in_cycle = 0;
        self.cycle_active = Duration::ZERO;
        self.prev_t = None;
        self.stopped = false;
        self.last_was_drop = false;
        self.converged_t = None;
        self.cycles = 0;
    }
}

/// A pool of child query processes executing one plan function, hosted by
/// a query process that every method taking an `env` is called from.
pub(crate) struct ParallelApply {
    pf_name: String,
    pf_bytes: Bytes,
    /// Content address of `pf_bytes` — the memo namespace for this plan
    /// function's per-parameter result rows (see [`crate::cache`]), the
    /// warm-pool key for its processes, and the `pf` identity stamped on
    /// this operator's child-side trace events.
    pf_digest: Arc<str>,
    /// Semi-join prune set: wire-encoded parameter tuples learned to
    /// evaluate empty, dropped before shipping ([`PlanFunction::prune`]).
    /// The plan's own sorted set, shared by refcount; empty when the plan
    /// carries no drop list — the common case, and zero overhead per
    /// parameter.
    prune: PruneSet,
    slots: Vec<Slot>,
    idle: VecDeque<usize>,
    results_tx: Sender<FromChild>,
    results_rx: Receiver<FromChild>,
    next_call_id: u64,
    adapt: Option<AdaptState>,
}

impl ParallelApply {
    /// `FF_APPLYP`: a fixed fanout, set manually in the plan.
    pub async fn fixed(
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        pf: &PlanFunction,
        fanout: usize,
    ) -> Self {
        Self::new(ctx, env, pf, fanout, None).await
    }

    /// `AFF_APPLYP`: starts from a binary tree and adapts.
    pub async fn adaptive(
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        pf: &PlanFunction,
        config: AdaptiveConfig,
    ) -> Self {
        let init = config.init_fanout.max(1);
        let adapt = AdaptState {
            config,
            eoc_in_cycle: 0,
            tuples_in_cycle: 0,
            cycle_active: Duration::ZERO,
            prev_t: None,
            stopped: false,
            last_was_drop: false,
            converged_t: None,
            cycles: 0,
        };
        Self::new(ctx, env, pf, init, Some(adapt)).await
    }

    async fn new(
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        pf: &PlanFunction,
        fanout: usize,
        adapt: Option<AdaptState>,
    ) -> Self {
        // Bounded results channel: capacity scales with the initial fanout
        // so each child gets a mailbox's worth of frames in flight. An
        // adaptive add stage does not grow the channel — extra children
        // just see backpressure sooner (counted in `blocked_send`).
        let cap = ctx.batch_policy().mailbox_capacity() * fanout.max(1);
        let (results_tx, results_rx) = bounded(cap);
        // Encoded once from a reference; children get refcounted
        // clones of these bytes, never a deep copy of the plan.
        let pf_bytes = wire::encode_plan_function(pf);
        let pf_digest: Arc<str> = Arc::from(cache::pf_digest(&pf.name, &pf_bytes));
        let prune = pf
            .prune
            .as_ref()
            .map(|spec| spec.drop_params.clone())
            .unwrap_or_default();
        let mut this = ParallelApply {
            pf_name: pf.name.clone(),
            pf_bytes,
            pf_digest,
            prune,
            slots: Vec::new(),
            idle: VecDeque::new(),
            results_tx,
            results_rx,
            next_call_id: 0,
            adapt,
        };
        for _ in 0..fanout {
            this.spawn_child(ctx, env).await;
        }
        this
    }

    /// Children currently alive.
    pub fn alive_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.status != SlotStatus::Dead)
            .count()
    }

    /// Adds one child: warm from the process pool when a parked process
    /// with this plan function and level exists, else a cold spawn.
    async fn spawn_child(&mut self, ctx: &Arc<ExecContext>, env: &ProcEnv) {
        let slot_index = self.slots.len();
        if let Some(pool) = ctx.process_pool() {
            let scope = ctx.pool_scope();
            while let Some(acquired) = pool.acquire(&self.pf_digest, env.level + 1, scope) {
                let (mut proc, saved_model_secs) = match acquired {
                    Acquired::Warm {
                        proc,
                        saved_model_secs,
                    } => (proc, saved_model_secs),
                    Acquired::Expired(proc) => {
                        ChildProc::join_all(vec![proc]).await;
                        continue;
                    }
                };
                let results = self.results_tx.clone();
                if proc
                    .attach(ctx, env, slot_index, &self.pf_name, results)
                    .await
                {
                    scope.note_warm_acquire(saved_model_secs);
                    // A warm process is installed and idle immediately —
                    // Attach is processed before any later Call (FIFO), so
                    // no installation round-trip is needed.
                    self.slots.push(Slot::new(proc, SlotStatus::Idle));
                    self.idle.push_back(slot_index);
                    return;
                }
                // The parked process died while idle; drop it and retry.
                scope.note_evictions(1);
            }
        }
        let proc = ChildProc::spawn(
            ctx,
            env,
            slot_index,
            &self.pf_name,
            &self.pf_digest,
            self.pf_bytes.clone(),
            self.results_tx.clone(),
        )
        .await;
        self.slots.push(Slot::new(proc, SlotStatus::Installing));
    }

    fn busy_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.status, SlotStatus::Busy | SlotStatus::Draining))
            .count()
    }

    /// The modeled cost a warm acquire of one of this operator's children
    /// skips: process startup plus shipping this plan function.
    fn saved_model_secs(&self, ctx: &ExecContext) -> f64 {
        let client = &ctx.sim().client;
        client.process_startup + client.plan_ship_per_kib * self.pf_bytes.len() as f64 / 1024.0
    }

    /// Streams `params` through the pool and returns the merged results,
    /// recording an operator span around the dispatch loop. The skips of
    /// every committed call are added to `skips`.
    pub async fn run(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        params: Vec<Tuple>,
        skips: &mut Skips,
    ) -> CoreResult<Vec<Tuple>> {
        ctx.trace(
            env,
            TraceEventKind::OpRunStart {
                params: params.len() as u64,
            },
        );
        let result = self.run_inner(ctx, env, params, skips).await;
        ctx.trace(
            env,
            TraceEventKind::OpRunEnd {
                ok: result.is_ok(),
                results: result.as_ref().map_or(0, |r| r.len() as u64),
            },
        );
        result
    }

    async fn run_inner(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        params: Vec<Tuple>,
        skips: &mut Skips,
    ) -> CoreResult<Vec<Tuple>> {
        // Adaptive pools always use the paper's first-finished dispatch;
        // the round-robin ablation only applies to fixed fanouts.
        let policy = if self.adapt.is_some() {
            DispatchPolicy::FirstFinished
        } else {
            ctx.dispatch_policy()
        };
        let cache = ctx.call_cache();
        let mut out: Vec<Tuple> = Vec::new();
        // Dedup-aware dispatch: answer parameters whose plan-function rows
        // are already memoized parent-side, without shipping them to a
        // child — no frame, no child round-trip, no repeated OWF call.
        let mut to_ship: Vec<ShipParam> = Vec::with_capacity(params.len());
        let mut pruned: u64 = 0;
        for row in params {
            // A parameter's encoding is built only where it is a key.
            let encoded =
                (cache.is_some() || !self.prune.is_empty()).then(|| wire::encode_tuple(&row));
            // Semi-join pruning first: a parameter learned to evaluate
            // empty contributes nothing to the result stream, so it is
            // dropped before the memo screen and before any child sees it.
            if encoded.as_ref().is_some_and(|e| self.prune.contains(e)) {
                pruned += 1;
                continue;
            }
            let key = cache.and(encoded);
            if !self.screen_param(ctx, env, cache, key.as_ref(), &mut out) {
                to_ship.push(ShipParam { row, key });
            }
        }
        if pruned > 0 {
            ctx.note_pruned_params(pruned);
            if ctx.tracing() {
                ctx.trace(
                    env,
                    TraceEventKind::ParamsPruned {
                        pf: self.pf_name.clone(),
                        count: pruned,
                    },
                );
            }
        }
        let mut pending = PendingParams::new(policy, self.slots.len(), to_ship);
        let mut first_error: Option<CoreError> = None;
        let mut segment_start = Instant::now();

        self.dispatch_pending(ctx, env, cache, &mut pending, &mut out)
            .await;

        while self.busy_count() > 0 || !pending.is_empty() {
            if !pending.is_empty() && self.alive_count() == 0 {
                return Err(CoreError::ProcessFailure(format!(
                    "all children of {} are dead with {} parameters pending",
                    self.pf_name,
                    pending.len()
                )));
            }
            // This operator holds a sender itself, so the mailbox never
            // ends while it waits; a wedged subtree shows as the
            // coordinator's run making no progress.
            let Some(msg) = self.results_rx.recv().await else {
                return Err(CoreError::ProcessFailure(format!(
                    "result channel of {} disconnected",
                    self.pf_name
                )));
            };
            // Receiving a message costs the parent dispatch time, which is
            // what makes an over-wide tree hurt on a single-core client.
            let client = &ctx.sim().client;
            env.pay(ctx.sim(), client.frame_cost(0)).await;

            match msg {
                FromChild::Installed { slot, error: None } => {
                    if self.slots[slot].status == SlotStatus::Installing {
                        self.slots[slot].status = SlotStatus::Idle;
                        self.idle.push_back(slot);
                    }
                }
                FromChild::Installed {
                    slot,
                    error: Some(e),
                } => {
                    if self.slots[slot].status != SlotStatus::Dead {
                        self.kill_slot(slot, false).await;
                        if first_error.is_none() {
                            first_error = Some(CoreError::ProcessFailure(format!(
                                "child of {} failed to install: {e}",
                                self.pf_name
                            )));
                            pending.clear();
                        }
                    }
                }
                FromChild::ResultBatch {
                    slot,
                    call_id,
                    tuples,
                } => {
                    if self.slots[slot].status == SlotStatus::Dead {
                        // Stale frame from a killed child whose parameters
                        // were requeued; committing it would duplicate rows.
                        continue;
                    }
                    if self.slots[slot].current_call != Some(call_id) {
                        return Err(CoreError::ProcessFailure(format!(
                            "{}: result batch for call {call_id} from slot {slot} which is \
                             processing {:?}",
                            self.pf_name, self.slots[slot].current_call
                        )));
                    }
                    // The frame's tuples decode straight onto the call's
                    // buffered results.
                    let n = wire::decode_message_onto(tuples, &mut self.slots[slot].call_buf)?;
                    // The rest of the frame's price, now that its tuples are
                    // counted (the per-frame share was paid above on receipt).
                    env.pay(ctx.sim(), client.frame_cost(n) - client.frame_cost(0))
                        .await;
                    if n > 0 && env.level == 0 {
                        ctx.record_first_result();
                    }
                    if let Some(adapt) = &mut self.adapt {
                        adapt.tuples_in_cycle += n as u64;
                    }
                }
                FromChild::EndOfCall {
                    slot,
                    call_id,
                    error,
                    skipped,
                } => {
                    if self.slots[slot].status == SlotStatus::Dead {
                        continue; // stale notice from a killed child
                    }
                    if self.slots[slot].current_call != Some(call_id) {
                        return Err(CoreError::ProcessFailure(format!(
                            "{}: end-of-call {call_id} from slot {slot} which is \
                             processing {:?}",
                            self.pf_name, self.slots[slot].current_call
                        )));
                    }
                    self.slots[slot].current_call = None;
                    self.slots[slot].in_flight.clear();
                    match error {
                        None => {
                            // Commit the call's buffered results, and the
                            // skips recorded alongside them. Skips of a
                            // dead or failed call are discarded with its
                            // rows: the requeued parameters are
                            // re-evaluated (and re-counted) elsewhere.
                            out.append(&mut self.slots[slot].call_buf);
                            skips.absorb(skipped);
                        }
                        Some(e) => {
                            // Deterministic evaluation failure: the query
                            // aborts; requeueing would fail the same way.
                            self.slots[slot].call_buf.clear();
                            if first_error.is_none() {
                                first_error = Some(CoreError::ProcessFailure(format!(
                                    "{} call failed: {e}",
                                    self.pf_name
                                )));
                                pending.clear();
                            }
                        }
                    }
                    match self.slots[slot].status {
                        SlotStatus::Draining => self.kill_slot(slot, true).await,
                        SlotStatus::Busy => {
                            self.slots[slot].status = SlotStatus::Idle;
                            self.idle.push_back(slot);
                        }
                        _ => {}
                    }
                    // Failure-injection knob (tests): abruptly kill one
                    // busy child to exercise the requeue path.
                    if env.level == 0 && ctx.take_child_failure_trigger() {
                        if let Some(victim) = self
                            .slots
                            .iter()
                            .position(|s| {
                                matches!(s.status, SlotStatus::Busy | SlotStatus::Draining)
                            })
                            .or_else(|| {
                                self.slots.iter().position(|s| s.status == SlotStatus::Idle)
                            })
                        {
                            self.fail_slot(ctx, env, victim, &mut pending);
                        }
                    }
                    self.monitoring_step(ctx, env, &mut segment_start).await;
                }
            }
            self.dispatch_pending(ctx, env, cache, &mut pending, &mut out)
                .await;
        }

        // Account trailing active time to the current monitoring cycle.
        if let Some(adapt) = &mut self.adapt {
            adapt.cycle_active += segment_start.elapsed();
        }

        match first_error {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Answers the parameter encoded as `key` from the plan-function row
    /// memo if possible, appending its memoized result rows to `out`.
    /// Returns `true` when the parameter was short-circuited and must not
    /// be shipped.
    fn screen_param(
        &self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        cache: Option<&Arc<CallCache>>,
        key: Option<&Bytes>,
        out: &mut Vec<Tuple>,
    ) -> bool {
        let (Some(cache), Some(encoded)) = (cache, key) else {
            return false;
        };
        let key = CacheKey::for_rows(&self.pf_digest, encoded);
        let Some(rows) = cache.peek_rows(&key, ctx.cache_scope()) else {
            return false;
        };
        if !rows.is_empty() && env.level == 0 {
            ctx.record_first_result();
        }
        out.extend(rows.iter().cloned());
        ctx.cache_scope().note_short_circuit();
        ctx.tree().note_short_circuits(env.id, 1);
        ctx.trace(env, TraceEventKind::ShortCircuit { params: 1 });
        true
    }

    async fn dispatch_pending(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        cache: Option<&Arc<CallCache>>,
        pending: &mut PendingParams,
        out: &mut Vec<Tuple>,
    ) {
        let max_params = ctx.batch_policy().max_params.max(1);
        while !pending.is_empty() {
            let Some(slot) = self.idle.pop_front() else {
                break;
            };
            if self.slots[slot].status != SlotStatus::Idle {
                continue; // stale queue entry (slot was drained/killed)
            }
            // Guided self-scheduling: cap each batch at the slot's fair
            // share of the remaining queue so one child cannot swallow the
            // whole parameter stream and serialize the pool — handing out
            // equal upfront partitions would disable the first-finished
            // rebalancing the paper's dispatch exists for. The chunk floor
            // trims the geometric tail (…, 2, 1, 1, 1) that would otherwise
            // spend a frame per tuple at the end of every queue drain.
            let share = pending.len().div_ceil(self.alive_count().max(1));
            let floor = max_params.div_ceil(16);
            let mut batch = pending.take_batch_for(slot, max_params.min(share.max(floor)));
            let had_work = !batch.is_empty();
            // Second screening pass: a duplicate of this parameter may have
            // completed (and been memoized) since the run started.
            batch.retain(|p| !self.screen_param(ctx, env, cache, p.key.as_ref(), out));
            if batch.is_empty() {
                if had_work {
                    // Everything taken was answered from the memo; the slot
                    // is still idle and the queue may hold more work.
                    self.idle.push_back(slot);
                    continue;
                }
                // Round-robin: this slot's static share is exhausted; it
                // stays idle even though other slots still have work — the
                // straggler cost FF dispatch avoids.
                self.idle.push_back(slot);
                // Avoid spinning when every idle slot is drained.
                if self.idle.iter().all(|&s| pending.take_peek(s).is_none()) {
                    break;
                }
                continue;
            }
            let call_id = self.next_call_id;
            self.next_call_id += 1;
            let proc = self.slots[slot]
                .proc
                .as_ref()
                .expect("idle slot has a process");
            ctx.tree().note_calls(proc.id, batch.len() as u64);
            if let Some(tr) = ctx.tracer() {
                tr.emit(
                    proc.id,
                    env.level + 1,
                    &self.pf_digest,
                    TraceEventKind::CallDispatched {
                        params: batch.len() as u64,
                    },
                );
            }
            let frame = wire::encode_rows(batch.iter().map(|p| &p.row));
            let sent = proc.send_call(ctx, env, call_id, frame, batch.len()).await;
            match sent {
                Ok(()) => {
                    self.slots[slot].status = SlotStatus::Busy;
                    self.slots[slot].current_call = Some(call_id);
                    self.slots[slot].in_flight = batch;
                }
                Err(_) => {
                    // The child died before taking the call: requeue its
                    // batch and fail the slot over to its siblings.
                    self.slots[slot].in_flight = batch;
                    self.fail_slot(ctx, env, slot, pending);
                }
            }
        }
    }

    /// Tears one slot down and waits for its subtree to end. Only safe when
    /// the child cannot be blocked sending results — i.e. after its
    /// `EndOfCall` was processed, or before it ever got a call.
    async fn kill_slot(&mut self, slot: usize, dropped_by_adaptation: bool) {
        let s = &mut self.slots[slot];
        s.in_flight.clear();
        s.call_buf.clear();
        s.current_call = None;
        s.status = SlotStatus::Dead;
        if let Some(proc) = s.proc.take() {
            proc.shutdown(dropped_by_adaptation).await;
        }
    }

    /// Handles an abrupt child death mid-stream: discards the call's
    /// partial results, requeues its undelivered parameters to surviving
    /// siblings (including any per-slot round-robin backlog), and leaves
    /// the join to [`ParallelApply::shutdown`] (the child may be blocked
    /// sending into the results mailbox this loop is reading).
    fn fail_slot(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        slot: usize,
        pending: &mut PendingParams,
    ) {
        let s = &mut self.slots[slot];
        let requeued = std::mem::take(&mut s.in_flight);
        s.call_buf.clear();
        s.current_call = None;
        s.status = SlotStatus::Dead;
        let mut dead_id = 0;
        if let Some(proc) = &mut s.proc {
            dead_id = proc.id;
            proc.kill();
        }
        ctx.trace(
            env,
            TraceEventKind::Requeue {
                from_child: dead_id,
                params: requeued.len() as u64,
            },
        );
        pending.requeue(requeued);
        let survivors: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status != SlotStatus::Dead)
            .map(|(i, _)| i)
            .collect();
        pending.migrate_slot(slot, &survivors);
    }

    /// The heart of `AFF_APPLYP` (§V.A): a monitoring cycle completes when
    /// as many end-of-call messages arrived as there are children; the
    /// operator then compares the average time per incoming tuple with the
    /// previous cycle and adds or drops children.
    async fn monitoring_step(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        segment_start: &mut Instant,
    ) {
        /// What the cycle boundary asks the pool to do structurally.
        enum Action {
            Add(usize),
            DropOne,
            /// Re-arm: reset the tree to this width and restart adaptation.
            Rearm(usize),
        }
        let alive = self.alive_count();
        let action = {
            let Some(adapt) = &mut self.adapt else { return };
            adapt.eoc_in_cycle += 1;
            if alive == 0 || adapt.eoc_in_cycle < alive {
                return;
            }

            // ---- cycle boundary ---------------------------------------------
            adapt.cycle_active += segment_start.elapsed();
            *segment_start = Instant::now();
            let t = adapt.cycle_active.as_secs_f64() / adapt.tuples_in_cycle.max(1) as f64;
            let prev = adapt.prev_t;
            let eocs = adapt.eoc_in_cycle as u64;
            let tuples = adapt.tuples_in_cycle;
            adapt.cycles += 1;
            // A converged operator under a re-arm policy keeps watching t:
            // drifting beyond the configured fraction of the converged
            // baseline — in either direction — restarts adaptation, so the
            // fanout tracks a moving optimum (topology churn, brownouts).
            let rearmed = adapt.stopped
                && match (adapt.config.rearm_factor, adapt.converged_t) {
                    (Some(factor), Some(base)) => (t - base).abs() > base * factor,
                    _ => false,
                };
            let decision = if adapt.stopped {
                None
            } else {
                Some(
                    adapt
                        .config
                        .decide(adapt.prev_t, t, alive, adapt.last_was_drop),
                )
            };
            adapt.prev_t = Some(t);
            adapt.eoc_in_cycle = 0;
            adapt.tuples_in_cycle = 0;
            adapt.cycle_active = Duration::ZERO;
            let described = match &decision {
                Some(AdaptDecision::Add(n)) => format!("add:{n}"),
                Some(AdaptDecision::DropOne) => "drop".to_owned(),
                Some(AdaptDecision::Stop) => "stop".to_owned(),
                None if rearmed => "rearm".to_owned(),
                None => "converged".to_owned(),
            };
            if ctx.tracing() {
                ctx.trace(
                    env,
                    TraceEventKind::Cycle {
                        cycle: adapt.cycles,
                        eocs,
                        tuples,
                        per_tuple_secs: t,
                        prev,
                        threshold: adapt.config.threshold,
                        alive,
                        verdict: described.clone(),
                    },
                );
            }
            ctx.tree().record_adapt_event(crate::stats::AdaptEvent {
                process: env.id,
                level: env.level,
                per_tuple_secs: t,
                alive,
                decision: described,
            });
            match decision {
                Some(AdaptDecision::Add(n)) => {
                    adapt.last_was_drop = false;
                    Some(Action::Add(n))
                }
                Some(AdaptDecision::DropOne) => {
                    adapt.last_was_drop = true;
                    Some(Action::DropOne)
                }
                Some(AdaptDecision::Stop) => {
                    adapt.stopped = true;
                    adapt.converged_t = Some(t);
                    None
                }
                None if rearmed => {
                    adapt.stopped = false;
                    adapt.prev_t = None;
                    adapt.last_was_drop = false;
                    adapt.converged_t = None;
                    Some(Action::Rearm(adapt.config.init_fanout.max(1)))
                }
                None => None,
            }
        };
        match action {
            Some(Action::Add(n)) => {
                for _ in 0..n {
                    self.spawn_child(ctx, env).await;
                }
            }
            Some(Action::DropOne) => self.drop_one_child(ctx, env).await,
            Some(Action::Rearm(target)) => {
                // Reset the tree to the initial width; the next cycles'
                // add (or drop) stages walk toward the new optimum.
                let alive = self.alive_count();
                if alive > target {
                    for _ in 0..(alive - target) {
                        self.drop_one_child(ctx, env).await;
                    }
                } else {
                    for _ in 0..(target - alive) {
                        self.spawn_child(ctx, env).await;
                    }
                }
            }
            None => {}
        }
    }

    /// Drops one child and its subtree (paper Fig. 20). Prefers an idle
    /// child (parked warm or killed immediately); otherwise marks the
    /// newest busy child to drain away after its current call.
    async fn drop_one_child(&mut self, ctx: &Arc<ExecContext>, env: &ProcEnv) {
        if let Some(slot) = self
            .slots
            .iter()
            .rposition(|s| s.status == SlotStatus::Idle)
        {
            self.retire_slot(ctx, env, slot).await;
            return;
        }
        if let Some(slot) = self
            .slots
            .iter()
            .rposition(|s| s.status == SlotStatus::Busy)
        {
            self.slots[slot].status = SlotStatus::Draining;
        }
    }

    /// The process pool idle children park in, when the run has one that
    /// can park anything (one with `max_idle_total: 0` spawns every
    /// process cold).
    fn parking_pool(ctx: &ExecContext) -> Option<Arc<ProcessPool>> {
        ctx.process_pool().filter(|p| {
            let policy = p.policy();
            policy.max_idle_total > 0 && policy.max_idle_per_pf > 0
        })
    }

    /// Parks one idle child (with its whole subtree) and ends whatever the
    /// pool evicts to make room.
    async fn park_slot(
        &mut self,
        ctx: &Arc<ExecContext>,
        env: &ProcEnv,
        pool: &ProcessPool,
        slot: usize,
        dropped_by_adaptation: bool,
    ) {
        let saved = self.saved_model_secs(ctx);
        self.slots[slot].status = SlotStatus::Dead;
        let Some(proc) = self.slots[slot].proc.take() else {
            return;
        };
        if let Some(parked) = proc.park(dropped_by_adaptation).await {
            let level = env.level + 1;
            let evicted = pool.release(&self.pf_digest, level, parked, saved, ctx.pool_scope());
            ChildProc::join_all(evicted).await;
        }
    }

    /// Removes one idle child: parked warm (with its whole subtree) when
    /// the process pool is on, shut down cold otherwise.
    async fn retire_slot(&mut self, ctx: &Arc<ExecContext>, env: &ProcEnv, slot: usize) {
        match Self::parking_pool(ctx) {
            Some(pool) => self.park_slot(ctx, env, &pool, slot, true).await,
            None => self.kill_slot(slot, true).await,
        }
    }

    /// Parks every idle child into the process pool at end of a successful
    /// run, keyed by plan-function digest and level. Called by the run
    /// driver after the final tree snapshot, before teardown.
    pub async fn park_children(&mut self, ctx: &Arc<ExecContext>, env: &ProcEnv) {
        let Some(pool) = Self::parking_pool(ctx) else {
            return;
        };
        // Absorb late installation acks: a child that never got work may
        // have installed after the last message this operator read.
        while let Some(msg) = self.results_rx.try_recv() {
            if let FromChild::Installed { slot, error: None } = msg {
                if self.slots[slot].status == SlotStatus::Installing {
                    self.slots[slot].status = SlotStatus::Idle;
                }
            }
        }
        for slot in 0..self.slots.len() {
            if self.slots[slot].status == SlotStatus::Idle {
                self.park_slot(ctx, env, &pool, slot, false).await;
            }
        }
    }

    /// Park-time `Reset`, applied recursively down a warm subtree: clears
    /// this operator's per-run adaptation state and forwards the reset to
    /// every live child so the whole tree parks clean.
    pub async fn reset_children(&mut self) {
        if let Some(adapt) = &mut self.adapt {
            adapt.reset();
        }
        for slot in &mut self.slots {
            if slot.status == SlotStatus::Dead {
                continue;
            }
            if let Some(proc) = slot.proc.as_mut() {
                proc.forward_reset().await;
            }
        }
    }

    /// Attach-time re-registration, applied recursively when a warm
    /// subtree joins a new run: the run has a fresh tree registry (and,
    /// under a mediator-global pool, possibly a different execution
    /// context), so every child re-registers under a freshly allocated id
    /// beneath its hosting process's new identity `env`, with the walk
    /// forwarded down the tree.
    pub async fn reattach_children(&mut self, ctx: &Arc<ExecContext>, env: &ProcEnv) {
        let saved = self.saved_model_secs(ctx);
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if slot.status == SlotStatus::Dead {
                continue;
            }
            let Some(proc) = slot.proc.as_mut() else {
                continue;
            };
            let results = self.results_tx.clone();
            if proc.attach(ctx, env, index, &self.pf_name, results).await {
                // This subtree process rode along with a warm acquire
                // above it — its skipped spawn cost counts as saved.
                ctx.pool_scope().note_saved(saved);
            } else {
                // Died while parked: the slot is gone for this run.
                slot.proc.take();
                slot.status = SlotStatus::Dead;
            }
        }
    }

    /// Ends every child and waits for its subtree to finish. The results
    /// mailbox closes first: a child blocked sending into it gives up
    /// instead of waiting for a reader that is no longer coming.
    pub async fn shutdown(&mut self) {
        self.results_rx.close();
        let procs = self
            .slots
            .iter_mut()
            .filter_map(|s| s.proc.take())
            .collect();
        ChildProc::join_all(procs).await;
    }
}

/// The undispatched parameter tuples of one `run`, organized per the
/// dispatch policy.
enum PendingParams {
    /// One shared queue: next parameter to the first finished child.
    Shared(VecDeque<ShipParam>),
    /// One queue per slot: parameter i pre-assigned to slot i mod fanout.
    PerSlot(Vec<VecDeque<ShipParam>>),
}

impl PendingParams {
    fn new(policy: DispatchPolicy, slot_count: usize, params: Vec<ShipParam>) -> Self {
        match policy {
            DispatchPolicy::FirstFinished => PendingParams::Shared(params.into()),
            DispatchPolicy::RoundRobin => {
                let n = slot_count.max(1);
                let mut queues = vec![VecDeque::new(); n];
                for (i, param) in params.into_iter().enumerate() {
                    queues[i % n].push_back(param);
                }
                PendingParams::PerSlot(queues)
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        match self {
            PendingParams::Shared(q) => q.len(),
            PendingParams::PerSlot(queues) => queues.iter().map(VecDeque::len).sum(),
        }
    }

    /// Takes up to `max` next parameters for `slot`, honoring the policy.
    /// An empty result means the slot has no work available.
    fn take_batch_for(&mut self, slot: usize, max: usize) -> Vec<ShipParam> {
        let queue = match self {
            PendingParams::Shared(q) => q,
            PendingParams::PerSlot(queues) => match queues.get_mut(slot) {
                Some(q) => q,
                None => return Vec::new(),
            },
        };
        let n = queue.len().min(max);
        queue.drain(..n).collect()
    }

    /// Whether `slot` has any parameter available, without taking it.
    fn take_peek(&self, slot: usize) -> Option<&ShipParam> {
        match self {
            PendingParams::Shared(q) => q.front(),
            PendingParams::PerSlot(queues) => queues.get(slot)?.front(),
        }
    }

    /// Puts a dead child's undelivered in-flight parameters back at the
    /// head of the queue (shared policy) or lets `migrate_slot` place them
    /// (they re-enter via the dead slot's queue first).
    fn requeue(&mut self, params: Vec<ShipParam>) {
        match self {
            PendingParams::Shared(q) => {
                for param in params.into_iter().rev() {
                    q.push_front(param);
                }
            }
            PendingParams::PerSlot(queues) => {
                // Temporarily park them on queue 0; `migrate_slot` is not
                // guaranteed to run for queue 0, so distribute directly.
                if let Some(first) = queues.first_mut() {
                    for param in params.into_iter().rev() {
                        first.push_front(param);
                    }
                }
            }
        }
    }

    /// Migrates a dead slot's per-slot backlog to the surviving slots,
    /// round-robin, so round-robin dispatch cannot strand parameters on a
    /// killed child. A no-op under the shared queue.
    fn migrate_slot(&mut self, dead: usize, survivors: &[usize]) {
        let PendingParams::PerSlot(queues) = self else {
            return;
        };
        if survivors.is_empty() {
            return; // the all-dead error path reports the loss
        }
        let Some(queue) = queues.get_mut(dead) else {
            return;
        };
        let stranded: Vec<ShipParam> = queue.drain(..).collect();
        for (i, param) in stranded.into_iter().enumerate() {
            let target = survivors[i % survivors.len()];
            if let Some(q) = queues.get_mut(target) {
                q.push_back(param);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            PendingParams::Shared(q) => q.clear(),
            PendingParams::PerSlot(queues) => queues.iter_mut().for_each(VecDeque::clear),
        }
    }
}
