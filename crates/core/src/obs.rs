//! Structured execution tracing in model time.
//!
//! The paper's adaptive controller (§V, Fig. 21) makes one greedy
//! add/drop/keep decision per monitoring cycle in every non-leaf query
//! process. Aggregate counters ([`crate::stats::TreeSnapshot`]) show the
//! end state of those decisions; this module records the *sequence* — a
//! bounded, per-run [`TraceLog`] of typed [`TraceEvent`]s covering run and
//! operator spans, monitoring-cycle measurements, child process lifecycle
//! (cold spawn, warm acquire, park, kill, join, requeue), per-call
//! provenance (cache hit/miss/single-flight wait, retry attempts, dedup
//! short-circuits), web-service calls, and mailbox blocked-send stalls.
//!
//! Design contract:
//!
//! * **Model time.** Event timestamps are wall seconds since the run epoch
//!   divided by the simulation time scale, i.e. the same unit as
//!   [`crate::ExecutionReport::model_seconds`]. At scale `0` (no
//!   modeled delays) raw wall seconds are recorded instead; timestamps are
//!   monotone either way because they are assigned under the log's mutex,
//!   in sequence order.
//! * **Lock-cheap.** With [`TracePolicy::enabled`]` == false` every hook
//!   site reduces to one `Option::is_some` on the run's context (see
//!   `ExecContext::tracer`). Enabled, each event takes one short mutex
//!   section on the shared log.
//! * **Bounded.** A log never grows past [`TracePolicy::capacity`] events;
//!   overflow increments a `dropped` counter instead of reallocating, and
//!   [`TraceLog::validate`] relaxes pairing checks when events were
//!   dropped.
//!
//! The JSONL exporter round-trips exactly ([`parse_jsonl`]): floats are
//! printed with Rust's shortest round-trip `Display`, so an adaptation
//! sequence reconstructed from an exported trace compares bit-for-bit
//! equal with [`crate::stats::TreeSnapshot::adapt_events`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::stats::AdaptEvent;

/// Bit set selecting which event groups a [`TraceLog`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(pub u32);

impl KindMask {
    /// Run and operator begin/end spans.
    pub const SPANS: KindMask = KindMask(1 << 0);
    /// Per-monitoring-cycle adaptation records.
    pub const CYCLES: KindMask = KindMask(1 << 1);
    /// Child process lifecycle (spawn/park/kill/join/requeue).
    pub const LIFECYCLE: KindMask = KindMask(1 << 2);
    /// Parameter dispatch and dedup short-circuits.
    pub const CALLS: KindMask = KindMask(1 << 3);
    /// Call-cache provenance and retry attempts.
    pub const CACHE: KindMask = KindMask(1 << 4);
    /// Web-service invocations at the transport.
    pub const WS: KindMask = KindMask(1 << 5);
    /// Mailbox blocked-send stalls.
    pub const STALLS: KindMask = KindMask(1 << 6);
    /// Resilience events: circuit-breaker transitions and rejections,
    /// hedged calls, parameter skips under partial failure mode.
    pub const RESILIENCE: KindMask = KindMask(1 << 7);
    /// Replica routing: per-call routing decisions, group membership
    /// changes (topology scenarios) and breaker-driven
    /// replica skips.
    pub const ROUTING: KindMask = KindMask(1 << 8);
    /// Every event group.
    pub const ALL: KindMask = KindMask(0x1ff);

    /// True when every bit of `other` is set in `self`.
    pub fn contains(self, other: KindMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of the two masks.
    pub fn union(self, other: KindMask) -> KindMask {
        KindMask(self.0 | other.0)
    }
}

/// Trace configuration installed on [`crate::Wsmed`] /
/// [`crate::RunConfig::trace`]. Default: disabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePolicy {
    /// Master switch. Off keeps every hook to one `Option` check.
    pub enabled: bool,
    /// Maximum events buffered per run; overflow is counted, not stored.
    pub capacity: usize,
    /// Which event groups to record.
    pub kinds: KindMask,
}

impl Default for TracePolicy {
    fn default() -> Self {
        TracePolicy {
            enabled: false,
            capacity: 65_536,
            kinds: KindMask::ALL,
        }
    }
}

impl TracePolicy {
    /// An enabled policy with default capacity recording all event kinds.
    pub fn enabled() -> Self {
        TracePolicy {
            enabled: true,
            ..TracePolicy::default()
        }
    }
}

/// What happened. Every variant is an instant record except the four
/// span markers (`RunStart`/`RunEnd`, `OpRunStart`/`OpRunEnd`), which
/// nest strictly per node (checked by [`validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// Coordinator began executing a plan.
    RunStart,
    /// Coordinator finished the run (children already joined or parked).
    RunEnd {
        /// Whether the run produced a result (vs. a query error).
        ok: bool,
        /// Result rows produced (0 on error).
        rows: u64,
    },
    /// A parallel apply operator started processing a parameter set.
    OpRunStart {
        /// Parameter tuples the operator was invoked with.
        params: u64,
    },
    /// The matching end of [`TraceEventKind::OpRunStart`].
    OpRunEnd {
        /// Whether the operator completed without error.
        ok: bool,
        /// Result tuples produced (0 on error).
        results: u64,
    },
    /// One monitoring cycle completed and the §V.A controller decided.
    Cycle {
        /// 1-based cycle number within this operator's run.
        cycle: u64,
        /// End-of-call messages that closed the cycle.
        eocs: u64,
        /// Result tuples received during the cycle.
        tuples: u64,
        /// Average model seconds per tuple this cycle (the measured `t`).
        per_tuple_secs: f64,
        /// Previous cycle's `t`, if any (`None` on the first cycle).
        prev: Option<f64>,
        /// The improvement threshold the comparison used.
        threshold: f64,
        /// Child processes alive when the decision was taken.
        alive: usize,
        /// Rendered verdict: `add:N`, `drop`, `stop`, or `converged`.
        verdict: String,
    },
    /// A child process came up under this node id.
    ChildSpawn {
        /// True for a warm pool acquire, false for a cold spawn.
        warm: bool,
    },
    /// The child was parked into the warm pool (end of life this run).
    ChildPark,
    /// The child was shut down deliberately.
    ChildKill {
        /// True when the adaptive controller dropped the stage.
        adapt: bool,
    },
    /// The child was joined during teardown without park or kill.
    ChildJoin,
    /// Undelivered params of a dead child were requeued to survivors.
    Requeue {
        /// Node id of the dead child.
        from_child: u64,
        /// Parameter tuples returned to the pending queue.
        params: u64,
    },
    /// A parameter batch was shipped to the child under this node id.
    CallDispatched {
        /// Parameter tuples in the shipped batch.
        params: u64,
    },
    /// Dedup pre-screen answered params from the PF memo without dispatch.
    ShortCircuit {
        /// Parameter tuples short-circuited.
        params: u64,
    },
    /// Call cache returned a stored value.
    CacheHit {
        /// Operation name.
        op: String,
        /// True when this process waited on another in-flight caller
        /// (single-flight) rather than finding the value ready.
        waited: bool,
    },
    /// Call cache had no value; this process becomes the leader.
    CacheMiss {
        /// Operation name.
        op: String,
    },
    /// Single-flight leader failed; this waiter retries the lookup.
    CacheRetry {
        /// Operation name.
        op: String,
    },
    /// A failed web-service call is being retried.
    RetryAttempt {
        /// Operation name.
        op: String,
        /// 1-based attempt number about to be issued.
        attempt: u32,
    },
    /// The transport invoked a web-service operation.
    WsCall {
        /// Operation name.
        op: String,
        /// Whether the call succeeded.
        ok: bool,
        /// Error class on failure (`fault`, `timeout`, `bad_request`,
        /// `unknown_op`, or `other`); `None` when the call succeeded or
        /// the class is unknown (old exports).
        err: Option<String>,
    },
    /// A bounded mailbox send blocked until the receiver drained.
    BlockedSend {
        /// Model seconds the sender stalled.
        waited_secs: f64,
    },
    /// A provider's circuit breaker tripped closed → open.
    BreakerOpen {
        /// Provider whose breaker opened.
        provider: String,
    },
    /// An open breaker's cooldown elapsed; probe calls are admitted.
    BreakerHalfOpen {
        /// Provider whose breaker went half-open.
        provider: String,
    },
    /// A half-open probe succeeded; the breaker closed.
    BreakerClose {
        /// Provider whose breaker closed.
        provider: String,
    },
    /// A call was rejected without reaching the wire (breaker open).
    BreakerReject {
        /// Provider whose breaker rejected the call.
        provider: String,
        /// Operation that was rejected.
        op: String,
    },
    /// A call was rejected by admission control (tenant over its
    /// in-flight quota) without reaching the wire.
    AdmissionReject {
        /// Tenant whose quota rejected the call.
        tenant: String,
        /// Operation that was rejected.
        op: String,
    },
    /// The hedge delay elapsed with the primary still in flight; a backup
    /// call was launched.
    HedgeLaunch {
        /// Operation name.
        op: String,
    },
    /// The primary failed and the hedged backup's success was taken.
    HedgeWin {
        /// Operation name.
        op: String,
    },
    /// Under [`crate::FailureMode::Partial`], a parameter tuple whose call
    /// exhausted retries/deadline/breaker was dropped from the result.
    ParamSkipped {
        /// OWF name whose call failed terminally.
        op: String,
    },
    /// Parameter tuples dropped parent-side by semi-join pruning
    /// ([`crate::plan::PruneSpec`]) before any dependent call was issued.
    ParamsPruned {
        /// Plan-function digest of the operator whose parameters were pruned.
        pf: String,
        /// Number of parameter tuples dropped in this batch.
        count: u64,
    },
    /// The client-side router picked a replica for one call attempt.
    RouteDecision {
        /// Logical provider (replica group) name.
        group: String,
        /// Replica the attempt was routed to.
        replica: String,
        /// Other routable replicas that were passed over.
        alternatives: u64,
    },
    /// A replica joined or left its group (topology scenario event or
    /// graceful drain).
    Membership {
        /// Logical provider (replica group) name.
        group: String,
        /// Replica whose membership changed.
        replica: String,
        /// True for a join/rejoin, false for a leave.
        joined: bool,
    },
    /// The router skipped a selected replica and failed over to another
    /// (the skipped replica's breaker rejected the attempt).
    ReplicaSkipped {
        /// Logical provider (replica group) name.
        group: String,
        /// Replica that was skipped.
        replica: String,
        /// Why it was skipped (currently always `breaker_open`).
        reason: String,
    },
}

impl TraceEventKind {
    /// The [`KindMask`] group this event belongs to.
    pub fn mask(&self) -> KindMask {
        use TraceEventKind::*;
        match self {
            RunStart | RunEnd { .. } | OpRunStart { .. } | OpRunEnd { .. } => KindMask::SPANS,
            Cycle { .. } => KindMask::CYCLES,
            ChildSpawn { .. } | ChildPark | ChildKill { .. } | ChildJoin | Requeue { .. } => {
                KindMask::LIFECYCLE
            }
            CallDispatched { .. } | ShortCircuit { .. } => KindMask::CALLS,
            CacheHit { .. }
            | CacheMiss { .. }
            | CacheRetry { .. }
            | RetryAttempt { .. }
            | ParamsPruned { .. } => KindMask::CACHE,
            WsCall { .. } => KindMask::WS,
            BlockedSend { .. } => KindMask::STALLS,
            BreakerOpen { .. }
            | BreakerHalfOpen { .. }
            | BreakerClose { .. }
            | BreakerReject { .. }
            | AdmissionReject { .. }
            | HedgeLaunch { .. }
            | HedgeWin { .. }
            | ParamSkipped { .. } => KindMask::RESILIENCE,
            RouteDecision { .. } | Membership { .. } | ReplicaSkipped { .. } => KindMask::ROUTING,
        }
    }

    /// Stable kind name used by the JSONL/Chrome exporters.
    pub fn name(&self) -> &'static str {
        use TraceEventKind::*;
        match self {
            RunStart => "run_start",
            RunEnd { .. } => "run_end",
            OpRunStart { .. } => "op_start",
            OpRunEnd { .. } => "op_end",
            Cycle { .. } => "cycle",
            ChildSpawn { .. } => "child_spawn",
            ChildPark => "child_park",
            ChildKill { .. } => "child_kill",
            ChildJoin => "child_join",
            Requeue { .. } => "requeue",
            CallDispatched { .. } => "call_dispatched",
            ShortCircuit { .. } => "short_circuit",
            CacheHit { .. } => "cache_hit",
            CacheMiss { .. } => "cache_miss",
            CacheRetry { .. } => "cache_retry",
            RetryAttempt { .. } => "retry_attempt",
            WsCall { .. } => "ws_call",
            BlockedSend { .. } => "blocked_send",
            BreakerOpen { .. } => "breaker_open",
            BreakerHalfOpen { .. } => "breaker_half_open",
            BreakerClose { .. } => "breaker_close",
            BreakerReject { .. } => "breaker_reject",
            AdmissionReject { .. } => "admission_reject",
            HedgeLaunch { .. } => "hedge_launch",
            HedgeWin { .. } => "hedge_win",
            ParamSkipped { .. } => "param_skipped",
            ParamsPruned { .. } => "params_pruned",
            RouteDecision { .. } => "route_decision",
            Membership { .. } => "membership",
            ReplicaSkipped { .. } => "replica_skipped",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// 1-based global sequence number (total order over the run).
    pub seq: u64,
    /// Model time of the event (see module docs for the scale-0 case).
    pub t: f64,
    /// Process-tree node the event is about (0 = coordinator).
    pub node: u64,
    /// Tree level of that node (0 = coordinator).
    pub level: usize,
    /// Content digest of the plan function the node runs ("" for the
    /// coordinator).
    pub pf: Arc<str>,
    /// What happened.
    pub kind: TraceEventKind,
}

#[derive(Debug, Default)]
struct LogInner {
    events: Vec<TraceEvent>,
    dropped: u64,
}

/// A bounded per-run buffer of [`TraceEvent`]s. Shared (`Arc`) between the
/// execution context, every child process, and the transport for the
/// duration of one run, then surfaced on [`crate::ExecutionReport::trace`].
#[derive(Debug)]
pub struct TraceLog {
    kinds: KindMask,
    capacity: usize,
    epoch: Instant,
    time_scale: f64,
    inner: Mutex<LogInner>,
}

impl TraceLog {
    /// Creates an empty log; `time_scale` is the simulation time scale
    /// model timestamps are measured against.
    pub fn new(policy: TracePolicy, time_scale: f64) -> Self {
        TraceLog {
            kinds: policy.kinds,
            capacity: policy.capacity,
            epoch: Instant::now(),
            time_scale,
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Converts a wall-clock duration to the log's model-time unit.
    pub fn model_secs(&self, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if self.time_scale > 0.0 {
            secs / self.time_scale
        } else {
            secs
        }
    }

    /// Records one event, assigning its sequence number and model
    /// timestamp under the log mutex so global sequence order equals
    /// timestamp order (per-node monotonicity follows for free).
    pub fn emit(&self, node: u64, level: usize, pf: &Arc<str>, kind: TraceEventKind) {
        if !self.kinds.contains(kind.mask()) {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.events.len() >= self.capacity {
            inner.dropped += 1;
            return;
        }
        let seq = inner.events.len() as u64 + 1;
        let t = self.model_secs(self.epoch.elapsed());
        inner.events.push(TraceEvent {
            seq,
            t,
            node,
            level,
            pf: Arc::clone(pf),
            kind,
        });
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the buffer hit capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Snapshot of the buffered events, in sequence order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.clone()
    }

    /// Runs the invariant checker over the buffered events. When the
    /// buffer overflowed, lifecycle/span pairing cannot be checked (the
    /// tail was dropped), so only ordering invariants are enforced.
    pub fn validate(&self) -> Vec<String> {
        let inner = self.inner.lock();
        if inner.dropped > 0 {
            validate_ordering(&inner.events)
        } else {
            validate(&inner.events)
        }
    }

    /// Exports the buffered events as JSON Lines (one object per line).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        for e in &inner.events {
            out.push_str(&event_to_jsonl(e));
            out.push('\n');
        }
        out
    }

    /// Exports the buffered events as Chrome `trace_event` JSON (load in
    /// `chrome://tracing` or Perfetto). Spans map to `B`/`E` phase pairs,
    /// everything else to thread-scoped instants; `ts` is model time in
    /// microseconds and `tid` is the tree node id.
    pub fn to_chrome_json(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in inner.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event_to_chrome(e));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest round-trip Display never uses exponents, so the
        // output parses back to the identical bits via `str::parse`.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Serializes one event as a single JSONL line (no trailing newline).
pub fn event_to_jsonl(e: &TraceEvent) -> String {
    use TraceEventKind::*;
    let mut s = format!(
        "{{\"seq\":{},\"t\":{},\"node\":{},\"level\":{},\"pf\":\"{}\",\"kind\":\"{}\"",
        e.seq,
        fmt_f64(e.t),
        e.node,
        e.level,
        json_escape(&e.pf),
        e.kind.name()
    );
    match &e.kind {
        RunStart | ChildPark | ChildJoin => {}
        RunEnd { ok, rows } => s.push_str(&format!(",\"ok\":{ok},\"rows\":{rows}")),
        OpRunStart { params } => s.push_str(&format!(",\"params\":{params}")),
        OpRunEnd { ok, results } => s.push_str(&format!(",\"ok\":{ok},\"results\":{results}")),
        Cycle {
            cycle,
            eocs,
            tuples,
            per_tuple_secs,
            prev,
            threshold,
            alive,
            verdict,
        } => {
            s.push_str(&format!(
                ",\"cycle\":{cycle},\"eocs\":{eocs},\"tuples\":{tuples},\"per_tuple_secs\":{}",
                fmt_f64(*per_tuple_secs)
            ));
            match prev {
                Some(p) => s.push_str(&format!(",\"prev\":{}", fmt_f64(*p))),
                None => s.push_str(",\"prev\":null"),
            }
            s.push_str(&format!(
                ",\"threshold\":{},\"alive\":{alive},\"verdict\":\"{}\"",
                fmt_f64(*threshold),
                json_escape(verdict)
            ));
        }
        ChildSpawn { warm } => s.push_str(&format!(",\"warm\":{warm}")),
        ChildKill { adapt } => s.push_str(&format!(",\"adapt\":{adapt}")),
        Requeue { from_child, params } => {
            s.push_str(&format!(",\"from_child\":{from_child},\"params\":{params}"))
        }
        CallDispatched { params } | ShortCircuit { params } => {
            s.push_str(&format!(",\"params\":{params}"))
        }
        CacheHit { op, waited } => s.push_str(&format!(
            ",\"op\":\"{}\",\"waited\":{waited}",
            json_escape(op)
        )),
        CacheMiss { op } | CacheRetry { op } => {
            s.push_str(&format!(",\"op\":\"{}\"", json_escape(op)))
        }
        RetryAttempt { op, attempt } => s.push_str(&format!(
            ",\"op\":\"{}\",\"attempt\":{attempt}",
            json_escape(op)
        )),
        WsCall { op, ok, err } => {
            s.push_str(&format!(",\"op\":\"{}\",\"ok\":{ok}", json_escape(op)));
            if let Some(err) = err {
                s.push_str(&format!(",\"err\":\"{}\"", json_escape(err)));
            }
        }
        BlockedSend { waited_secs } => {
            s.push_str(&format!(",\"waited_secs\":{}", fmt_f64(*waited_secs)))
        }
        BreakerOpen { provider } | BreakerHalfOpen { provider } | BreakerClose { provider } => {
            s.push_str(&format!(",\"provider\":\"{}\"", json_escape(provider)))
        }
        BreakerReject { provider, op } => s.push_str(&format!(
            ",\"provider\":\"{}\",\"op\":\"{}\"",
            json_escape(provider),
            json_escape(op)
        )),
        AdmissionReject { tenant, op } => s.push_str(&format!(
            ",\"tenant\":\"{}\",\"op\":\"{}\"",
            json_escape(tenant),
            json_escape(op)
        )),
        HedgeLaunch { op } | HedgeWin { op } | ParamSkipped { op } => {
            s.push_str(&format!(",\"op\":\"{}\"", json_escape(op)))
        }
        ParamsPruned { pf, count } => s.push_str(&format!(
            ",\"pruned_pf\":\"{}\",\"count\":{count}",
            json_escape(pf)
        )),
        RouteDecision {
            group,
            replica,
            alternatives,
        } => s.push_str(&format!(
            ",\"group\":\"{}\",\"replica\":\"{}\",\"alternatives\":{alternatives}",
            json_escape(group),
            json_escape(replica)
        )),
        Membership {
            group,
            replica,
            joined,
        } => s.push_str(&format!(
            ",\"group\":\"{}\",\"replica\":\"{}\",\"joined\":{joined}",
            json_escape(group),
            json_escape(replica)
        )),
        ReplicaSkipped {
            group,
            replica,
            reason,
        } => s.push_str(&format!(
            ",\"group\":\"{}\",\"replica\":\"{}\",\"reason\":\"{}\"",
            json_escape(group),
            json_escape(replica),
            json_escape(reason)
        )),
    }
    s.push('}');
    s
}

fn event_to_chrome(e: &TraceEvent) -> String {
    use TraceEventKind::*;
    let ts = e.t * 1e6;
    let (ph, name) = match &e.kind {
        RunStart => ("B", "run".to_owned()),
        RunEnd { .. } => ("E", "run".to_owned()),
        OpRunStart { .. } => ("B", "op".to_owned()),
        OpRunEnd { .. } => ("E", "op".to_owned()),
        Cycle { verdict, .. } => ("i", format!("cycle {verdict}")),
        other => ("i", other.name().to_owned()),
    };
    let mut s = format!(
        "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
        json_escape(&name),
        ph,
        fmt_f64(ts),
        e.node
    );
    if ph == "i" {
        s.push_str(",\"s\":\"t\"");
    }
    s.push_str(&format!(
        ",\"args\":{{\"seq\":{},\"level\":{},\"pf\":\"{}\"}}}}",
        e.seq,
        e.level,
        json_escape(&e.pf)
    ));
    s
}

#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parses one flat JSON object produced by [`event_to_jsonl`]. Only the
/// subset of JSON the exporter emits is supported: a single-level object
/// with string, number, boolean, and null values.
fn parse_flat_object(line: &str) -> Result<HashMap<String, Scalar>, String> {
    let mut map = HashMap::new();
    let bytes = line.trim();
    let inner = bytes
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not an object: {line}"))?;
    let mut chars = inner.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let key = parse_string(&mut chars)?;
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        let value = match chars.peek() {
            Some('"') => Scalar::Str(parse_string(&mut chars)?),
            Some(_) => {
                let mut tok = String::new();
                while matches!(chars.peek(), Some(c) if *c != ',' ) {
                    tok.push(chars.next().unwrap());
                }
                match tok.trim() {
                    "true" => Scalar::Bool(true),
                    "false" => Scalar::Bool(false),
                    "null" => Scalar::Null,
                    n => Scalar::Num(n.parse::<f64>().map_err(|_| format!("bad number {n:?}"))?),
                }
            }
            None => return Err(format!("missing value for key {key:?}")),
        };
        map.insert(key, value);
    }
    Ok(map)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_owned());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or("bad codepoint")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn get_num(map: &HashMap<String, Scalar>, key: &str) -> Result<f64, String> {
    match map.get(key) {
        Some(Scalar::Num(n)) => Ok(*n),
        other => Err(format!("field {key:?}: expected number, got {other:?}")),
    }
}

fn get_str(map: &HashMap<String, Scalar>, key: &str) -> Result<String, String> {
    match map.get(key) {
        Some(Scalar::Str(s)) => Ok(s.clone()),
        other => Err(format!("field {key:?}: expected string, got {other:?}")),
    }
}

fn get_bool(map: &HashMap<String, Scalar>, key: &str) -> Result<bool, String> {
    match map.get(key) {
        Some(Scalar::Bool(b)) => Ok(*b),
        other => Err(format!("field {key:?}: expected bool, got {other:?}")),
    }
}

/// Parses a JSONL trace export back into events. The inverse of
/// [`TraceLog::to_jsonl`]; floats round-trip exactly.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let map = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind_name = get_str(&map, "kind").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = parse_kind(&kind_name, &map).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        events.push(TraceEvent {
            seq: get_num(&map, "seq").map_err(|e| format!("line {}: {e}", lineno + 1))? as u64,
            t: get_num(&map, "t").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            node: get_num(&map, "node").map_err(|e| format!("line {}: {e}", lineno + 1))? as u64,
            level: get_num(&map, "level").map_err(|e| format!("line {}: {e}", lineno + 1))?
                as usize,
            pf: Arc::from(
                get_str(&map, "pf")
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?
                    .as_str(),
            ),
            kind,
        });
    }
    Ok(events)
}

fn parse_kind(name: &str, map: &HashMap<String, Scalar>) -> Result<TraceEventKind, String> {
    use TraceEventKind::*;
    Ok(match name {
        "run_start" => RunStart,
        "run_end" => RunEnd {
            ok: get_bool(map, "ok")?,
            rows: get_num(map, "rows")? as u64,
        },
        "op_start" => OpRunStart {
            params: get_num(map, "params")? as u64,
        },
        "op_end" => OpRunEnd {
            ok: get_bool(map, "ok")?,
            results: get_num(map, "results")? as u64,
        },
        "cycle" => Cycle {
            cycle: get_num(map, "cycle")? as u64,
            eocs: get_num(map, "eocs")? as u64,
            tuples: get_num(map, "tuples")? as u64,
            per_tuple_secs: get_num(map, "per_tuple_secs")?,
            prev: match map.get("prev") {
                Some(Scalar::Num(n)) => Some(*n),
                Some(Scalar::Null) | None => None,
                other => return Err(format!("field \"prev\": bad value {other:?}")),
            },
            threshold: get_num(map, "threshold")?,
            alive: get_num(map, "alive")? as usize,
            verdict: get_str(map, "verdict")?,
        },
        "child_spawn" => ChildSpawn {
            warm: get_bool(map, "warm")?,
        },
        "child_park" => ChildPark,
        "child_kill" => ChildKill {
            adapt: get_bool(map, "adapt")?,
        },
        "child_join" => ChildJoin,
        "requeue" => Requeue {
            from_child: get_num(map, "from_child")? as u64,
            params: get_num(map, "params")? as u64,
        },
        "call_dispatched" => CallDispatched {
            params: get_num(map, "params")? as u64,
        },
        "short_circuit" => ShortCircuit {
            params: get_num(map, "params")? as u64,
        },
        "cache_hit" => CacheHit {
            op: get_str(map, "op")?,
            waited: get_bool(map, "waited")?,
        },
        "cache_miss" => CacheMiss {
            op: get_str(map, "op")?,
        },
        "cache_retry" => CacheRetry {
            op: get_str(map, "op")?,
        },
        "retry_attempt" => RetryAttempt {
            op: get_str(map, "op")?,
            attempt: get_num(map, "attempt")? as u32,
        },
        "ws_call" => WsCall {
            op: get_str(map, "op")?,
            ok: get_bool(map, "ok")?,
            // Optional: absent in exports predating the error class.
            err: match map.get("err") {
                Some(Scalar::Str(s)) => Some(s.clone()),
                Some(Scalar::Null) | None => None,
                other => return Err(format!("field \"err\": bad value {other:?}")),
            },
        },
        "blocked_send" => BlockedSend {
            waited_secs: get_num(map, "waited_secs")?,
        },
        "breaker_open" => BreakerOpen {
            provider: get_str(map, "provider")?,
        },
        "breaker_half_open" => BreakerHalfOpen {
            provider: get_str(map, "provider")?,
        },
        "breaker_close" => BreakerClose {
            provider: get_str(map, "provider")?,
        },
        "breaker_reject" => BreakerReject {
            provider: get_str(map, "provider")?,
            op: get_str(map, "op")?,
        },
        "admission_reject" => AdmissionReject {
            tenant: get_str(map, "tenant")?,
            op: get_str(map, "op")?,
        },
        "hedge_launch" => HedgeLaunch {
            op: get_str(map, "op")?,
        },
        "hedge_win" => HedgeWin {
            op: get_str(map, "op")?,
        },
        "param_skipped" => ParamSkipped {
            op: get_str(map, "op")?,
        },
        "params_pruned" => ParamsPruned {
            pf: get_str(map, "pruned_pf")?,
            count: get_num(map, "count")? as u64,
        },
        "route_decision" => RouteDecision {
            group: get_str(map, "group")?,
            replica: get_str(map, "replica")?,
            alternatives: get_num(map, "alternatives")? as u64,
        },
        "membership" => Membership {
            group: get_str(map, "group")?,
            replica: get_str(map, "replica")?,
            joined: get_bool(map, "joined")?,
        },
        "replica_skipped" => ReplicaSkipped {
            group: get_str(map, "group")?,
            replica: get_str(map, "replica")?,
            reason: get_str(map, "reason")?,
        },
        other => return Err(format!("unknown kind {other:?}")),
    })
}

/// Parses and validates a JSONL export in one step; returns parse errors
/// as a single violation. Used by `wsmed-bench check-trace` and the CI smoke.
pub fn validate_jsonl(text: &str) -> Vec<String> {
    match parse_jsonl(text) {
        Ok(events) => validate(&events),
        Err(e) => vec![format!("parse error: {e}")],
    }
}

/// Ordering-only invariants: sequence numbers strictly increase and model
/// timestamps are monotone (globally, hence per node).
fn validate_ordering(events: &[TraceEvent]) -> Vec<String> {
    let mut errs = Vec::new();
    let mut last_seq = 0u64;
    let mut last_t = f64::NEG_INFINITY;
    for e in events {
        if e.seq <= last_seq {
            errs.push(format!(
                "seq not strictly increasing: {} after {}",
                e.seq, last_seq
            ));
        }
        last_seq = e.seq;
        if e.t < last_t {
            errs.push(format!(
                "seq {}: timestamp {} before {}",
                e.seq, e.t, last_t
            ));
        }
        last_t = e.t;
    }
    errs
}

/// The trace invariant checker. Returns one message per violation (empty
/// means the stream is well-formed):
///
/// * sequence numbers strictly increase; timestamps are monotone per node;
/// * `run`/`op` spans strictly nest per node and all close;
/// * every child node alternates spawn → exactly one terminal
///   (park/kill/join); no terminal without a spawn, no double spawn
///   without an intervening terminal, no spawn left open.
pub fn validate(events: &[TraceEvent]) -> Vec<String> {
    use TraceEventKind::*;
    let mut errs = validate_ordering(events);
    let mut last_t: HashMap<u64, f64> = HashMap::new();
    let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
    // Child lifecycle: node -> currently alive? (absent = never spawned)
    let mut life: HashMap<u64, bool> = HashMap::new();
    for e in events {
        let t_prev = last_t.entry(e.node).or_insert(f64::NEG_INFINITY);
        if e.t < *t_prev {
            errs.push(format!(
                "seq {}: node {} timestamp {} before {}",
                e.seq, e.node, e.t, t_prev
            ));
        }
        *t_prev = e.t;
        match &e.kind {
            RunStart => stacks.entry(e.node).or_default().push("run"),
            OpRunStart { .. } => stacks.entry(e.node).or_default().push("op"),
            RunEnd { .. } => match stacks.entry(e.node).or_default().pop() {
                Some("run") => {}
                top => errs.push(format!(
                    "seq {}: node {} run_end closes {:?}",
                    e.seq, e.node, top
                )),
            },
            OpRunEnd { .. } => match stacks.entry(e.node).or_default().pop() {
                Some("op") => {}
                top => errs.push(format!(
                    "seq {}: node {} op_end closes {:?}",
                    e.seq, e.node, top
                )),
            },
            ChildSpawn { .. } => {
                let was_alive = life.insert(e.node, true);
                if was_alive == Some(true) {
                    errs.push(format!(
                        "seq {}: node {} spawned while already alive",
                        e.seq, e.node
                    ));
                }
            }
            ChildPark | ChildKill { .. } | ChildJoin => match life.insert(e.node, false) {
                Some(true) => {}
                Some(false) => errs.push(format!(
                    "seq {}: node {} second terminal event",
                    e.seq, e.node
                )),
                None => errs.push(format!(
                    "seq {}: node {} terminal without spawn",
                    e.seq, e.node
                )),
            },
            _ => {}
        }
    }
    for (node, stack) in &stacks {
        if !stack.is_empty() {
            errs.push(format!("node {node}: unclosed spans {stack:?}"));
        }
    }
    let mut leaked: Vec<u64> = life
        .iter()
        .filter(|(_, alive)| **alive)
        .map(|(n, _)| *n)
        .collect();
    leaked.sort_unstable();
    for node in leaked {
        errs.push(format!("node {node}: spawn without terminal event"));
    }
    errs
}

/// Rebuilds the §V.A adaptation decision sequence from a trace: one
/// [`AdaptEvent`] per [`TraceEventKind::Cycle`], in trace order. Grouped
/// per process this compares exactly (bit-for-bit after a JSONL
/// round-trip) with [`crate::stats::TreeSnapshot::adapt_events`].
pub fn cycle_decisions(events: &[TraceEvent]) -> Vec<AdaptEvent> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::Cycle {
                per_tuple_secs,
                alive,
                verdict,
                ..
            } => Some(AdaptEvent {
                process: e.node,
                level: e.level,
                per_tuple_secs: *per_tuple_secs,
                alive: *alive,
                decision: verdict.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// Number of live children at a tree level when the run ended, replayed
/// from lifecycle events (spawns minus terminals) up to the `run_end`
/// marker — the report snapshot is taken there, before teardown parks and
/// joins, so this matches `TreeSnapshot::levels[level].alive` of the run
/// that produced the trace.
pub fn final_alive_at_level(events: &[TraceEvent], level: usize) -> usize {
    let mut alive = 0usize;
    for e in events {
        if matches!(e.kind, TraceEventKind::RunEnd { .. }) {
            break;
        }
        if e.level != level {
            continue;
        }
        match e.kind {
            TraceEventKind::ChildSpawn { .. } => alive += 1,
            TraceEventKind::ChildPark
            | TraceEventKind::ChildKill { .. }
            | TraceEventKind::ChildJoin => alive = alive.saturating_sub(1),
            _ => {}
        }
    }
    alive
}

/// Renders the timing-independent projection of an adaptive run used by
/// the deterministic-replay suite: the coordinator's per-cycle
/// `alive`/`eocs`/verdict sequence plus the final level-1 fanout. Wall-
/// derived fields (per-tuple times, tuple counts) and the schedules of
/// levels ≥ 1 are deliberately excluded — first-finished dispatch makes
/// them scheduling-dependent even under a fixed seed.
pub fn replay_transcript(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    let mut cycles = 0u64;
    for e in events {
        if e.node != 0 {
            continue;
        }
        if let TraceEventKind::Cycle {
            eocs,
            alive,
            verdict,
            ..
        } = &e.kind
        {
            cycles += 1;
            out.push_str(&format!(
                "cycle {cycles}: alive={alive} eocs={eocs} verdict={verdict}\n"
            ));
        }
    }
    out.push_str(&format!("coordinator_cycles={cycles}\n"));
    out.push_str(&format!(
        "level1_final_alive={}\n",
        final_alive_at_level(events, 1)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> Arc<str> {
        Arc::from("digest-a")
    }

    fn log() -> TraceLog {
        TraceLog::new(TracePolicy::enabled(), 0.0)
    }

    #[test]
    fn emit_assigns_monotone_seq_and_time() {
        let log = log();
        log.emit(0, 0, &pf(), TraceEventKind::RunStart);
        log.emit(1, 1, &pf(), TraceEventKind::ChildSpawn { warm: false });
        log.emit(0, 0, &pf(), TraceEventKind::RunEnd { ok: true, rows: 3 });
        let events = log.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let policy = TracePolicy {
            enabled: true,
            capacity: 2,
            kinds: KindMask::ALL,
        };
        let log = TraceLog::new(policy, 0.0);
        for _ in 0..5 {
            log.emit(0, 0, &pf(), TraceEventKind::RunStart);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // Overflowed logs still pass the (ordering-only) validator.
        assert!(log.validate().is_empty());
    }

    #[test]
    fn kind_mask_filters_events() {
        let policy = TracePolicy {
            enabled: true,
            capacity: 100,
            kinds: KindMask::SPANS,
        };
        let log = TraceLog::new(policy, 0.0);
        log.emit(0, 0, &pf(), TraceEventKind::RunStart);
        log.emit(1, 1, &pf(), TraceEventKind::ChildSpawn { warm: true });
        log.emit(0, 0, &pf(), TraceEventKind::RunEnd { ok: true, rows: 0 });
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind.mask() == KindMask::SPANS));
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        use TraceEventKind::*;
        let kinds = vec![
            RunStart,
            RunEnd { ok: false, rows: 7 },
            OpRunStart { params: 51 },
            OpRunEnd {
                ok: true,
                results: 102,
            },
            Cycle {
                cycle: 3,
                eocs: 4,
                tuples: 17,
                per_tuple_secs: 0.1234567890123,
                prev: None,
                threshold: 0.25,
                alive: 4,
                verdict: "add:2".to_owned(),
            },
            Cycle {
                cycle: 4,
                eocs: 4,
                tuples: 9,
                per_tuple_secs: 1.0 / 3.0,
                prev: Some(0.1234567890123),
                threshold: 0.25,
                alive: 4,
                verdict: "stop".to_owned(),
            },
            ChildSpawn { warm: true },
            ChildPark,
            ChildKill { adapt: true },
            ChildJoin,
            Requeue {
                from_child: 9,
                params: 5,
            },
            CallDispatched { params: 8 },
            ShortCircuit { params: 2 },
            CacheHit {
                op: "get\"zip\"".to_owned(),
                waited: true,
            },
            CacheMiss {
                op: "GetInfoByState".to_owned(),
            },
            CacheRetry {
                op: "op\\with\nweird".to_owned(),
            },
            RetryAttempt {
                op: "GetPlacesInside".to_owned(),
                attempt: 2,
            },
            WsCall {
                op: "GetAllStates".to_owned(),
                ok: true,
                err: None,
            },
            WsCall {
                op: "GetPlacesInside".to_owned(),
                ok: false,
                err: Some("timeout".to_owned()),
            },
            BlockedSend {
                waited_secs: 0.0078125,
            },
            BreakerOpen {
                provider: "www.uszip.com".to_owned(),
            },
            BreakerHalfOpen {
                provider: "www.uszip.com".to_owned(),
            },
            BreakerClose {
                provider: "www.uszip.com".to_owned(),
            },
            BreakerReject {
                provider: "www.uszip.com".to_owned(),
                op: "GetInfoByState".to_owned(),
            },
            AdmissionReject {
                tenant: "default".to_owned(),
                op: "GetInfoByState".to_owned(),
            },
            HedgeLaunch {
                op: "GetPlaceList".to_owned(),
            },
            HedgeWin {
                op: "GetPlaceList".to_owned(),
            },
            ParamSkipped {
                op: "GetPlacesInside".to_owned(),
            },
            ParamsPruned {
                pf: "a1b2c3d4e5f60718".to_owned(),
                count: 5,
            },
            RouteDecision {
                group: "codebump.com/zip".to_owned(),
                replica: "codebump.com/zip#1".to_owned(),
                alternatives: 2,
            },
            Membership {
                group: "codebump.com/zip".to_owned(),
                replica: "codebump.com/zip#2".to_owned(),
                joined: false,
            },
            ReplicaSkipped {
                group: "codebump.com/zip".to_owned(),
                replica: "codebump.com/zip".to_owned(),
                reason: "breaker_open".to_owned(),
            },
        ];
        let events: Vec<TraceEvent> = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i as u64 + 1,
                t: i as f64 * 0.1 + 1.0 / 7.0,
                node: i as u64 % 3,
                level: i % 2,
                pf: pf(),
                kind,
            })
            .collect();
        let jsonl: String = events.iter().map(|e| event_to_jsonl(e) + "\n").collect();
        let parsed = parse_jsonl(&jsonl).expect("round trip parses");
        assert_eq!(parsed, events);
    }

    #[test]
    fn validate_accepts_well_formed_stream() {
        use TraceEventKind::*;
        let mk = |seq: u64, node: u64, level: usize, kind: TraceEventKind| TraceEvent {
            seq,
            t: seq as f64,
            node,
            level,
            pf: pf(),
            kind,
        };
        let events = vec![
            mk(1, 0, 0, RunStart),
            mk(2, 1, 1, ChildSpawn { warm: false }),
            mk(3, 0, 0, OpRunStart { params: 2 }),
            mk(4, 1, 1, CallDispatched { params: 2 }),
            mk(
                5,
                0,
                0,
                OpRunEnd {
                    ok: true,
                    results: 4,
                },
            ),
            mk(6, 1, 1, ChildPark),
            // Re-acquire of the same node later in the run is legal.
            mk(7, 1, 1, ChildSpawn { warm: true }),
            mk(8, 1, 1, ChildJoin),
            mk(9, 0, 0, RunEnd { ok: true, rows: 4 }),
        ];
        assert_eq!(validate(&events), Vec::<String>::new());
    }

    #[test]
    fn validate_flags_violations() {
        use TraceEventKind::*;
        let mk = |seq: u64, node: u64, kind: TraceEventKind| TraceEvent {
            seq,
            t: seq as f64,
            node,
            level: usize::from(node != 0),
            pf: pf(),
            kind,
        };
        // Double terminal + terminal without spawn + unclosed span.
        let events = vec![
            mk(1, 0, RunStart),
            mk(2, 1, ChildSpawn { warm: false }),
            mk(3, 1, ChildPark),
            mk(4, 1, ChildJoin),
            mk(5, 2, ChildKill { adapt: false }),
        ];
        let errs = validate(&events);
        assert!(
            errs.iter().any(|e| e.contains("second terminal")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("terminal without spawn")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("unclosed spans")),
            "{errs:?}"
        );

        // Leaked spawn.
        let events = vec![mk(1, 1, ChildSpawn { warm: false })];
        let errs = validate(&events);
        assert!(
            errs.iter().any(|e| e.contains("spawn without terminal")),
            "{errs:?}"
        );

        // Mis-nested spans.
        let events = vec![
            mk(1, 0, RunStart),
            mk(
                2,
                0,
                OpRunEnd {
                    ok: true,
                    results: 0,
                },
            ),
        ];
        let errs = validate(&events);
        assert!(errs.iter().any(|e| e.contains("op_end closes")), "{errs:?}");

        // Non-monotone node time.
        let events = vec![
            TraceEvent {
                seq: 1,
                t: 5.0,
                node: 0,
                level: 0,
                pf: pf(),
                kind: RunStart,
            },
            TraceEvent {
                seq: 2,
                t: 4.0,
                node: 0,
                level: 0,
                pf: pf(),
                kind: RunEnd { ok: true, rows: 0 },
            },
        ];
        let errs = validate(&events);
        assert!(errs.iter().any(|e| e.contains("before")), "{errs:?}");
    }

    #[test]
    fn replay_helpers_reconstruct_decisions_and_fanout() {
        use TraceEventKind::*;
        let mk = |seq: u64, node: u64, level: usize, kind: TraceEventKind| TraceEvent {
            seq,
            t: seq as f64,
            node,
            level,
            pf: pf(),
            kind,
        };
        let cycle = |cycle: u64, alive: usize, verdict: &str, prev: Option<f64>| Cycle {
            cycle,
            eocs: alive as u64,
            tuples: 10,
            per_tuple_secs: 0.5,
            prev,
            threshold: 0.25,
            alive,
            verdict: verdict.to_owned(),
        };
        let events = vec![
            mk(1, 0, 0, RunStart),
            mk(2, 1, 1, ChildSpawn { warm: false }),
            mk(3, 2, 1, ChildSpawn { warm: false }),
            mk(4, 0, 0, cycle(1, 2, "add:2", None)),
            mk(5, 3, 1, ChildSpawn { warm: false }),
            mk(6, 4, 1, ChildSpawn { warm: false }),
            mk(7, 0, 0, cycle(2, 4, "stop", Some(0.5))),
            mk(8, 4, 1, ChildKill { adapt: true }),
            // run_end is emitted at snapshot time; teardown joins trail it.
            mk(9, 0, 0, RunEnd { ok: true, rows: 4 }),
            mk(10, 1, 1, ChildJoin),
            mk(11, 2, 1, ChildJoin),
            mk(12, 3, 1, ChildJoin),
        ];
        assert_eq!(validate(&events), Vec::<String>::new());
        let decisions = cycle_decisions(&events);
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0].decision, "add:2");
        assert_eq!(decisions[0].alive, 2);
        assert_eq!(decisions[1].decision, "stop");
        // 4 spawns, 1 adaptive kill before run_end -> fanout 3 at the
        // snapshot; the trailing teardown joins are not counted.
        assert_eq!(final_alive_at_level(&events, 1), 3);
        let transcript = replay_transcript(&events);
        assert!(transcript.contains("cycle 1: alive=2 eocs=2 verdict=add:2"));
        assert!(transcript.contains("cycle 2: alive=4 eocs=4 verdict=stop"));
        assert!(transcript.contains("coordinator_cycles=2"));
        assert!(transcript.ends_with("level1_final_alive=3\n"));
    }

    #[test]
    fn chrome_export_emits_span_pairs_and_instants() {
        let log = log();
        log.emit(0, 0, &pf(), TraceEventKind::RunStart);
        log.emit(1, 1, &pf(), TraceEventKind::ChildSpawn { warm: false });
        log.emit(1, 1, &pf(), TraceEventKind::ChildJoin);
        log.emit(0, 0, &pf(), TraceEventKind::RunEnd { ok: true, rows: 1 });
        let json = log.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn ws_call_without_err_field_still_parses() {
        // Exports written before the error class carried only op/ok.
        let line = "{\"seq\":1,\"t\":0.5,\"node\":0,\"level\":0,\"pf\":\"\",\
                    \"kind\":\"ws_call\",\"op\":\"GetAllStates\",\"ok\":true}";
        let events = parse_jsonl(line).expect("old ws_call line parses");
        assert_eq!(
            events[0].kind,
            TraceEventKind::WsCall {
                op: "GetAllStates".to_owned(),
                ok: true,
                err: None,
            }
        );
    }

    #[test]
    fn validate_jsonl_reports_parse_errors() {
        let errs = validate_jsonl("{\"seq\":1,not json");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("parse error"));
        assert!(validate_jsonl("").is_empty());
    }
}
