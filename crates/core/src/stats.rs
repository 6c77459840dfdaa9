//! Execution reports: results plus the process tree and cost counters.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use wsmed_store::Tuple;

use crate::cache::CacheStats;
use crate::exec::pool::PoolStats;
use crate::resilience::ResilienceStats;
use crate::router::RouterStats;

/// The value under `key` in a list kept sorted by key, inserted in order
/// (as `V::default()`) when absent: how the per-run reports keep their
/// per-provider and per-replica breakdowns.
pub(crate) fn sorted_entry<K: Ord, V: Default>(list: &mut Vec<(K, V)>, key: K) -> &mut V {
    let at = match list.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(at) => at,
        Err(at) => {
            list.insert(at, (key, V::default()));
            at
        }
    };
    &mut list[at].1
}

/// Live registry of query processes, maintained by the runtime so the
/// process tree (paper Fig. 4, 14, 15, 18–20) can be observed at any time.
#[derive(Debug, Default)]
pub struct TreeRegistry {
    inner: Mutex<TreeInner>,
}

#[derive(Debug, Default)]
struct TreeInner {
    nodes: HashMap<u64, NodeInfo>,
    adds: u64,
    drops: u64,
    peak_alive: usize,
    events: Vec<AdaptEvent>,
}

/// One `AFF_APPLYP` monitoring-cycle decision, recorded in execution order
/// — the event-level view of the paper's Fig. 18–20 lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptEvent {
    /// The adapting (parent) query process.
    pub process: u64,
    /// Its tree level (0 = coordinator).
    pub level: usize,
    /// Average seconds per incoming result tuple in the finished cycle.
    pub per_tuple_secs: f64,
    /// Children alive when the decision was made.
    pub alive: usize,
    /// What the §V.A rule decided (`add:N`, `drop`, `stop`, `converged`).
    pub decision: String,
}

#[derive(Debug, Clone)]
struct NodeInfo {
    parent: Option<u64>,
    level: usize,
    pf_name: String,
    alive: bool,
    calls: u64,
    msgs_down: u64,
    msgs_up: u64,
    cache_short_circuits: u64,
    blocked_send: Duration,
}

impl TreeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(TreeRegistry::default())
    }

    /// Registers a new query process. The coordinator is id 0, level 0,
    /// parent `None`.
    pub(crate) fn register(&self, id: u64, parent: Option<u64>, level: usize, pf_name: &str) {
        let mut inner = self.inner.lock();
        inner.nodes.insert(
            id,
            NodeInfo {
                parent,
                level,
                pf_name: pf_name.to_owned(),
                alive: true,
                calls: 0,
                msgs_down: 0,
                msgs_up: 0,
                cache_short_circuits: 0,
                blocked_send: Duration::ZERO,
            },
        );
        if parent.is_some() {
            inner.adds += 1;
        }
        let alive = inner.nodes.values().filter(|n| n.alive).count();
        inner.peak_alive = inner.peak_alive.max(alive);
    }

    /// Counts `n` plan-function calls dispatched to a process (for the
    /// load-balance view: first-finished dispatch shifts work toward fast
    /// children, static partitioning spreads it evenly). With batching one
    /// message frame can carry several calls.
    pub(crate) fn note_calls(&self, id: u64, n: u64) {
        if let Some(node) = self.inner.lock().nodes.get_mut(&id) {
            node.calls += n;
        }
    }

    /// Counts one message frame sent from a parent down to process `id`
    /// (plan installation or a parameter batch).
    pub(crate) fn note_msg_down(&self, id: u64) {
        if let Some(node) = self.inner.lock().nodes.get_mut(&id) {
            node.msgs_down += 1;
        }
    }

    /// Counts one message frame sent from process `id` up to its parent
    /// (installation ack, result batch, or end-of-call).
    pub(crate) fn note_msg_up(&self, id: u64) {
        if let Some(node) = self.inner.lock().nodes.get_mut(&id) {
            node.msgs_up += 1;
        }
    }

    /// Counts `n` parameter tuples process `id` answered from the call
    /// cache's plan-function memo instead of shipping them to a child
    /// (dedup-aware dispatch).
    pub(crate) fn note_short_circuits(&self, id: u64, n: u64) {
        if let Some(node) = self.inner.lock().nodes.get_mut(&id) {
            node.cache_short_circuits += n;
        }
    }

    /// Accumulates wall time an endpoint of the `id` mailbox spent blocked
    /// in `send` because the bounded channel was full — backpressure made
    /// visible. Both directions are attributed to the child endpoint,
    /// matching `msgs_down`/`msgs_up`.
    pub(crate) fn note_blocked_send(&self, id: u64, waited: Duration) {
        if let Some(node) = self.inner.lock().nodes.get_mut(&id) {
            node.blocked_send += waited;
        }
    }

    /// Records an adaptation decision (called by `AFF_APPLYP` at each
    /// monitoring-cycle boundary).
    pub(crate) fn record_adapt_event(&self, event: AdaptEvent) {
        let mut inner = self.inner.lock();
        // Bound the log; queries make thousands of cycles at most.
        if inner.events.len() < 100_000 {
            inner.events.push(event);
        }
    }

    /// Marks a process (and implicitly its subtree, whose nodes deregister
    /// themselves) as terminated.
    pub(crate) fn deregister(&self, id: u64, dropped_by_adaptation: bool) {
        let mut inner = self.inner.lock();
        if let Some(node) = inner.nodes.get_mut(&id) {
            node.alive = false;
        }
        if dropped_by_adaptation {
            inner.drops += 1;
        }
    }

    /// Takes a snapshot of the current tree.
    pub fn snapshot(&self) -> TreeSnapshot {
        let inner = self.inner.lock();
        let mut levels: HashMap<usize, (usize, usize)> = HashMap::new(); // level -> (alive, total)
        let mut children_of: HashMap<u64, usize> = HashMap::new();
        for node in inner.nodes.values() {
            let entry = levels.entry(node.level).or_default();
            entry.1 += 1;
            if node.alive {
                entry.0 += 1;
                if let Some(parent) = node.parent {
                    *children_of.entry(parent).or_default() += 1;
                }
            }
        }
        let max_level = levels.keys().copied().max().unwrap_or(0);
        let mut per_level = Vec::with_capacity(max_level + 1);
        for level in 0..=max_level {
            let (alive, total) = levels.get(&level).copied().unwrap_or((0, 0));
            // Average fanout of alive level-`level` nodes.
            let parents: Vec<u64> = inner
                .nodes
                .iter()
                .filter(|(_, n)| n.level == level && n.alive)
                .map(|(&id, _)| id)
                .collect();
            let avg_fanout = if parents.is_empty() {
                0.0
            } else {
                parents
                    .iter()
                    .map(|id| children_of.get(id).copied().unwrap_or(0))
                    .sum::<usize>() as f64
                    / parents.len() as f64
            };
            let pf_name = inner
                .nodes
                .values()
                .find(|n| n.level == level)
                .map(|n| n.pf_name.clone())
                .unwrap_or_default();
            per_level.push(LevelStats {
                level,
                alive,
                ever: total,
                avg_fanout,
                pf_name,
            });
        }
        let mut nodes: Vec<TreeNode> = inner
            .nodes
            .iter()
            .map(|(&id, n)| TreeNode {
                id,
                parent: n.parent,
                level: n.level,
                pf_name: n.pf_name.clone(),
                alive: n.alive,
                calls: n.calls,
                msgs_down: n.msgs_down,
                msgs_up: n.msgs_up,
                cache_short_circuits: n.cache_short_circuits,
                blocked_send: n.blocked_send,
            })
            .collect();
        nodes.sort_by_key(|n| (n.level, n.id));
        TreeSnapshot {
            levels: per_level,
            nodes,
            adds: inner.adds,
            drops: inner.drops,
            peak_alive: inner.peak_alive,
            adapt_events: inner.events.clone(),
        }
    }
}

/// One node of the process tree, as captured in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeNode {
    /// Process id (coordinator = 0).
    pub id: u64,
    /// Parent process id, if any.
    pub parent: Option<u64>,
    /// Tree level.
    pub level: usize,
    /// Plan function the node executes.
    pub pf_name: String,
    /// Whether the process is still alive.
    pub alive: bool,
    /// Plan-function calls dispatched to this process.
    pub calls: u64,
    /// Message frames this process received from its parent (plan
    /// installation and parameter batches).
    pub msgs_down: u64,
    /// Message frames this process sent to its parent (installation ack,
    /// result batches, end-of-call notices).
    pub msgs_up: u64,
    /// Parameter tuples this process answered from the call cache's
    /// plan-function memo instead of shipping them down to a child
    /// (dedup-aware dispatch; joins `msgs_down`/`msgs_up` in the
    /// load-balance view).
    pub cache_short_circuits: u64,
    /// Wall time spent blocked in `send` on this node's mailboxes because
    /// a bounded channel was full (both directions, attributed to the
    /// child endpoint like `msgs_down`/`msgs_up`). Zero means the mailbox
    /// capacity never throttled this edge.
    pub blocked_send: Duration,
}

/// Statistics for one level of the process tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelStats {
    /// Tree level (0 = coordinator).
    pub level: usize,
    /// Processes currently alive on this level.
    pub alive: usize,
    /// Processes ever created on this level.
    pub ever: usize,
    /// Average number of children per alive process on this level (the
    /// paper reports these as "average fanouts" in Fig. 21).
    pub avg_fanout: f64,
    /// Plan function executed at this level (`coordinator` for level 0).
    pub pf_name: String,
}

/// A point-in-time view of the process tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeSnapshot {
    /// Per-level statistics, level 0 first.
    pub levels: Vec<LevelStats>,
    /// All processes (alive and dead), sorted by level then id.
    pub nodes: Vec<TreeNode>,
    /// Child processes started (including adaptive add stages).
    pub adds: u64,
    /// Child subtrees dropped by adaptive drop stages.
    pub drops: u64,
    /// Peak number of simultaneously alive processes.
    pub peak_alive: usize,
    /// `AFF_APPLYP` monitoring decisions, in the order they were made.
    pub adapt_events: Vec<AdaptEvent>,
}

impl TreeSnapshot {
    /// Total processes alive.
    pub fn total_alive(&self) -> usize {
        self.levels.iter().map(|l| l.alive).sum()
    }

    /// Total parent↔child message frames exchanged, in both directions.
    /// Each frame counts once, attributed to the child endpoint.
    pub fn total_messages(&self) -> u64 {
        self.nodes.iter().map(|n| n.msgs_down + n.msgs_up).sum()
    }

    /// Total wall time any process spent blocked sending into a full
    /// bounded mailbox, across all edges of the tree.
    pub fn total_blocked_send(&self) -> Duration {
        self.nodes.iter().map(|n| n.blocked_send).sum()
    }

    /// Average fanout at a level, if the level exists.
    pub fn fanout_at(&self, level: usize) -> Option<f64> {
        self.levels.get(level).map(|l| l.avg_fanout)
    }

    /// Renders the tree as indented ASCII, one line per process — the
    /// textual Fig. 4:
    ///
    /// ```text
    /// q0 coordinator
    ///   q1 PF1
    ///     q3 PF2
    ///     q4 PF2
    ///   q2 PF1 (dropped)
    /// ```
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        self.render_children(None, 0, &mut out);
        out
    }

    fn render_children(&self, parent: Option<u64>, depth: usize, out: &mut String) {
        for node in self.nodes.iter().filter(|n| n.parent == parent) {
            out.push_str(&"  ".repeat(depth));
            let calls = if node.calls > 0 {
                format!(" [{} calls]", node.calls)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "q{} {}{}{}\n",
                node.id,
                node.pf_name,
                calls,
                if node.alive { "" } else { " (dropped)" }
            ));
            self.render_children(Some(node.id), depth + 1, out);
        }
    }

    /// Renders a compact description like `1-5-20 (fanouts 5.0/4.0)`.
    pub fn describe(&self) -> String {
        let counts: Vec<String> = self.levels.iter().map(|l| l.alive.to_string()).collect();
        let fanouts: Vec<String> = self
            .levels
            .iter()
            .take(self.levels.len().saturating_sub(1))
            .map(|l| format!("{:.1}", l.avg_fanout))
            .collect();
        format!("{} (fanouts {})", counts.join("-"), fanouts.join("/"))
    }
}

/// The outcome of executing a query plan.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Result tuples, in arrival order.
    pub rows: Vec<Tuple>,
    /// Output column names.
    pub column_names: Vec<String>,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// `wall / time_scale` — the estimated model-seconds the execution
    /// represents (`None` when the time scale is 0).
    pub model_seconds: Option<f64>,
    /// Web service calls made during execution (across all providers).
    pub ws_calls: u64,
    /// Request plus response payload bytes.
    pub ws_bytes: u64,
    /// Bytes shipped between query processes: plan functions, parameter
    /// tuples and result tuples (the client-side messaging volume the
    /// parameter-projection optimization reduces).
    pub shipped_bytes: u64,
    /// Parent↔child message frames exchanged between query processes
    /// during execution (plan installs, parameter batches, result batches,
    /// end-of-call notices). Batching exists to shrink this number.
    pub messages: u64,
    /// Per-run call-cache counters: hits, misses, single-flight dedup
    /// waits, evictions and dedup-aware dispatch short-circuits. All zero
    /// when caching is disabled; `hits + misses + dedup_waits` is the
    /// call-lookup total, so the hit rate is computable per run.
    pub cache: CacheStats,
    /// Per-run process-pool counters: warm acquires, cold spawns, modeled
    /// startup seconds saved and evictions. All zero when no pool is
    /// installed (an installed-but-disabled pool still counts cold
    /// spawns); `cold_spawns` is exactly the number of times the modeled
    /// `process_startup` cost was charged this run.
    pub pool: PoolStats,
    /// Per-run resilience counters: retries, deadline timeouts, hedges,
    /// circuit-breaker transitions/rejections and skipped parameters
    /// (partial failure mode). All zero — [`ResilienceStats::is_quiet`] —
    /// under the default non-resilient policy.
    pub resilience: ResilienceStats,
    /// Per-run client-side routing counters: route decisions, breaker
    /// failovers, hedge reroutes and membership events, plus per-(group,
    /// replica) decision counts. All zero — [`RouterStats::is_quiet`] —
    /// when no router is installed (the default).
    pub router: RouterStats,
    /// Parameter tuples dropped parent-side by semi-join pruning
    /// ([`crate::plan::PruneSpec`]) — dependent calls that were never
    /// issued because the parameter was learned to evaluate empty. Zero
    /// under the default heuristic policy (no prune annotations).
    pub pruned_params: u64,
    /// Time from run start until the coordinator received its first result
    /// tuple from a child process — the streaming latency of the parallel
    /// plan. `None` for central plans (no child processes).
    pub first_row_wall: Option<Duration>,
    /// Final process tree.
    pub tree: TreeSnapshot,
    /// The run's structured trace, when a [`crate::obs::TracePolicy`] with
    /// `enabled == true` was installed; `None` otherwise (tracing off is
    /// the default and costs one `Option` check per hook site).
    pub trace: Option<std::sync::Arc<crate::obs::TraceLog>>,
}

impl ExecutionReport {
    /// Result cardinality.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_snapshot_levels() {
        let reg = TreeRegistry::new();
        reg.register(0, None, 0, "coordinator");
        reg.register(1, Some(0), 1, "PF1");
        reg.register(2, Some(0), 1, "PF1");
        reg.register(3, Some(1), 2, "PF2");
        let snap = reg.snapshot();
        assert_eq!(snap.levels.len(), 3);
        assert_eq!(snap.levels[0].alive, 1);
        assert_eq!(snap.levels[1].alive, 2);
        assert_eq!(snap.levels[2].alive, 1);
        assert_eq!(snap.fanout_at(0), Some(2.0));
        assert_eq!(snap.fanout_at(1), Some(0.5));
        assert_eq!(snap.adds, 3);
        assert_eq!(snap.total_alive(), 4);
        assert_eq!(snap.peak_alive, 4);
    }

    #[test]
    fn deregister_updates_alive_and_drops() {
        let reg = TreeRegistry::new();
        reg.register(0, None, 0, "coordinator");
        reg.register(1, Some(0), 1, "PF1");
        reg.register(2, Some(0), 1, "PF1");
        reg.deregister(2, true);
        let snap = reg.snapshot();
        assert_eq!(snap.levels[1].alive, 1);
        assert_eq!(snap.levels[1].ever, 2);
        assert_eq!(snap.drops, 1);
        assert_eq!(snap.fanout_at(0), Some(1.0));
    }

    #[test]
    fn describe_is_compact() {
        let reg = TreeRegistry::new();
        reg.register(0, None, 0, "coordinator");
        for i in 1..=2 {
            reg.register(i, Some(0), 1, "PF1");
        }
        for i in 3..=8 {
            reg.register(i, Some(1 + (i % 2)), 2, "PF2");
        }
        let s = reg.snapshot().describe();
        assert_eq!(s, "1-2-6 (fanouts 2.0/3.0)");
    }

    #[test]
    fn render_ascii_shows_hierarchy_and_drops() {
        let reg = TreeRegistry::new();
        reg.register(0, None, 0, "coordinator");
        reg.register(1, Some(0), 1, "PF1");
        reg.register(2, Some(0), 1, "PF1");
        reg.register(3, Some(1), 2, "PF2");
        reg.deregister(2, true);
        let text = reg.snapshot().render_ascii();
        let expect = "q0 coordinator\n  q1 PF1\n    q3 PF2\n  q2 PF1 (dropped)\n";
        assert_eq!(text, expect);
    }

    #[test]
    fn message_counters_accumulate_per_node() {
        let reg = TreeRegistry::new();
        reg.register(0, None, 0, "coordinator");
        reg.register(1, Some(0), 1, "PF1");
        reg.register(2, Some(0), 1, "PF1");
        reg.note_msg_down(1);
        reg.note_msg_down(1);
        reg.note_msg_up(1);
        reg.note_msg_up(2);
        reg.note_calls(1, 3);
        let snap = reg.snapshot();
        let q1 = snap.nodes.iter().find(|n| n.id == 1).unwrap();
        assert_eq!((q1.msgs_down, q1.msgs_up, q1.calls), (2, 1, 3));
        assert_eq!(snap.total_messages(), 4);
    }

    #[test]
    fn blocked_send_accumulates_per_node() {
        let reg = TreeRegistry::new();
        reg.register(0, None, 0, "coordinator");
        reg.register(1, Some(0), 1, "PF1");
        reg.note_blocked_send(1, Duration::from_millis(3));
        reg.note_blocked_send(1, Duration::from_millis(4));
        reg.note_blocked_send(99, Duration::from_millis(9)); // unknown id: ignored
        let snap = reg.snapshot();
        let q1 = snap.nodes.iter().find(|n| n.id == 1).unwrap();
        assert_eq!(q1.blocked_send, Duration::from_millis(7));
        assert_eq!(snap.total_blocked_send(), Duration::from_millis(7));
    }

    #[test]
    fn empty_registry_snapshot() {
        let reg = TreeRegistry::new();
        let snap = reg.snapshot();
        assert_eq!(snap.total_alive(), 0);
        assert_eq!(snap.adds, 0);
    }
}
