//! The query-process runtime: tasks on a fixed set of worker threads, and
//! the timers they wait on.
//!
//! A query process is a task — a future polled by whichever worker pops it
//! from the one run queue — instead of an OS thread of its own, so a
//! message between two processes is a queue push, not a context switch.
//! `W` = [`std::thread::available_parallelism`] workers start on the first
//! [`spawn`]; a plan that spawns nothing (a central plan) starts none. The
//! coordinator q0 runs on the caller's thread in [`block_on`].
//!
//! No wait on the call path holds a thread. One that outlasts a poll —
//! paced model time ([`pay`]), a mock's delay — is a timer ([`sleep`]) the
//! task awaits. A worker fires due timers between polls and, with nothing
//! to run, waits for the earliest one; a thread in [`block_on`] keeps the
//! timers of the future it drives and parks until the earliest. So a paced
//! tree runs on the `W` workers and the caller's thread, and a central
//! plan, paced or not, on the caller's thread alone.
//!
//! Three thread-locals belong to the process, not the thread: the tree
//! node trace events are attributed to ([`crate::obs`]), the skip sink of
//! partial failure mode ([`crate::resilience`]) and the pacing debt
//! ([`wsmed_netsim::swap_pacing_debt`]). Each task carries its own and
//! swaps them in and out around every poll.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use wsmed_netsim::SimConfig;

use crate::{obs, resilience};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

// Task states. A wake-up moves IDLE → QUEUED (and pushes the task) or
// RUNNING → WOKEN (the poller queues it again when the poll returns).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const WOKEN: u8 = 3;
const DONE: u8 = 4;

thread_local! {
    /// Whether the calling thread is one of the `W` workers.
    static WORKER: Cell<bool> = const { Cell::new(false) };
    /// The timers of the futures a [`block_on`] on this thread drives.
    static LOCAL_TIMERS: RefCell<Timers> = const { RefCell::new(Timers(Vec::new())) };
}

/// A process's share of the thread-locals, held by its task between polls.
struct ProcLocals {
    node: (u64, usize, Arc<str>),
    skips: Option<Vec<(String, u64)>>,
    debt: f64,
}

impl ProcLocals {
    /// Exchanges these with the calling thread's; twice restores both.
    fn swap(&mut self) {
        obs::swap_current_proc(&mut self.node);
        resilience::swap_skip_sink(&mut self.skips);
        wsmed_netsim::swap_pacing_debt(&mut self.debt);
    }
}

struct Body {
    future: Option<BoxFuture>,
    locals: ProcLocals,
}

struct Task {
    state: AtomicU8,
    /// Locked only by the one poller the state machine admits.
    body: Mutex<Body>,
    /// Woken when the task is done.
    joiner: Mutex<Option<Waker>>,
}

impl Task {
    /// Polls the task once on this worker, with its locals swapped in.
    fn run(self: Arc<Self>) {
        self.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        let mut body = self.body.lock().unwrap_or_else(|e| e.into_inner());
        let Body { future, locals } = &mut *body;
        locals.swap();
        // A panicking process ends like a dead thread did: its mailboxes
        // close, its parent sees it hang up, and the worker lives on.
        let done = catch_unwind(AssertUnwindSafe(|| match future.as_mut() {
            Some(f) => f.as_mut().poll(&mut cx).is_ready(),
            None => true,
        }))
        .unwrap_or(true);
        if done {
            let finished = future.take();
            let _ = catch_unwind(AssertUnwindSafe(move || drop(finished)));
        }
        locals.swap();
        drop(body);
        if done {
            self.state.store(DONE, Ordering::Release);
            let joiner = self.joiner.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(waker) = joiner {
                waker.wake();
            }
        } else if self
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Woken while it ran: back of the queue.
            self.state.store(QUEUED, Ordering::Release);
            runtime().schedule(self);
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut state = self.state.load(Ordering::Acquire);
        loop {
            let next = match state {
                IDLE => QUEUED,
                RUNNING => WOKEN,
                _ => return,
            };
            match self
                .state
                .compare_exchange(state, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    if next == QUEUED {
                        runtime().schedule(Arc::clone(self));
                    }
                    return;
                }
                Err(actual) => state = actual,
            }
        }
    }
}

/// Completes when its task has finished. Dropping it detaches the task.
pub(crate) struct TaskHandle(Arc<Task>);

impl Future for TaskHandle {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let task = &self.0;
        if task.state.load(Ordering::Acquire) == DONE {
            return Poll::Ready(());
        }
        *task.joiner.lock().unwrap_or_else(|e| e.into_inner()) = Some(cx.waker().clone());
        // Ordered after the registration by the joiner lock: a task that
        // finished before it is seen here, one that finishes after wakes us.
        if task.state.load(Ordering::Acquire) == DONE {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("state", &self.0.state.load(Ordering::Relaxed))
            .finish()
    }
}

/// Timers: whom to wake, and when. A handful are set at a time, so a scan
/// finds the earliest: one per task that awaits a [`Sleep`], plus any whose
/// `Sleep` was dropped before its deadline (a process ended while it
/// waited). Such a stale entry stays until its deadline, then wakes its
/// task once for nothing — a finished task ignores it — and is gone.
struct Timers(Vec<(Instant, Waker)>);

impl Timers {
    fn add(&mut self, deadline: Instant, waker: Waker) {
        self.0.push((deadline, waker));
    }

    /// The earliest timer: its index and deadline.
    fn earliest(&self) -> Option<(usize, Instant)> {
        (self.0.iter().enumerate())
            .map(|(i, (deadline, _))| (i, *deadline))
            .min_by_key(|&(_, deadline)| deadline)
    }

    /// The earliest deadline, if any timer is set.
    fn next(&self) -> Option<Instant> {
        self.earliest().map(|(_, deadline)| deadline)
    }

    /// Removes the earliest timer if it is due at `now`, returning whom to
    /// wake. The caller wakes it once it holds no lock.
    fn pop_due(&mut self, now: Instant) -> Option<Waker> {
        let (i, deadline) = self.earliest()?;
        (deadline <= now).then(|| self.0.swap_remove(i).1)
    }
}

/// The run queue, the workers' timers and the accounting of who waits.
struct Sched {
    queue: VecDeque<Arc<Task>>,
    timers: Timers,
    /// Workers waiting on `work` that no wake-up was handed to yet.
    waiting: usize,
    /// Wake-ups handed to waiting workers and not yet taken.
    wakeups: usize,
}

struct Runtime {
    sched: Mutex<Sched>,
    work: Condvar,
}

static RUNTIME: OnceLock<Runtime> = OnceLock::new();

/// The runtime, starting its `W` workers on first use.
fn runtime() -> &'static Runtime {
    RUNTIME.get_or_init(|| {
        let workers = thread::available_parallelism().map_or(1, usize::from);
        for _ in 0..workers {
            // The workers block in `runtime()` until this initializer has
            // returned.
            thread::Builder::new()
                .name("wsmed-worker".to_owned())
                .spawn(worker_main)
                .expect("the runtime can start a thread");
        }
        Runtime {
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                timers: Timers(Vec::new()),
                waiting: 0,
                wakeups: 0,
            }),
            work: Condvar::new(),
        }
    })
}

fn worker_main() {
    let rt = runtime();
    WORKER.with(|worker| worker.set(true));
    let mut sched = rt.lock();
    loop {
        // Due timers first, so a busy worker fires them between polls.
        // With none set (an unpaced run) the clock is not read.
        if !sched.timers.0.is_empty() {
            if let Some(waker) = sched.timers.pop_due(Instant::now()) {
                drop(sched);
                waker.wake();
                sched = rt.lock();
                continue;
            }
        }
        if let Some(task) = sched.queue.pop_front() {
            drop(sched);
            task.run();
            sched = rt.lock();
            continue;
        }
        // Nothing to run: wait for a push, or for the earliest timer.
        sched.waiting += 1;
        sched = match sched.timers.next() {
            None => rt
                .work
                .wait_while(sched, |s| s.wakeups == 0)
                .unwrap_or_else(|e| e.into_inner()),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                rt.work
                    .wait_timeout_while(sched, left, |s| s.wakeups == 0)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        };
        if sched.wakeups > 0 {
            sched.wakeups -= 1;
        } else {
            // Timed out: still counted as waiting.
            sched.waiting -= 1;
        }
    }
}

impl Runtime {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        // Every critical section is a few counter updates and a queue or
        // timer operation; none can panic halfway.
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `task`, waking a waiting worker if there is one.
    fn schedule(&self, task: Arc<Task>) {
        let mut sched = self.lock();
        sched.queue.push_back(task);
        if sched.waiting > 0 {
            sched.waiting -= 1;
            sched.wakeups += 1;
            drop(sched);
            self.work.notify_one();
        }
    }
}

/// Runs `fut` as a task on the worker set.
pub(crate) fn spawn(fut: impl Future<Output = ()> + Send + 'static) -> TaskHandle {
    let task = Arc::new(Task {
        state: AtomicU8::new(QUEUED),
        body: Mutex::new(Body {
            future: Some(Box::pin(fut)),
            locals: ProcLocals {
                node: (0, 0, Arc::from("")),
                skips: None,
                debt: 0.0,
            },
        }),
        joiner: Mutex::new(None),
    });
    runtime().schedule(Arc::clone(&task));
    TaskHandle(task)
}

/// Whether the calling thread is a worker, where [`block_on`] must not be
/// called: it would hold the worker until its future completes.
pub(crate) fn on_worker() -> bool {
    WORKER.with(Cell::get)
}

/// A timer that completes `wait` from now.
pub(crate) fn sleep(wait: Duration) -> Sleep {
    let now = Instant::now();
    Sleep {
        // What `Instant` cannot hold is as good as never.
        deadline: now
            .checked_add(wait)
            .unwrap_or_else(|| now + Duration::from_secs(1 << 32)),
        set: false,
    }
}

/// A timer: completes at its deadline ([`sleep`]). Polled on a worker it
/// sets a timer of the runtime's; polled in [`block_on`], one of that
/// thread's. It wakes the waker it was first left pending with.
#[derive(Debug)]
pub(crate) struct Sleep {
    deadline: Instant,
    set: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.set {
            self.set = true;
            let waker = cx.waker().clone();
            if on_worker() {
                runtime().lock().timers.add(self.deadline, waker);
            } else {
                LOCAL_TIMERS.with(|timers| timers.borrow_mut().add(self.deadline, waker));
            }
        }
        Poll::Pending
    }
}

/// Pays `model_secs` of simulated time on `sim`'s pacer, charged to the
/// calling task's pacing debt (DESIGN.md, "Pacing"): once a quantum is
/// owed, the task waits the whole debt out on a timer, and the overwait is
/// credit. At `time_scale == 0` it is ready at its first poll, which
/// compares one number.
pub(crate) async fn pay(sim: &SimConfig, model_secs: f64) {
    if sim.time_scale > 0.0 {
        if let Some(asked) = sim.owe_model(model_secs) {
            let started = Instant::now();
            sleep(asked).await;
            wsmed_netsim::settle_pacing(asked, started.elapsed());
        }
    }
}

/// Wakes a thread parked in [`block_on`].
struct Unparker {
    thread: Thread,
    woken: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.woken.swap(true, Ordering::AcqRel) {
            self.thread.unpark();
        }
    }
}

/// Runs `fut` to completion on the calling thread, parking it while the
/// future waits. Not on a worker ([`on_worker`]).
pub(crate) fn block_on<F: Future>(fut: F) -> F::Output {
    drive(fut, None).expect("waits without a deadline")
}

/// [`block_on`] that gives up, returning `None`, once `fut` has waited
/// `patience` without being woken.
pub(crate) fn block_on_watched<F: Future>(fut: F, patience: Duration) -> Option<F::Output> {
    drive(fut, Some(patience))
}

/// Fires this thread's due timers and returns the earliest left.
fn fire_local_timers() -> Option<Instant> {
    loop {
        let due = LOCAL_TIMERS.with(|timers| {
            let mut timers = timers.borrow_mut();
            let next = timers.next()?;
            Some(timers.pop_due(Instant::now()).ok_or(next))
        });
        match due? {
            Ok(waker) => waker.wake(),
            Err(next) => return Some(next),
        }
    }
}

fn drive<F: Future>(fut: F, patience: Option<Duration>) -> Option<F::Output> {
    debug_assert!(!on_worker(), "block_on would hold a worker");
    let unparker = Arc::new(Unparker {
        thread: thread::current(),
        woken: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return Some(out);
        }
        let give_up = patience.map(|p| Instant::now() + p);
        while !unparker.woken.swap(false, Ordering::AcqRel) {
            let timer = fire_local_timers();
            if unparker.woken.load(Ordering::Acquire) {
                continue;
            }
            let until = match (timer, give_up) {
                (Some(timer), Some(give_up)) => Some(timer.min(give_up)),
                (timer, give_up) => timer.or(give_up),
            };
            match until {
                None => thread::park(),
                Some(until) => {
                    let now = Instant::now();
                    if give_up.is_some_and(|give_up| now >= give_up) {
                        return None;
                    }
                    thread::park_timeout(until.saturating_duration_since(now));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::mailbox::bounded;

    /// Yields once: wakes its own task and lets the others run.
    async fn yield_now() {
        let mut yielded = false;
        std::future::poll_fn(|cx| {
            if yielded {
                return Poll::Ready(());
            }
            yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        })
        .await;
    }

    #[test]
    fn timers_overlap_on_the_workers_alone() {
        // Eight tasks meet: each checks in, then waits on 1 ms timers until
        // all eight have. On W < 8 workers this finishes only because a
        // task waiting on a timer frees its worker, and no thread but the
        // workers ever polls them.
        let workers = thread::available_parallelism().map_or(1, usize::from);
        let arrived = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let pollers = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let tasks: Vec<TaskHandle> = (0..8)
            .map(|_| {
                let (arrived, pollers) = (Arc::clone(&arrived), Arc::clone(&pollers));
                spawn(async move {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    while arrived.load(Ordering::SeqCst) < 8 {
                        pollers.lock().unwrap().insert(thread::current().id());
                        sleep(Duration::from_millis(1)).await;
                    }
                })
            })
            .collect();
        block_on(async {
            for task in tasks {
                task.await;
            }
        });
        let pollers = pollers.lock().unwrap().len();
        assert!(
            pollers <= workers,
            "{pollers} threads polled on {workers} workers"
        );
    }

    #[test]
    fn block_on_keeps_the_timers_of_its_own_future() {
        // A paced wait in the coordinator is a timer of the caller's thread:
        // it fires without a worker.
        let t0 = Instant::now();
        block_on(async {
            sleep(Duration::from_millis(20)).await;
            sleep(Duration::ZERO).await;
        });
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    fn debt() -> f64 {
        let mut debt = 0.0;
        wsmed_netsim::swap_pacing_debt(&mut debt);
        let mine = debt;
        wsmed_netsim::swap_pacing_debt(&mut debt);
        mine
    }

    #[test]
    fn each_task_keeps_its_own_thread_locals() {
        // Two tasks set their own tree node, skip sink and pacing debt, then
        // take turns through a pair of mailboxes and yields, so their polls
        // interleave on the workers; after every await each must read back
        // exactly its own.
        let (to_b, from_a) = bounded::<()>(1);
        let (to_a, from_b) = bounded::<()>(1);
        let party = |id: u64,
                     send: crate::exec::mailbox::Sender<()>,
                     recv: crate::exec::mailbox::Receiver<()>| {
            spawn(async move {
                obs::set_current_proc(id, id as usize, Arc::from(format!("pf{id}").as_str()));
                resilience::install_skip_sink();
                let mut mine = id as f64 * 1e-6;
                wsmed_netsim::swap_pacing_debt(&mut mine);
                let check = |round: u64| {
                    let (node, level, pf) = obs::current_proc();
                    assert_eq!((node, level), (id, id as usize), "round {round}");
                    assert_eq!(&*pf, format!("pf{id}"));
                    assert_eq!(resilience::skip_sink_len(), round, "round {round}");
                    assert_eq!(debt(), id as f64 * 1e-6, "round {round}");
                };
                for round in 0..200 {
                    check(round);
                    resilience::note_skip_local("op");
                    send.send(()).await.expect("partner alive");
                    yield_now().await;
                    recv.recv().await.expect("partner alive");
                    check(round + 1);
                }
            })
        };
        let a = party(1, to_b, from_b);
        let b = party(2, to_a, from_a);
        block_on(async {
            a.await;
            b.await;
        });
        // The coordinator's own thread-locals were never touched.
        assert_eq!(obs::current_proc().0, 0);
        assert_eq!(resilience::skip_sink_len(), 0);
    }

    #[test]
    fn a_panicking_task_ends_and_the_workers_live_on() {
        let (tx, rx) = bounded::<u32>(1);
        let doomed = spawn(async move {
            let _tx = tx;
            panic!("injected task panic");
        });
        block_on(async {
            doomed.await;
            assert_eq!(rx.recv().await, None, "its mailbox closed");
        });
        let survivor = spawn(async {});
        block_on(survivor);
    }

    #[test]
    fn block_on_watched_gives_up_on_a_future_never_woken() {
        let never = std::future::pending::<()>();
        assert!(block_on_watched(never, Duration::from_millis(20)).is_none());
        assert_eq!(
            block_on_watched(async { 7 }, Duration::from_millis(20)),
            Some(7)
        );
    }
}
