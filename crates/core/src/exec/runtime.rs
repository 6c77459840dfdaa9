//! The query-process runtime: tasks on a fixed set of worker threads.
//!
//! A query process is a task — a future polled by whichever worker pops it
//! from the one run queue — instead of an OS thread of its own, so a
//! message between two processes is a queue push, not a context switch.
//! `W` = [`std::thread::available_parallelism`] workers start on the first
//! [`spawn`]; a plan that spawns nothing (a central plan) starts none. The
//! coordinator q0 runs on the caller's thread in [`block_on`].
//!
//! The web-service call path stays synchronous. A wait that can outlast a
//! poll (a paced sleep, a single-flight latch, a hedge, a mock's delay)
//! runs inside [`blocking`], which gives the worker's place to a spare
//! thread until it returns, so the queue keeps moving and paced calls
//! still overlap. Spares are kept for the next blocking section; after
//! one ends, the first runner to find more than `W` runners steps back.
//!
//! Three thread-locals belong to the process, not the thread: the tree
//! node trace events are attributed to ([`crate::obs`]), the skip sink of
//! partial failure mode ([`crate::resilience`]) and the pacing debt
//! ([`wsmed_netsim::swap_pacing_debt`]). Each task carries its own and
//! swaps them in and out around every poll.

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

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
    /// Whether the calling thread is a runtime thread entitled to run
    /// tasks: not the coordinator, a test or a hedge, and not inside a
    /// blocking section.
    static RUNNER: Cell<bool> = const { Cell::new(false) };
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

/// The run queue and the accounting of who may run it.
struct Sched {
    queue: VecDeque<Arc<Task>>,
    /// Threads entitled to run tasks: polling or waiting for work. A
    /// thread in a blocking section is not one.
    runners: usize,
    /// Runners waiting on `work` that no wake-up was handed to yet.
    waiting: usize,
    /// Wake-ups handed to waiting runners and not yet taken.
    wakeups: usize,
    /// Spare threads waiting on `spare` that no promotion was handed to.
    spares: usize,
    /// Promotions handed to spares and not yet taken.
    promotions: usize,
}

struct Runtime {
    /// `W`: how many threads run tasks at once.
    workers: usize,
    sched: Mutex<Sched>,
    work: Condvar,
    spare: Condvar,
}

static RUNTIME: OnceLock<Runtime> = OnceLock::new();

/// The runtime, starting its `W` workers on first use.
fn runtime() -> &'static Runtime {
    RUNTIME.get_or_init(|| {
        let workers = thread::available_parallelism().map_or(1, usize::from);
        for _ in 0..workers {
            // The workers block in `runtime()` until this initializer has
            // returned.
            start_thread();
        }
        Runtime {
            workers,
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                runners: workers,
                waiting: 0,
                wakeups: 0,
                spares: 0,
                promotions: 0,
            }),
            work: Condvar::new(),
            spare: Condvar::new(),
        }
    })
}

fn start_thread() {
    thread::Builder::new()
        .name("wsmed-worker".to_owned())
        .spawn(worker_main)
        .expect("the runtime can start a thread");
}

fn worker_main() {
    let rt = runtime();
    RUNNER.with(|runner| runner.set(true));
    wsmed_netsim::set_blocking_hook(|sleep| blocking(sleep));
    let mut sched = rt.lock();
    loop {
        if sched.runners > rt.workers {
            // A blocking section ended while a spare ran in its place.
            sched.runners -= 1;
            sched.spares += 1;
            sched = rt
                .spare
                .wait_while(sched, |s| s.promotions == 0)
                .unwrap_or_else(|e| e.into_inner());
            sched.promotions -= 1;
            continue;
        }
        if let Some(task) = sched.queue.pop_front() {
            drop(sched);
            task.run();
            sched = rt.lock();
            continue;
        }
        sched.waiting += 1;
        sched = rt
            .work
            .wait_while(sched, |s| s.wakeups == 0)
            .unwrap_or_else(|e| e.into_inner());
        sched.wakeups -= 1;
    }
}

impl Runtime {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        // Every critical section is a few counter updates and a queue
        // operation; none can panic halfway.
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn schedule(&self, task: Arc<Task>) {
        let mut sched = self.lock();
        sched.queue.push_back(task);
        self.call_runner(sched);
    }

    /// Makes sure a thread will come for the queue: wakes a waiting
    /// runner, or, while fewer than `W` threads may run, promotes a spare
    /// (starting one if none is left).
    fn call_runner(&self, mut sched: MutexGuard<'_, Sched>) {
        if sched.waiting > 0 {
            sched.waiting -= 1;
            sched.wakeups += 1;
            drop(sched);
            self.work.notify_one();
        } else if sched.runners < self.workers {
            sched.runners += 1;
            if sched.spares > 0 {
                sched.spares -= 1;
                sched.promotions += 1;
                drop(sched);
                self.spare.notify_one();
            } else {
                drop(sched);
                start_thread();
            }
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

/// Runs `f`, which may wait longer than a poll should, without holding up
/// the run queue: on a worker, a spare thread takes the worker's place
/// until `f` returns. Anywhere else `f` just runs.
pub fn blocking<R>(f: impl FnOnce() -> R) -> R {
    if !RUNNER.with(Cell::get) {
        return f();
    }
    /// Takes the thread's place back, also when `f` unwinds.
    struct Resume;
    impl Drop for Resume {
        fn drop(&mut self) {
            runtime().lock().runners += 1;
            RUNNER.with(|runner| runner.set(true));
        }
    }
    let rt = runtime();
    RUNNER.with(|runner| runner.set(false));
    let mut sched = rt.lock();
    sched.runners -= 1;
    if sched.queue.is_empty() {
        drop(sched);
    } else {
        rt.call_runner(sched);
    }
    let _resume = Resume;
    f()
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
/// future waits.
pub(crate) fn block_on<F: Future>(fut: F) -> F::Output {
    drive(fut, None).expect("waits without a deadline")
}

/// [`block_on`] that gives up, returning `None`, once `fut` has waited
/// `patience` without being woken.
pub(crate) fn block_on_watched<F: Future>(fut: F, patience: Duration) -> Option<F::Output> {
    drive(fut, Some(patience))
}

fn drive<F: Future>(fut: F, patience: Option<Duration>) -> Option<F::Output> {
    if RUNNER.with(Cell::get) {
        return blocking(|| drive(fut, patience));
    }
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
        let deadline = patience.map(|p| Instant::now() + p);
        while !unparker.woken.swap(false, Ordering::AcqRel) {
            match deadline {
                None => thread::park(),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    thread::park_timeout(left);
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
    fn blocking_sections_hand_the_queue_to_spares() {
        // Eight tasks meet at one barrier, each inside a blocking section.
        // On W < 8 workers this finishes only because every section hands
        // its worker's place to another thread.
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let tasks: Vec<TaskHandle> = (0..8)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                spawn(async move {
                    blocking(|| barrier.wait());
                })
            })
            .collect();
        block_on(async {
            for task in tasks {
                task.await;
            }
        });
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
