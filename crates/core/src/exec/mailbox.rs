//! Bounded mailboxes between query processes.
//!
//! A mailbox is a bounded FIFO with many senders and one receiver. A
//! receiver with nothing to read, and a sender facing a full mailbox,
//! suspend their task instead of their thread: a send is a run-queue push
//! for the woken receiver ([`wsmed_netsim::runtime`]), not an OS wake-up.
//! Closing is symmetric: when the receiver is gone (or closed) every send
//! fails, and when every sender is gone the receiver reads what is queued,
//! then the end.

use std::collections::VecDeque;
use std::future::poll_fn;
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

/// Why [`Sender::try_send`] returned the message instead of queueing it.
#[derive(Debug)]
pub(crate) enum TrySendError<T> {
    /// The mailbox holds its capacity.
    Full(T),
    /// The receiver is gone.
    Disconnected(T),
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    /// No more messages will be queued: the senders are gone.
    sealed: bool,
    /// The receiver is gone.
    disconnected: bool,
    receiver: Option<Waker>,
    /// Senders that found the mailbox full. All of them are woken when it
    /// stops being full, and the ones that lose the race register again:
    /// waking only one could hand the wake-up to a task that no longer
    /// waits and strand the others.
    blocked: Vec<Waker>,
}

struct Chan<T> {
    capacity: usize,
    state: Mutex<State<T>>,
}

/// The sending half; clone it for another sender.
pub(crate) struct Sender<T>(Arc<Chan<T>>);

/// The receiving half.
pub(crate) struct Receiver<T>(Arc<Chan<T>>);

/// A mailbox holding at most `capacity` messages (at least one).
pub(crate) fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        capacity: capacity.max(1),
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            sealed: false,
            disconnected: false,
            receiver: None,
            blocked: Vec::new(),
        }),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every critical section below is one push, pop or flag store, so
        // a panic elsewhere cannot leave the state half-updated.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `msg` if fewer than `capacity` messages are queued; on a
    /// full mailbox registers `waiter` to be woken when there is room.
    fn offer(
        &self,
        msg: T,
        capacity: usize,
        waiter: Option<&Waker>,
    ) -> Result<(), TrySendError<T>> {
        let mut state = self.lock();
        if state.disconnected || state.sealed {
            return Err(TrySendError::Disconnected(msg));
        }
        if state.queue.len() >= capacity {
            if let Some(waker) = waiter {
                if !state.blocked.iter().any(|w| w.will_wake(waker)) {
                    state.blocked.push(waker.clone());
                }
            }
            return Err(TrySendError::Full(msg));
        }
        state.queue.push_back(msg);
        let receiver = state.receiver.take();
        drop(state);
        if let Some(waker) = receiver {
            waker.wake();
        }
        Ok(())
    }

    /// Takes the next message, waking the blocked senders if it made room.
    fn take(&self, state: &mut MutexGuard<'_, State<T>>) -> Option<(T, Vec<Waker>)> {
        let was_full = state.queue.len() >= self.capacity;
        let msg = state.queue.pop_front()?;
        let blocked = if was_full {
            std::mem::take(&mut state.blocked)
        } else {
            Vec::new()
        };
        Some((msg, blocked))
    }
}

impl<T> Sender<T> {
    /// Queues `msg` if there is room, without waiting.
    pub(crate) fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        self.0.offer(msg, self.0.capacity, None)
    }

    /// Queues `msg` even on a full mailbox; returns it if the receiver is
    /// gone. Only for the one message a process sends once in its life
    /// (`Installed`): its parent reads the mailbox only while it has work
    /// out, and the message must be queued the moment it is sent.
    pub(crate) fn send_past_capacity(&self, msg: T) -> Result<(), T> {
        match self.0.offer(msg, usize::MAX, None) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg) | TrySendError::Disconnected(msg)) => Err(msg),
        }
    }

    /// Queues `msg`, waiting for room; returns it if the receiver is gone.
    pub(crate) async fn send(&self, msg: T) -> Result<(), T> {
        let mut msg = Some(msg);
        poll_fn(|cx| {
            let value = msg.take().expect("a send completes once");
            match self.0.offer(value, self.0.capacity, Some(cx.waker())) {
                Ok(()) => Poll::Ready(Ok(())),
                Err(TrySendError::Disconnected(value)) => Poll::Ready(Err(value)),
                Err(TrySendError::Full(value)) => {
                    msg = Some(value);
                    Poll::Pending
                }
            }
        })
        .await
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        if state.senders > 0 {
            return;
        }
        state.sealed = true;
        let receiver = state.receiver.take();
        drop(state);
        if let Some(waker) = receiver {
            waker.wake();
        }
    }
}

impl<T> Receiver<T> {
    /// The next message; `None` once the mailbox is sealed and empty.
    pub(crate) async fn recv(&self) -> Option<T> {
        poll_fn(|cx| self.poll_recv(cx)).await
    }

    fn poll_recv(&self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut state = self.0.lock();
        if let Some((msg, blocked)) = self.0.take(&mut state) {
            drop(state);
            blocked.into_iter().for_each(Waker::wake);
            return Poll::Ready(Some(msg));
        }
        if state.sealed {
            return Poll::Ready(None);
        }
        if !state
            .receiver
            .as_ref()
            .is_some_and(|w| w.will_wake(cx.waker()))
        {
            state.receiver = Some(cx.waker().clone());
        }
        Poll::Pending
    }

    /// The next message if one is queued, without waiting.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut state = self.0.lock();
        let (msg, blocked) = self.0.take(&mut state)?;
        drop(state);
        blocked.into_iter().for_each(Waker::wake);
        Some(msg)
    }

    /// Whether a sender is waiting for room.
    #[cfg(test)]
    pub(crate) fn has_blocked_sender(&self) -> bool {
        !self.0.lock().blocked.is_empty()
    }

    /// Disconnects every sender: what is queued is dropped, blocked
    /// senders get their message back, and later sends fail.
    pub(crate) fn close(&self) {
        let mut state = self.0.lock();
        state.disconnected = true;
        let queued = std::mem::take(&mut state.queue);
        let blocked = std::mem::take(&mut state.blocked);
        drop(state);
        // Queued messages can own mailboxes themselves (`Attach` carries a
        // sender), so they drop outside the lock.
        drop(queued);
        blocked.into_iter().for_each(Waker::wake);
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.0.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsmed_netsim::runtime::{block_on, spawn};

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    #[test]
    fn receiver_sees_the_queue_then_the_end() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.try_send(1).unwrap();
        drop(tx);
        tx2.try_send(2).unwrap();
        drop(tx2);
        let got = block_on(async { (rx.recv().await, rx.recv().await, rx.recv().await) });
        assert_eq!(got, (Some(1), Some(2), None));
    }

    #[test]
    fn blocked_senders_resume_when_room_appears() {
        let (tx, rx) = bounded::<u32>(1);
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let tx = tx.clone();
                spawn(async move {
                    for i in 0..100 {
                        tx.send(p * 1000 + i).await.expect("receiver alive");
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = block_on(async {
            let mut got = Vec::new();
            while let Some(i) = rx.recv().await {
                got.push(i);
            }
            for producer in producers {
                producer.await;
            }
            got
        });
        // Each producer's messages arrive in its order.
        for p in 0..3 {
            let mine: Vec<u32> = got.iter().copied().filter(|i| i / 1000 == p).collect();
            assert_eq!(mine, (0..100).map(|i| p * 1000 + i).collect::<Vec<_>>());
        }
        got.sort_unstable();
        assert_eq!(got.len(), 300);
    }

    #[test]
    fn send_past_capacity_queues_on_a_full_mailbox() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        tx.send_past_capacity(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(
            (rx.try_recv(), rx.try_recv(), rx.try_recv()),
            (Some(1), Some(2), None)
        );
        drop(rx);
        assert_eq!(tx.send_past_capacity(4), Err(4));
    }

    #[test]
    fn closing_the_receiver_fails_a_blocked_send() {
        let (tx, rx) = bounded::<u32>(1);
        tx.try_send(0).unwrap();
        let sender = spawn(async move {
            assert_eq!(tx.send(1).await, Err(1));
        });
        rx.close();
        block_on(sender);
    }
}
