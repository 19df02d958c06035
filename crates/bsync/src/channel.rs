//! MPMC channels built on the facade's [`Mutex`]/[`Condvar`], so one
//! implementation serves both builds: real condvar-backed queues in a
//! normal build, fully modeled queues under `--features loom-lite`
//! (every send/recv/drop is a scheduler decision point for free).
//!
//! API mirrors the `crossbeam::channel` subset the workspace uses:
//! unbounded and bounded MPMC queues, blocking `send`/`recv`,
//! `try_recv`, and a draining iterator. Bounded senders block while
//! the queue is at capacity; dropping the last receiver unblocks and
//! fails them. Unlike `crossbeam::channel`, a bounded capacity of 0
//! (rendezvous) is treated as capacity 1.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::{Condvar, Mutex, MutexGuard};

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// `None` = unbounded; `Some(cap)` = senders block at `cap`.
    capacity: Option<usize>,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock()
    }
}

/// Multi-producer sender half; cloneable.
pub struct Sender<T>(Arc<Shared<T>>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.0.lock();
        inner.senders -= 1;
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // Wake parked receivers so they observe disconnection.
            self.0.not_empty.notify_all();
        }
    }
}

/// Multi-consumer receiver half; cloneable (receivers share one queue —
/// each message is delivered to exactly one receiver).
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.0.lock();
        inner.receivers -= 1;
        let last = inner.receivers == 0;
        drop(inner);
        if last {
            // Wake senders parked on a full bounded queue so they
            // observe disconnection instead of blocking forever.
            self.0.not_full.notify_all();
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Like the real crate: no `T: Debug` bound.
        f.write_str("SendError(..)")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

/// Why a [`Sender::try_send`] could not deliver; the value comes back
/// in both cases so the caller can retry or re-route it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded queue is at capacity right now.
    Full(T),
    /// Every receiver is gone; the queue can never drain.
    Disconnected(T),
}

impl<T> std::fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Like the real crate: no `T: Debug` bound.
        match self {
            TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("TrySendError::Disconnected(..)"),
        }
    }
}

impl<T> Sender<T> {
    /// Deliver `value`, blocking while a bounded queue is at capacity.
    /// Fails (returning the value) once every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = self.0.lock();
        loop {
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            match inner.capacity {
                Some(cap) if inner.queue.len() >= cap => {
                    // Backpressure: park until a receiver pops.
                    self.0.not_full.wait(&mut inner);
                }
                _ => break,
            }
        }
        inner.queue.push_back(value);
        drop(inner);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Deliver `value` only if it can be enqueued right now. A full
    /// bounded queue returns [`TrySendError::Full`] instead of parking
    /// the caller — the supervised runtime uses this to bound how long
    /// a stalled worker can hold the coordinator hostage.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.0.lock();
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = inner.capacity {
            if inner.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        inner.queue.push_back(value);
        drop(inner);
        self.0.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.0.lock();
        loop {
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            self.0.not_empty.wait(&mut inner);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.0.lock();
        match inner.queue.pop_front() {
            Some(v) => {
                drop(inner);
                self.0.not_full.notify_one();
                Ok(v)
            }
            None if inner.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Messages currently queued (racy by nature; diagnostics only).
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator draining the channel until all senders drop.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            capacity,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// A channel holding at most `cap` messages: `send` blocks while the
/// queue is full (backpressure). `cap = 0` behaves as 1.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_fan_out() {
        let (tx, rx) = unbounded::<u32>();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(3).unwrap();
            3u32
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(t.join().unwrap(), 3);
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_send_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(rx);
        assert!(t.join().unwrap().is_err());
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(2), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(4).unwrap();
        assert_eq!(rx.try_recv(), Ok(4));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}
