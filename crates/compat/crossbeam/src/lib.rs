//! Offline stand-in for the `crossbeam` crate.
//!
//! Supplies only `crossbeam::channel::unbounded` and the `Sender` /
//! `Receiver` halves, which is all the runtime crate uses. The queue is a
//! `Mutex<VecDeque>` plus a `Condvar` — adequate for the shard-per-thread
//! message runtime, which exchanges a few messages per simulated round, not
//! a high-throughput data plane. Disconnect semantics match crossbeam:
//! `recv` drains remaining messages after all senders drop, then errors;
//! `send` errors once every receiver is gone.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct ChanState<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<ChanState<T>>,
        ready: Condvar,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    /// Sending half; cloneable (mpmc).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (mpmc).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create an unbounded mpmc channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(ChanState {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails only if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(SendError(msg));
            }
            state.queue.push_back(msg);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // wake receivers blocked on an empty queue so they observe
                // the disconnect
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives; after the last sender drops,
        /// drain what is queued, then return `Err(RecvError)`.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.ready.wait(state).unwrap();
            }
        }

        /// Take a message if one is queued right now.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            self.shared
                .state
                .lock()
                .unwrap()
                .queue
                .pop_front()
                .ok_or(RecvError)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Self {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.state.lock().unwrap().receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_within_channel() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            assert_eq!(
                (0..5).map(|_| rx.recv().unwrap()).collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4]
            );
        }

        #[test]
        fn disconnect_after_drain() {
            let (tx, rx) = unbounded();
            tx.send(7u32).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1u8).is_err());
        }

        #[test]
        fn cross_thread_handoff() {
            let (tx, rx) = unbounded();
            let writer = std::thread::spawn(move || {
                for i in 0..100u64 {
                    tx.send(i).unwrap();
                }
            });
            let mut sum = 0;
            while let Ok(x) = rx.recv() {
                sum += x;
            }
            writer.join().unwrap();
            assert_eq!(sum, 4950);
        }

        #[test]
        fn cloned_receivers_share_queue() {
            let (tx, rx1) = unbounded();
            let rx2 = rx1.clone();
            tx.send(1u8).unwrap();
            tx.send(2u8).unwrap();
            drop(tx);
            let a = rx1.recv().unwrap();
            let b = rx2.recv().unwrap();
            assert_eq!((a, b), (1, 2));
            assert_eq!(rx1.recv(), Err(RecvError));
        }
    }
}
