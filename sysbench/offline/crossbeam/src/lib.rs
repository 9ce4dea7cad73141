//! Offline stand-in for `crossbeam`: the bounded multi-producer
//! multi-consumer channel `fpga-sim/src/threaded.rs` uses, over a
//! `Mutex<VecDeque>` and two condition variables. Its speed is not
//! crossbeam's, so `fpga_sim.threaded.elems_per_s` measured through it
//! compares only against other runs built the same way.

pub mod channel {
    //! `bounded`, `Sender`, `Receiver` and their timeout errors.

    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // No operation below can panic while holding the lock, so the
            // state behind a poisoned lock is still consistent.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// The sending half; clones share the channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half; clones share the channel.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Why `send_timeout` gave the value back.
    #[derive(Debug)]
    pub enum SendTimeoutError<T> {
        /// The channel stayed full for the whole timeout.
        Timeout(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// Why `recv_timeout` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The channel stayed empty for the whole timeout.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// A channel holding at most `capacity` values (at least one).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.max(1)),
                senders: 1,
                receivers: 1,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Send, waiting up to `timeout` for room.
        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if state.queue.len() < self.0.capacity {
                    state.queue.push_back(value);
                    drop(state);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    return Err(SendTimeoutError::Timeout(value));
                };
                state = self
                    .0
                    .not_full
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive, waiting up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.0.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    return Err(RecvTimeoutError::Timeout);
                };
                state = self
                    .0
                    .not_empty
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        /// Values currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                self.0.not_full.notify_all();
            }
        }
    }
}
