//! Offline stand-in for `parking_lot`: the one type the product uses
//! (`Mutex`, in `fpga-sim/src/threaded.rs`), over `std::sync::Mutex`.

use std::sync::{MutexGuard, PoisonError};

/// A mutex whose `lock` never reports poisoning, as `parking_lot`'s.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
