//! FIFO streams: the simulator's realisation of `hls.create_stream`.
//!
//! These are the sequential (Kahn-network) engine's streams, where a
//! producer stage runs to completion before its consumers: a FIFO records
//! its declared depth and its occupancy statistics but never refuses a
//! push. Back-pressure — a producer blocking on a full FIFO — is the
//! threaded engine's (its own `Channel`) and the cycle engine's to model.

use std::collections::VecDeque;

use shmls_ir::interp::RtValue;

/// A single FIFO stream.
#[derive(Debug)]
pub struct Fifo {
    /// Declared hardware depth (from `hls.create_stream`'s `depth` attr).
    pub depth: usize,
    queue: VecDeque<RtValue>,
    /// Total elements ever pushed.
    pub total_pushed: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
}

impl Fifo {
    /// A new FIFO with the given declared depth.
    pub fn new(depth: usize) -> Self {
        Self {
            depth,
            queue: VecDeque::new(),
            total_pushed: 0,
            max_occupancy: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Push an element.
    pub fn push(&mut self, value: RtValue) {
        self.queue.push_back(value);
        self.total_pushed += 1;
        self.max_occupancy = self.max_occupancy.max(self.queue.len());
    }

    /// Pop the oldest element, if any.
    pub fn pop(&mut self) -> Option<RtValue> {
        self.queue.pop_front()
    }
}

/// The stream table owned by an execution engine.
#[derive(Debug, Default)]
pub struct StreamTable {
    fifos: Vec<Fifo>,
}

impl StreamTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a stream, returning its handle.
    pub fn create(&mut self, depth: usize) -> usize {
        self.fifos.push(Fifo::new(depth));
        self.fifos.len() - 1
    }

    /// Borrow a FIFO.
    pub fn get(&self, handle: usize) -> Option<&Fifo> {
        self.fifos.get(handle)
    }

    /// Borrow a FIFO mutably.
    pub fn get_mut(&mut self, handle: usize) -> Option<&mut Fifo> {
        self.fifos.get_mut(handle)
    }

    /// Number of streams created.
    pub fn len(&self) -> usize {
        self.fifos.len()
    }

    /// True when no stream exists.
    pub fn is_empty(&self) -> bool {
        self.fifos.is_empty()
    }

    /// Aggregate statistics: (streams, total elements pushed, max occupancy
    /// over all streams).
    pub fn stats(&self) -> (usize, u64, usize) {
        let pushed = self.fifos.iter().map(|f| f.total_pushed).sum();
        let max = self
            .fifos
            .iter()
            .map(|f| f.max_occupancy)
            .max()
            .unwrap_or(0);
        (self.fifos.len(), pushed, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_stats() {
        let mut f = Fifo::new(4);
        assert!(f.is_empty());
        for i in 0..3 {
            f.push(RtValue::I64(i));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.max_occupancy, 3);
        assert_eq!(f.pop(), Some(RtValue::I64(0)));
        assert_eq!(f.pop(), Some(RtValue::I64(1)));
        f.push(RtValue::I64(3));
        assert_eq!(f.pop(), Some(RtValue::I64(2)));
        assert_eq!(f.pop(), Some(RtValue::I64(3)));
        assert_eq!(f.pop(), None);
        assert_eq!(f.total_pushed, 4);
    }

    #[test]
    fn unbounded_ignores_depth() {
        let mut f = Fifo::new(2);
        for i in 0..100 {
            f.push(RtValue::I64(i));
        }
        assert_eq!(f.max_occupancy, 100);
    }

    #[test]
    fn table_create_and_stats() {
        let mut t = StreamTable::new();
        let a = t.create(8);
        let b = t.create(2);
        assert_ne!(a, b);
        t.get_mut(a).unwrap().push(RtValue::F64(0.0));
        t.get_mut(a).unwrap().push(RtValue::F64(0.0));
        t.get_mut(b).unwrap().push(RtValue::F64(0.0));
        let (n, pushed, max) = t.stats();
        assert_eq!((n, pushed, max), (2, 3, 2));
    }
}
