//! A tiny deterministic PRNG (SplitMix64) and the seeded property sweep
//! built on it.
//!
//! The fuzzer's contract is *same seed → same kernels, on every host and
//! every build of this workspace*. Library generators do not promise
//! cross-version stream stability, so the workspace carries its own:
//! SplitMix64 is 9 lines, passes BigCrush, and its output sequence is
//! fixed by the algorithm, not by a crate version. It lives in `shmls-ir`
//! because that is the dependency root every crate's tests already share.

use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64 generator state.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed a generator.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derive an independent stream for item `index` — used so every fuzz
    /// case gets its own generator and shrinking/replaying one case never
    /// shifts the kernels of the cases after it.
    pub fn fork(&self, index: u64) -> Rng {
        let mut r = Rng::new(self.state ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64(); // decorrelate nearby indices
        Rng::new(r.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Modulo bias is
    /// irrelevant at fuzzer range sizes.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Pick an element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() - 1)]
    }

    /// `lo..=hi` items, each drawn by `item`.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..self.range(lo, hi)).map(|_| item(self)).collect()
    }

    /// Uniform float in `[lo, hi)` with ~3 decimal digits — coarse on
    /// purpose, so generated literals print compactly and round-trip
    /// exactly through the DSL printer/parser.
    pub fn coarse_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = 2000.0;
        let t = (self.next_u64() % steps as u64) as f64 / steps;
        let raw = lo + t * (hi - lo);
        (raw * 1000.0).round() / 1000.0
    }
}

/// A seeded property sweep: for each `case` in `0..cases`, draw a value
/// from `gen` on the stream `Rng::new(seed).fork(case)` and run `check`
/// on it. A failing check's panic is re-raised after printing the
/// `(seed, case)` pair and the value's `Debug`, so that one integer pair
/// reproduces the failure: `sweep(seed, case + 1, ..)` ends on it, and
/// `gen(&mut Rng::new(seed).fork(case))` rebuilds the value alone.
pub fn sweep<T: Debug>(seed: u64, cases: u64, gen: impl Fn(&mut Rng) -> T, check: impl Fn(&T)) {
    let root = Rng::new(seed);
    for case in 0..cases {
        let value = gen(&mut root.fork(case));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&value))) {
            eprintln!("property failed at (seed {seed}, case {case}) on {value:?}");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn forks_are_stable_and_distinct() {
        let root = Rng::new(7);
        let mut f0 = root.fork(0);
        let mut f0b = root.fork(0);
        let mut f1 = root.fork(1);
        let x = f0.next_u64();
        assert_eq!(x, f0b.next_u64());
        assert_ne!(x, f1.next_u64());
    }

    #[test]
    fn sweep_runs_every_case_on_its_own_fork() {
        let seen = std::cell::RefCell::new(Vec::new());
        sweep(9, 5, Rng::next_u64, |v| seen.borrow_mut().push(*v));
        let root = Rng::new(9);
        let want: Vec<u64> = (0..5).map(|c| root.fork(c).next_u64()).collect();
        assert_eq!(*seen.borrow(), want);
    }

    #[test]
    fn sweep_re_raises_the_failing_case() {
        let failure =
            catch_unwind(|| sweep(1, 8, |r| r.range(0, 9), |v| assert!(*v > 9, "v = {v}")));
        let message = failure.unwrap_err();
        assert!(message.downcast_ref::<String>().unwrap().contains("v = "));
    }

    #[test]
    fn ranges_are_inclusive() {
        let mut r = Rng::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let v = r.range_i64(-1, 1);
            assert!((-1..=1).contains(&v));
            seen.insert(v);
        }
        assert_eq!(seen.len(), 3);
    }
}
