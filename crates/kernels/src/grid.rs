//! Halo-padded 3D grid storage shared by the native golden
//! implementations and the test harnesses. Their storage is allocated as
//! a [`Buffer`](shmls_ir::interp::Buffer)'s is, by [`storage`].

use shmls_ir::interp::storage;

/// A dense 3D field with a halo, indexed by logical coordinates where the
/// interior is `[0, n)` per axis and the halo extends `[-halo, n+halo)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3 {
    /// Interior extents.
    pub n: [i64; 3],
    /// Halo width.
    pub halo: i64,
    /// Row-major storage over the padded box.
    pub data: Vec<f64>,
}

impl Grid3 {
    /// A zero-filled grid.
    pub fn zeros(n: [i64; 3], halo: i64) -> Self {
        let len = (0..3).map(|d| (n[d] + 2 * halo) as usize).product();
        Self {
            n,
            halo,
            data: storage::zeroed(len),
        }
    }

    /// Padded extents.
    pub fn padded(&self) -> [i64; 3] {
        [
            self.n[0] + 2 * self.halo,
            self.n[1] + 2 * self.halo,
            self.n[2] + 2 * self.halo,
        ]
    }

    fn index(&self, i: i64, j: i64, k: i64) -> usize {
        let p = self.padded();
        debug_assert!(
            i >= -self.halo && i < self.n[0] + self.halo,
            "i = {i} outside [-{}, {})",
            self.halo,
            self.n[0] + self.halo
        );
        debug_assert!(j >= -self.halo && j < self.n[1] + self.halo);
        debug_assert!(k >= -self.halo && k < self.n[2] + self.halo);
        (((i + self.halo) * p[1] + (j + self.halo)) * p[2] + (k + self.halo)) as usize
    }

    /// Read at logical `(i, j, k)` (halo included).
    pub fn get(&self, i: i64, j: i64, k: i64) -> f64 {
        self.data[self.index(i, j, k)]
    }

    /// Write at logical `(i, j, k)`.
    pub fn set(&mut self, i: i64, j: i64, k: i64, v: f64) {
        let idx = self.index(i, j, k);
        self.data[idx] = v;
    }

    /// Fill every padded element from `f(i, j, k)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(i64, i64, i64) -> f64) {
        let h = self.halo;
        for i in -h..self.n[0] + h {
            for j in -h..self.n[1] + h {
                for k in -h..self.n[2] + h {
                    self.set(i, j, k, f(i, j, k));
                }
            }
        }
    }

    /// Deterministic pseudo-random fill in `[-1, 1)`, seeded per grid.
    pub fn fill_random(&mut self, seed: u64) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for v in &mut self.data {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            *v = (r >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        }
    }

    /// Iterate the interior coordinates in row-major order.
    pub fn interior(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        let n = self.n;
        (0..n[0]).flat_map(move |i| (0..n[1]).flat_map(move |j| (0..n[2]).map(move |k| (i, j, k))))
    }

    /// Maximum absolute interior difference against another grid.
    pub fn max_diff(&self, other: &Grid3) -> f64 {
        assert_eq!(self.n, other.n);
        self.interior()
            .map(|(i, j, k)| (self.get(i, j, k) - other.get(i, j, k)).abs())
            .fold(0.0, f64::max)
    }
}

impl Grid3 {
    /// Convert to an interpreter [`shmls_ir::interp::Buffer`] with the
    /// halo-padded shape and `origin = -halo` — the layout the compiled
    /// kernels expect for field arguments.
    pub fn to_buffer(&self) -> shmls_ir::interp::Buffer {
        shmls_ir::interp::Buffer {
            shape: self.padded().to_vec(),
            origin: vec![-self.halo; 3],
            data: storage::copied(&self.data),
        }
    }

    /// Rebuild a grid from an interpreter buffer produced by
    /// [`Grid3::to_buffer`]-compatible allocation.
    pub fn from_buffer(buffer: &shmls_ir::interp::Buffer) -> Self {
        assert_eq!(buffer.shape.len(), 3, "expected a 3D buffer");
        let halo = -buffer.origin[0];
        assert!(
            buffer.origin.iter().all(|&o| o == -halo),
            "asymmetric origin"
        );
        let n = [
            buffer.shape[0] - 2 * halo,
            buffer.shape[1] - 2 * halo,
            buffer.shape[2] - 2 * halo,
        ];
        Self {
            n,
            halo,
            data: storage::copied(&buffer.data),
        }
    }
}

/// A 1D parameter array over one axis, covering the halo
/// (`[-halo, n+halo)`), as the frontend's small-data convention requires.
#[derive(Debug, Clone, PartialEq)]
pub struct Param1 {
    /// Axis extent (interior).
    pub n: i64,
    /// Halo width.
    pub halo: i64,
    /// Storage over `n + 2·halo` entries.
    pub data: Vec<f64>,
}

impl Param1 {
    /// Convert to an interpreter buffer (origin 0, padded extent) — the
    /// layout the compiled kernels expect for small-data arguments.
    pub fn to_buffer(&self) -> shmls_ir::interp::Buffer {
        shmls_ir::interp::Buffer {
            shape: vec![self.n + 2 * self.halo],
            origin: vec![0],
            data: storage::copied(&self.data),
        }
    }

    /// Zero-filled parameter array.
    pub fn zeros(n: i64, halo: i64) -> Self {
        Self {
            n,
            halo,
            data: storage::zeroed((n + 2 * halo) as usize),
        }
    }

    /// Read at logical index (halo included).
    pub fn get(&self, k: i64) -> f64 {
        self.data[(k + self.halo) as usize]
    }

    /// Write at logical index.
    pub fn set(&mut self, k: i64, v: f64) {
        self.data[(k + self.halo) as usize] = v;
    }

    /// Fill from `f(k)` over the padded range.
    pub fn fill_with(&mut self, mut f: impl FnMut(i64) -> f64) {
        for k in -self.halo..self.n + self.halo {
            self.set(k, f(k));
        }
    }
}

/// Fortran `SIGN(a, b)`: `|a|` with the sign of `b` (positive for `b = 0`).
pub fn fsign(a: f64, b: f64) -> f64 {
    a.abs().copysign(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut g = Grid3::zeros([4, 5, 6], 1);
        g.set(-1, -1, -1, 7.0);
        g.set(4, 5, 6, 8.0);
        g.set(2, 3, 4, 9.0);
        assert_eq!(g.get(-1, -1, -1), 7.0);
        assert_eq!(g.get(4, 5, 6), 8.0);
        assert_eq!(g.get(2, 3, 4), 9.0);
    }

    #[test]
    fn fill_and_interior_iteration() {
        let mut g = Grid3::zeros([2, 2, 2], 1);
        g.fill_with(|i, j, k| (i * 100 + j * 10 + k) as f64);
        assert_eq!(g.get(1, 1, 1), 111.0);
        assert_eq!(g.get(-1, 0, 0), -100.0);
        assert_eq!(g.interior().count(), 8);
    }

    #[test]
    fn random_fill_is_deterministic_and_bounded() {
        let mut a = Grid3::zeros([3, 3, 3], 1);
        let mut b = Grid3::zeros([3, 3, 3], 1);
        a.fill_random(42);
        b.fill_random(42);
        assert_eq!(a, b);
        assert!(a.data.iter().all(|v| (-1.0..1.0).contains(v)));
        let mut c = Grid3::zeros([3, 3, 3], 1);
        c.fill_random(43);
        assert_ne!(a, c);
    }

    #[test]
    fn max_diff_detects_changes() {
        let mut a = Grid3::zeros([2, 2, 2], 1);
        let mut b = a.clone();
        assert_eq!(a.max_diff(&b), 0.0);
        b.set(1, 1, 1, 0.5);
        assert_eq!(a.max_diff(&b), 0.5);
        // Halo differences are ignored.
        b.set(1, 1, 1, 0.0);
        a.set(-1, 0, 0, 9.0);
        assert_eq!(a.max_diff(&b), 0.0);
    }

    #[test]
    fn param_indexing() {
        let mut p = Param1::zeros(4, 1);
        p.fill_with(|k| k as f64);
        assert_eq!(p.get(-1), -1.0);
        assert_eq!(p.get(4), 4.0);
        assert_eq!(p.data.len(), 6);
    }

    #[test]
    fn fortran_sign() {
        assert_eq!(fsign(2.0, -3.0), -2.0);
        assert_eq!(fsign(-2.0, 3.0), 2.0);
        assert_eq!(fsign(2.0, 0.0), 2.0);
        assert_eq!(fsign(0.25, -0.0), -0.25);
    }
}
