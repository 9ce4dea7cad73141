//! Property tests for the shift-buffer window geometry (§3.3, Figure 2),
//! as seeded sweeps ([`shmls_ir::rng::sweep`]): a failure prints the
//! `(seed, case)` pair that reproduces it.

use shmls_dialects::window::{
    linearize, offset_to_window_pos, shift_register_len, window_offsets, window_size,
};
use shmls_ir::rng::{sweep, Rng};

/// Root seed and case count of every sweep in this file.
const SEED: u64 = 0xd1a_0001;
const CASES: u64 = 512;

/// `rank in 1..4, halo in 1..4`
fn gen_rank_halo(rng: &mut Rng) -> (usize, i64) {
    (rng.range(1, 3), rng.range_i64(1, 3))
}

/// One to three extents, each in `lo..=hi`.
fn gen_extents(rng: &mut Rng, lo: i64, hi: i64) -> Vec<i64> {
    rng.vec(1, 3, |r| r.range_i64(lo, hi))
}

/// offset → position → offset is the identity, positions are dense.
#[test]
fn offset_position_bijection() {
    sweep(SEED, CASES, gen_rank_halo, |&(rank, halo)| {
        let offsets = window_offsets(rank, halo);
        assert_eq!(offsets.len(), window_size(rank, halo));
        let mut seen = vec![false; offsets.len()];
        for o in &offsets {
            let pos = offset_to_window_pos(o, halo);
            assert!(pos < seen.len());
            assert!(!seen[pos], "position {pos} hit twice");
            seen[pos] = true;
        }
        assert!(seen.iter().all(|&s| s));
    });
}

/// The centre offset always maps to the middle of the window.
#[test]
fn centre_is_middle() {
    sweep(SEED, CASES, gen_rank_halo, |&(rank, halo)| {
        let centre = vec![0i64; rank];
        let pos = offset_to_window_pos(&centre, halo);
        assert_eq!(pos, window_size(rank, halo) / 2);
    });
}

/// The shift register is exactly long enough: the flattened distance
/// between the first and last window element plus one — and holding
/// one fewer element would lose a needed value.
#[test]
fn register_length_is_tight() {
    // `extents in vec(4..40, 1..4), halo in 1..3`, redrawn until every
    // extent holds a whole window.
    let gen = |rng: &mut Rng| loop {
        let (extents, halo) = (gen_extents(rng, 4, 39), rng.range_i64(1, 2));
        if extents.iter().all(|&e| e > 2 * halo) {
            return (extents, halo);
        }
    };
    sweep(SEED, CASES, gen, |(extents, halo)| {
        let halo = *halo;
        let len = shift_register_len(extents, halo);
        let lb: Vec<i64> = vec![0; extents.len()];
        // Pick the first interior point fully covered by the window.
        let p: Vec<i64> = vec![halo; extents.len()];
        let hi: Vec<i64> = p.iter().map(|&x| x + halo).collect();
        let lo: Vec<i64> = p.iter().map(|&x| x - halo).collect();
        let span = linearize(&hi, &lb, extents) - linearize(&lo, &lb, extents) + 1;
        assert_eq!(len, span, "register must exactly span the window");
    });
}

/// Linearisation is row-major: the last axis is contiguous and
/// strictly monotone in every axis.
#[test]
fn linearize_monotone() {
    sweep(
        SEED,
        CASES,
        |rng| gen_extents(rng, 2, 9),
        |extents| {
            let lb: Vec<i64> = vec![0; extents.len()];
            let mid: Vec<i64> = extents.iter().map(|&e| e / 2).collect();
            let base = linearize(&mid, &lb, extents);
            for d in 0..extents.len() {
                if mid[d] + 1 < extents[d] {
                    let mut next = mid.clone();
                    next[d] += 1;
                    let stride = linearize(&next, &lb, extents) - base;
                    let expected: i64 = extents[d + 1..].iter().product();
                    assert_eq!(stride, expected, "axis {d} stride");
                }
            }
        },
    );
}

/// Growing the halo strictly grows both the window and the register.
#[test]
fn halo_growth_is_monotone() {
    sweep(
        SEED,
        CASES,
        |rng| gen_extents(rng, 10, 29),
        |extents| {
            for halo in 1i64..3 {
                assert!(window_size(extents.len(), halo + 1) > window_size(extents.len(), halo));
                assert!(shift_register_len(extents, halo + 1) > shift_register_len(extents, halo));
            }
        },
    );
}
