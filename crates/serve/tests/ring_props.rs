//! Property tests for the consistent-hash ring.
//!
//! Three invariants the router's correctness rests on:
//!
//! 1. **Determinism** — key→shard assignment is a pure function of the
//!    shard *id set*: repeated lookups agree, and the insertion order
//!    of the ids is irrelevant.
//! 2. **Balance** — over ≥1k uniform random keys, every shard's share
//!    stays within a bound of fair. With 128 vnodes per shard the bound
//!    is loose for small rings (a shard can own ~0.35×–2.1× fair in the
//!    worst sampled cases), so the gate is [0.25, 2.5]× — tight enough
//!    to catch a broken ring (a shard owning ~0 or ~all of the space),
//!    loose enough to hold for every honest sample.
//! 3. **Minimal disruption** — removing one of N shards remaps *only*
//!    the keys that shard owned (exactly: every other key keeps its
//!    owner), and that remapped fraction is about 1/N, bounded by the
//!    same balance envelope.
//!
//! Each property is a seeded sweep ([`shmls_ir::rng::sweep`]): a failure
//! prints the `(seed, case)` pair that reproduces it.

use shmls_ir::rng::{sweep, Rng};
use shmls_serve::router::Ring;

/// Root seed and case count of every sweep in this file.
const SEED: u64 = 0x51_0001;
const CASES: u64 = 24;

/// ≥1k keys per case, as the invariant demands (1000..1300 of them).
fn gen_keys(rng: &mut Rng) -> Vec<u64> {
    rng.vec(1000, 1299, Rng::next_u64)
}

#[test]
fn assignment_is_deterministic_and_order_insensitive() {
    let gen = |rng: &mut Rng| (rng.range(1, 8), gen_keys(rng));
    sweep(SEED, CASES, gen, |(shards, keys)| {
        let shards = *shards;
        let ids: Vec<usize> = (0..shards).collect();
        let ring = Ring::new(&ids);
        let reversed: Vec<usize> = ids.iter().rev().copied().collect();
        let reordered = Ring::new(&reversed);
        assert_eq!(&ring, &reordered);
        for &key in keys {
            let owner = ring.route(key);
            assert!(owner.is_some_and(|s| s < shards));
            // Pure function: same ring, same key, same owner — twice
            // here, and once more on the reordered ring.
            assert_eq!(owner, ring.route(key));
            assert_eq!(owner, reordered.route(key));
        }
    });
}

#[test]
fn load_is_balanced_within_bounds() {
    let gen = |rng: &mut Rng| (rng.range(2, 8), gen_keys(rng));
    sweep(SEED, CASES, gen, |(shards, keys)| {
        let shards = *shards;
        let ids: Vec<usize> = (0..shards).collect();
        let ring = Ring::new(&ids);
        let mut counts = vec![0usize; shards];
        for &key in keys {
            counts[ring.route(key).unwrap()] += 1;
        }
        let fair = keys.len() as f64 / shards as f64;
        for (shard, &count) in counts.iter().enumerate() {
            let share = count as f64 / fair;
            assert!(
                (0.25..=2.5).contains(&share),
                "shard {shard} of {shards} owns {share:.2}x its fair share ({count} of {} keys)",
                keys.len()
            );
        }
    });
}

#[test]
fn removing_a_shard_remaps_only_its_keys() {
    let gen = |rng: &mut Rng| {
        let shards = rng.range(3, 8);
        (shards, rng.range(0, shards - 1), gen_keys(rng))
    };
    sweep(SEED, CASES, gen, |(shards, victim, keys)| {
        let (shards, victim) = (*shards, *victim);
        let ids: Vec<usize> = (0..shards).collect();
        let survivors: Vec<usize> = ids.iter().copied().filter(|&s| s != victim).collect();
        let full = Ring::new(&ids);
        let reduced = Ring::new(&survivors);

        let mut owned_by_victim = 0usize;
        let mut remapped = 0usize;
        for &key in keys {
            let before = full.route(key).unwrap();
            let after = reduced.route(key).unwrap();
            assert_ne!(after, victim);
            if before == victim {
                owned_by_victim += 1;
                remapped += 1;
            } else {
                // The minimal-disruption invariant, exactly: a key the
                // victim did not own must keep its owner.
                assert_eq!(before, after);
            }
        }
        // The remapped set IS the victim's key set...
        assert_eq!(remapped, owned_by_victim);
        // ...and it is ~1/N of the keys, within the balance envelope.
        let fair = keys.len() as f64 / shards as f64;
        let share = remapped as f64 / fair;
        assert!(
            (0.25..=2.5).contains(&share),
            "victim {victim} of {shards} owned {share:.2}x its fair share ({remapped} of {} keys)",
            keys.len()
        );
    });
}
