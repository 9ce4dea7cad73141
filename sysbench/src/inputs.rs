//! Seeded input generation: every kernel, key and ordering the workloads
//! use is a pure function of `--seed` (SplitMix64 through
//! [`shmls_conformance::rng::Rng`]). The program under test only ever sees
//! what this module generated.
//!
//! The *mix* of inputs is fixed and only their particulars are seeded —
//! extents, generated expression trees, order — so that the work a run
//! does, and with it every metric, is comparable between seeds.

use std::collections::BTreeSet;

use shmls_conformance::generator::{generate, GenOptions};
use shmls_conformance::rng::Rng;
use shmls_frontend::kernel_to_source;
use shmls_kernels::{heat3d, laplace, pw_advection, tracer_advection};
use shmls_serve::protocol::{Request, RequestOptions};

/// The paper's smallest problem: 8M points.
pub const PAPER_GRID: [i64; 3] = [256, 256, 128];

/// Independent random streams drawn from one seed.
const STREAM_EXTENTS: u64 = 1;
const STREAM_GENERATED: u64 = 2;
const STREAM_KEYS: u64 = 3;
const STREAM_ORDER: u64 = 4;

/// A hand-written kernel of `shmls_kernels` with a golden reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Library {
    /// Piacsek–Williams advection: 3 computations over 3 fields.
    Pw,
    /// NEMO tracer advection: 24 computations.
    Tracer,
    /// 3D heat diffusion.
    Heat3d,
    /// 7-point Jacobi smoother.
    Laplace,
}

impl Library {
    /// All four, in the order the compile workload pins them.
    pub const ALL: [Library; 4] = [
        Library::Pw,
        Library::Tracer,
        Library::Heat3d,
        Library::Laplace,
    ];

    /// Short name for labels.
    pub fn name(self) -> &'static str {
        match self {
            Library::Pw => "pw",
            Library::Tracer => "tracer",
            Library::Heat3d => "heat3d",
            Library::Laplace => "laplace",
        }
    }

    /// DSL source at the given grid.
    pub fn source(self, [nx, ny, nz]: [i64; 3]) -> String {
        match self {
            Library::Pw => pw_advection::source(nx, ny, nz),
            Library::Tracer => tracer_advection::source(nx, ny, nz),
            Library::Heat3d => heat3d::source(nx, ny, nz),
            Library::Laplace => laplace::source_3d(nx, ny, nz),
        }
    }
}

/// Where a kernel of the compile workload's set comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A library kernel at [`PAPER_GRID`]: nothing about it depends on the
    /// seed, so its compile time compares between seeds and its design
    /// shape is pinned.
    Pinned(Library),
    /// A library kernel at a seeded grid: same work as the pinned one.
    Resized,
    /// Drawn by the conformance generator: its cost varies with the seed.
    Generated,
}

/// One kernel of the compile workload's set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileCase {
    /// `pw@256x256x128`, `fuzz_3`, …
    pub label: String,
    /// DSL text handed to `compile`.
    pub source: String,
    /// Where it comes from.
    pub origin: Origin,
}

fn seeded_grid(rng: &mut Rng) -> [i64; 3] {
    [
        rng.range_i64(8, 256),
        rng.range_i64(8, 256),
        rng.range_i64(8, 128),
    ]
}

fn grid_label(kind: Library, [nx, ny, nz]: [i64; 3]) -> String {
    format!("{}@{nx}x{ny}x{nz}", kind.name())
}

/// The compile workload's kernel set: the four library kernels at the
/// paper's grid, each of them again at `resized` seeded grids, and
/// `generated` kernels from the conformance generator.
pub fn kernel_set(seed: u64, resized: usize, generated: usize) -> Vec<CompileCase> {
    let root = Rng::new(seed);
    let mut cases: Vec<CompileCase> = Library::ALL
        .into_iter()
        .map(|kind| CompileCase {
            label: grid_label(kind, PAPER_GRID),
            source: kind.source(PAPER_GRID),
            origin: Origin::Pinned(kind),
        })
        .collect();
    let mut extents = root.fork(STREAM_EXTENTS);
    for kind in Library::ALL {
        for _ in 0..resized {
            let grid = seeded_grid(&mut extents);
            cases.push(CompileCase {
                label: grid_label(kind, grid),
                source: kind.source(grid),
                origin: Origin::Resized,
            });
        }
    }
    let options = GenOptions {
        max_extent: 64,
        ..GenOptions::default()
    };
    let stream = root.fork(STREAM_GENERATED);
    for case in 0..generated as u64 {
        let kernel = generate(&mut stream.fork(case), case, &options);
        cases.push(CompileCase {
            label: kernel.name.clone(),
            source: kernel_to_source(&kernel),
            origin: Origin::Generated,
        });
    }
    cases
}

/// One compile-service key: a kernel source and its prebuilt request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeKey {
    /// DSL text, for the local reference compile.
    pub source: String,
    /// The request frame: `Request::encode` and the newline that ends it.
    /// Its `id` is the key's index in the returned list.
    pub frame: String,
}

/// `count` distinct service keys. Key `i` is PW advection, tracer
/// advection or heat diffusion in a fixed 3:2:3 rotation — the request
/// path's cost follows the source text, so the mix must not vary — at a
/// seeded grid no earlier key of its kind has.
pub fn serve_keys(seed: u64, count: usize) -> Vec<ServeKey> {
    const ROTATION: [Library; 8] = [
        Library::Pw,
        Library::Heat3d,
        Library::Tracer,
        Library::Pw,
        Library::Heat3d,
        Library::Tracer,
        Library::Pw,
        Library::Heat3d,
    ];
    let mut rng = Rng::new(seed).fork(STREAM_KEYS);
    let mut seen = BTreeSet::new();
    (0..count)
        .map(|index| {
            let kind = ROTATION[index % ROTATION.len()];
            let grid = loop {
                let grid = seeded_grid(&mut rng);
                if seen.insert((kind, grid)) {
                    break grid;
                }
            };
            let source = kind.source(grid);
            let mut frame = Request {
                id: Some(index as u64),
                source: source.clone(),
                options: RequestOptions::default(),
            }
            .encode();
            frame.push('\n');
            ServeKey { source, frame }
        })
        .collect()
}

/// The generator that orders work for one consumer (a client connection,
/// or the compile workload's round shuffle).
pub fn order_rng(seed: u64, consumer: u64) -> Rng {
    Rng::new(seed).fork(STREAM_ORDER).fork(consumer)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        assert_eq!(serve_keys(1, 40), serve_keys(1, 40));
        assert_eq!(kernel_set(1, 2, 3), kernel_set(1, 2, 3));
        let order = |seed| {
            let mut rng = order_rng(seed, 0);
            let mut items: Vec<usize> = (0..32).collect();
            shuffle(&mut rng, &mut items);
            items
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn seeds_one_and_two_differ() {
        let frames =
            |seed| -> Vec<String> { serve_keys(seed, 40).into_iter().map(|k| k.frame).collect() };
        assert_ne!(frames(1), frames(2));
        assert_ne!(kernel_set(1, 2, 3), kernel_set(2, 2, 3));
        // The pinned paper-size kernels are the same under every seed.
        assert_eq!(kernel_set(1, 2, 3)[..4], kernel_set(2, 2, 3)[..4]);
    }

    #[test]
    fn keys_are_distinct_and_a_prefix_is_stable() {
        let keys = serve_keys(5, 300);
        let sources: BTreeSet<&str> = keys.iter().map(|k| k.source.as_str()).collect();
        assert_eq!(sources.len(), keys.len());
        // The hot set is a prefix of the full key list, so never-seen keys
        // are simply the ones after it.
        assert_eq!(serve_keys(5, 100)[..], keys[..100]);
        let request = Request::parse(&keys[17].frame).unwrap();
        assert_eq!(request.id, Some(17));
        assert_eq!(request.source, keys[17].source);
    }

    #[test]
    fn kernel_set_has_the_fixed_mix() {
        let set = kernel_set(3, 4, 12);
        assert_eq!(set.len(), 32);
        let count = |f: fn(&Origin) -> bool| set.iter().filter(|c| f(&c.origin)).count();
        assert_eq!(count(|o| matches!(o, Origin::Pinned(_))), 4);
        assert_eq!(count(|o| *o == Origin::Resized), 16);
        assert_eq!(count(|o| *o == Origin::Generated), 12);
    }
}
