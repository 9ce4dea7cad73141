//! Pinned autotuner output: what `repro tune --kernel heat3d [--quick]
//! --json` prints, byte for byte, on the quick and the full axes. The two
//! documents under `tests/golden/` were recorded from `tune` as it stood
//! when it was one 320-line function, so a restructuring of the search
//! must leave them untouched (CI's `autotune-sanity` job `diff`s the
//! binary's own output against the same files). A deliberate change to the
//! axes, the models or the report re-records them:
//! `repro tune --kernel heat3d --quick --json > tests/golden/tune_heat3d_quick.json`
//! and the same without `--quick` into `tune_heat3d_full.json`.

use shmls_frontend::parse_kernel;
use shmls_kernels::heat3d;
use stencil_hmls::autotune::{tune, TuneOptions};
use stencil_hmls::cache::CompileCache;

/// The document `repro tune` prints for heat3d at `grid` over `opts`.
fn tuned(grid: [i64; 3], opts: &TuneOptions) -> String {
    let kernel = parse_kernel(&heat3d::source(grid[0], grid[1], grid[2])).expect("heat3d parses");
    let report = tune(&kernel, opts, &CompileCache::new()).expect("heat3d tunes");
    report.to_json().pretty()
}

#[test]
fn quick_axes_match_the_recorded_report() {
    let golden = include_str!("golden/tune_heat3d_quick.json");
    assert_eq!(tuned([12, 10, 8], &TuneOptions::quick()), golden);
}

#[test]
fn full_axes_match_the_recorded_report() {
    let golden = include_str!("golden/tune_heat3d_full.json");
    assert_eq!(tuned([16, 14, 10], &TuneOptions::full()), golden);
}
