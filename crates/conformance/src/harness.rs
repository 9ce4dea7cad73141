//! The differential harness: compile one kernel, run it on every engine,
//! compare against the interpreter oracle.
//!
//! The oracle is the pure IR interpreter executing the *stencil-dialect*
//! function in sequential program order. That is a valid reference for
//! every dataflow engine because the generated design is a Kahn process
//! network: each stage is a deterministic sequential process and the
//! streams are unbounded-in-principle FIFOs, so by the Kahn principle the
//! network's history is independent of scheduling — sequential order is
//! one legal schedule, and every engine must produce its values.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use shmls_fpga_sim::cycle::simulate;
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_frontend::KernelDef;
use shmls_ir::attributes::Attribute;
use shmls_ir::bytecode::ApplyMode;
use shmls_ir::interp::Buffer;
use stencil_hmls::engine::{Engine as MarchEngine, Stream, VECTOR};
use stencil_hmls::runner::{
    run_cpu, run_hls, run_hls_threaded, run_stencil, run_stencil_bytecode_with, KernelData,
};
use stencil_hmls::scale::{run_time_marched_with, time_march_reference, MarchOptions};
use stencil_hmls::{compile_kernel, CompileOptions, CompiledKernel, TargetPath};

/// One engine under test (the oracle itself is not listed: every check is
/// *against* it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Bytecode tier, scalar dispatch: the stencil function with every
    /// `stencil.apply` executed as a compiled register program, one point
    /// per program dispatch. Checked at zero ULPs — the tier's contract
    /// is bitwise equality with the tree-walker.
    Bytecode,
    /// Bytecode tier, vector dispatch: the same register programs
    /// executed a block of up to [`shmls_ir::bytecode::BLOCK`] points per
    /// dispatch — long rows read in place, short ones packed several to a
    /// block — threaded over the axis-0 slab partition. Also checked at
    /// zero ULPs: blocking, packing and threading are pure scheduling —
    /// no reassociation, no cross-lane arithmetic.
    Simd,
    /// Von-Neumann loop-nest lowering, interpreted.
    Cpu,
    /// Sequential Kahn executor over the HLS dataflow design.
    Hls,
    /// Threaded engine: one OS thread per stage, bounded FIFOs.
    Threaded,
    /// Cycle-stepped token simulator (checked for deadlock-free
    /// completion and full drain — it models time, not values).
    Cycle,
}

impl Engine {
    /// Every engine, in check order.
    pub const ALL: [Engine; 6] = [
        Engine::Bytecode,
        Engine::Simd,
        Engine::Cpu,
        Engine::Hls,
        Engine::Threaded,
        Engine::Cycle,
    ];

    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Bytecode => "bytecode",
            Engine::Simd => "simd",
            Engine::Cpu => "cpu",
            Engine::Hls => "hls",
            Engine::Threaded => "threaded",
            Engine::Cycle => "cycle",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Engine> {
        Engine::ALL.iter().copied().find(|e| e.name() == name)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deliberate miscompile, injected into the *compiled* design after the
/// oracle's IR is fixed — the debug hook that proves the harness can see
/// real bugs (ISSUE 3 acceptance: an injected fault must be caught and
/// shrunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one window access: bump the first compute-stage
    /// `llvm.extractvalue` position by one window slot — exactly the
    /// "flipped access offset" class of stencil miscompile.
    OffsetFlip,
    /// Swap the first `arith.addf` in the HLS function to `arith.subf`.
    OpSwap,
}

impl Fault {
    /// Every fault.
    pub const ALL: [Fault; 2] = [Fault::OffsetFlip, Fault::OpSwap];

    /// CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::OffsetFlip => "offset-flip",
            Fault::OpSwap => "op-swap",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == name)
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One scale-out configuration to check differentially: the kernel is
/// time-marched over `steps` steps on `cus` parallel compute units at
/// temporal depth `depth` (timesteps chained on-chip per sweep) and
/// compared against the sequential interpreter oracle iterated the same
/// number of steps. Configurations are clamped per kernel (see
/// [`clamp_scale`]) so generated kernels with tiny grids stay runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Compute units (slabs along axis 0).
    pub cus: usize,
    /// Timesteps.
    pub steps: usize,
    /// Temporal depth (1 = classic per-step halo exchange).
    pub depth: usize,
}

impl fmt::Display for ScaleConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cus={} steps={} depth={}",
            self.cus, self.steps, self.depth
        )
    }
}

/// Clamp a scale configuration to what `kernel`'s grid supports: at most
/// one CU per row, and, for multi-step runs, few enough CUs that every
/// slab is at least a halo tall (otherwise the exchange cannot supply a
/// full halo and the runner rejects the split). Depth is only clamped to
/// be positive — `depth > steps` is a valid (single shallow sweep)
/// configuration the seam tests rely on.
pub fn clamp_scale(kernel: &KernelDef, cfg: ScaleConfig) -> ScaleConfig {
    let n0 = kernel.grid[0];
    let mut cus = cfg.cus.max(1).min(n0.max(1) as usize);
    if cfg.steps > 1 {
        while cus > 1 && n0 / (cus as i64) < kernel.halo {
            cus -= 1;
        }
    }
    ScaleConfig {
        cus,
        steps: cfg.steps.max(1),
        depth: cfg.depth.max(1),
    }
}

/// How a case failed. Carries enough context to be actionable without the
/// full IR (which `CompiledKernel::snapshots` provides when enabled).
#[derive(Debug, Clone)]
pub enum Failure {
    /// The pipeline rejected a valid generated kernel.
    Compile(String),
    /// The oracle itself failed to execute.
    Oracle(String),
    /// An engine returned an error.
    Engine {
        /// Which engine.
        engine: Engine,
        /// Its error text.
        error: String,
    },
    /// An engine completed with values disagreeing with the oracle.
    Mismatch {
        /// Which engine.
        engine: Engine,
        /// Output field with the worst disagreement.
        field: String,
        /// Interior point of the worst disagreement.
        point: Vec<i64>,
        /// Oracle value there.
        expect: f64,
        /// Engine value there.
        got: f64,
        /// ULP distance (`u64::MAX` when only one side is NaN).
        ulps: u64,
    },
    /// An engine deadlocked.
    Deadlock {
        /// Which engine.
        engine: Engine,
        /// The engine's structured report, rendered.
        report: String,
    },
    /// The scale-out path (multi-CU time-marching) returned an error.
    ScaleError {
        /// The (clamped) configuration that failed.
        scale: ScaleConfig,
        /// The engine the march ran on (`"oracle"`: the iterated oracle
        /// failed before any march).
        engine: &'static str,
        /// Its error text.
        error: String,
    },
    /// The scale-out path disagrees with the iterated sequential oracle.
    ScaleMismatch {
        /// The (clamped) configuration that failed.
        scale: ScaleConfig,
        /// The engine the march ran on.
        engine: &'static str,
        /// Output field with the worst disagreement.
        field: String,
        /// Interior point of the worst disagreement.
        point: Vec<i64>,
        /// Oracle value there.
        expect: f64,
        /// Scale-path value there.
        got: f64,
        /// ULP distance (`u64::MAX` when only one side is NaN).
        ulps: u64,
    },
}

impl Failure {
    /// Stable one-word class, used by the shrinker to preserve the
    /// failure kind and by reproducer headers.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Compile(_) => "compile-error",
            Failure::Oracle(_) => "oracle-error",
            Failure::Engine { .. } => "engine-error",
            Failure::Mismatch { .. } => "mismatch",
            Failure::Deadlock { .. } => "deadlock",
            Failure::ScaleError { .. } => "scale-error",
            Failure::ScaleMismatch { .. } => "scale-mismatch",
        }
    }

    /// The scale configuration involved, for scale failures.
    pub fn scale(&self) -> Option<ScaleConfig> {
        match self {
            Failure::ScaleError { scale, .. } | Failure::ScaleMismatch { scale, .. } => {
                Some(*scale)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Compile(e) => write!(f, "compile error: {e}"),
            Failure::Oracle(e) => write!(f, "oracle error: {e}"),
            Failure::Engine { engine, error } => write!(f, "engine `{engine}` error: {error}"),
            Failure::Mismatch {
                engine,
                field,
                point,
                expect,
                got,
                ulps,
            } => write!(
                f,
                "engine `{engine}` disagrees with oracle on `{field}` at {point:?}: \
                 expected {expect:e}, got {got:e} ({ulps} ulps)"
            ),
            Failure::Deadlock { engine, report } => {
                write!(f, "engine `{engine}` deadlocked:\n{report}")
            }
            Failure::ScaleError {
                scale,
                engine,
                error,
            } => write!(f, "scale run ({scale}, engine `{engine}`) error: {error}"),
            Failure::ScaleMismatch {
                scale,
                engine,
                field,
                point,
                expect,
                got,
                ulps,
            } => write!(
                f,
                "scale run ({scale}, engine `{engine}`) disagrees with the iterated oracle on `{field}` \
                 at {point:?}: expected {expect:e}, got {got:e} ({ulps} ulps)"
            ),
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Engines to check (the oracle always runs).
    pub engines: Vec<Engine>,
    /// Largest tolerated ULP distance per point. The engines execute the
    /// same f64 operation sequence, so the default is exact agreement.
    pub max_ulps: u64,
    /// Threaded-engine watchdog before a run is declared deadlocked.
    pub watchdog: Duration,
    /// Inject this fault into the compiled design before the engine runs.
    pub inject: Option<Fault>,
    /// Seed for the generated input data.
    pub data_seed: u64,
    /// Capture per-stage IR snapshots on the compiled kernel.
    pub snapshots: bool,
    /// Scale-out configurations to check after the engines pass: each is
    /// clamped per kernel ([`clamp_scale`]), time-marched on parallel
    /// CUs, and compared against the iterated sequential oracle at the
    /// same [`CheckOptions::max_ulps`]. Empty by default.
    pub scale: Vec<ScaleConfig>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            engines: Engine::ALL.to_vec(),
            max_ulps: 0,
            watchdog: Duration::from_secs(20),
            inject: None,
            data_seed: 1,
            snapshots: false,
            scale: Vec::new(),
        }
    }
}

/// Result of checking one kernel.
#[derive(Debug)]
pub struct CheckReport {
    /// The first failure, if any.
    pub failure: Option<Failure>,
    /// Whether a requested fault was actually injected (a fault can be
    /// inapplicable, e.g. `offset-flip` on a halo-0 single-slot window).
    pub injected: bool,
    /// Per-stage IR snapshots when [`CheckOptions::snapshots`] is set.
    pub snapshots: Vec<(String, String)>,
}

/// Compile `kernel` and check every configured engine against the oracle.
pub fn check_kernel(kernel: &KernelDef, opts: &CheckOptions) -> CheckReport {
    let needs_cpu = opts.engines.contains(&Engine::Cpu);
    let compile_opts = CompileOptions {
        paths: if needs_cpu {
            TargetPath::HlsAndCpu
        } else {
            TargetPath::HlsOnly
        },
        snapshots: opts.snapshots,
        ..Default::default()
    };
    let mut compiled = match compile_kernel(kernel.clone(), &compile_opts) {
        Ok(c) => c,
        Err(e) => {
            return CheckReport {
                failure: Some(Failure::Compile(e.to_string())),
                injected: false,
                snapshots: Vec::new(),
            }
        }
    };

    let data = kernel.seeded_data(opts.data_seed);

    // The oracle runs on the pristine design; faults are injected after,
    // so only the engines see the miscompile.
    let oracle = match run_stencil(&compiled, &data) {
        Ok(o) => o,
        Err(e) => {
            return CheckReport {
                failure: Some(Failure::Oracle(e.to_string())),
                injected: false,
                snapshots: std::mem::take(&mut compiled.snapshots),
            }
        }
    };

    let injected = match opts.inject {
        Some(fault) => inject_fault(&mut compiled, fault),
        None => false,
    };

    let mut failure = None;
    for &engine in &opts.engines {
        if let Some(f) = check_engine(engine, &compiled, &data, &oracle, opts) {
            failure = Some(f);
            break;
        }
    }
    if failure.is_none() {
        for &cfg in &opts.scale {
            // The scale path compiles its own pristine slab designs, so
            // an injected engine fault cannot leak in here; the oracle
            // side iterates the unmutated stencil function.
            if let Some(f) = check_scale(kernel, &compiled, &data, cfg, opts.max_ulps) {
                failure = Some(f);
                break;
            }
        }
    }
    CheckReport {
        failure,
        injected,
        snapshots: std::mem::take(&mut compiled.snapshots),
    }
}

fn check_engine(
    engine: Engine,
    compiled: &CompiledKernel,
    data: &KernelData,
    oracle: &BTreeMap<String, Buffer>,
    opts: &CheckOptions,
) -> Option<Failure> {
    let compare = |out: &BTreeMap<String, Buffer>| {
        compare_outputs(engine, &compiled.kernel, oracle, out, opts.max_ulps)
    };
    match engine {
        Engine::Bytecode => {
            // Bitwise contract: the bytecode tier is checked at zero
            // ULPs, whatever tolerance the other engines run under.
            // Scalar mode is pinned so this engine keeps covering the
            // per-point dispatch path now that the default is blocks.
            match run_stencil_bytecode_with(compiled, data, ApplyMode::Scalar) {
                Ok(out) => compare_outputs(engine, &compiled.kernel, oracle, &out, 0),
                Err(e) => Some(Failure::Engine {
                    engine,
                    error: e.to_string(),
                }),
            }
        }
        Engine::Simd => {
            // The vector tier under its most adversarial schedule:
            // block rows *and* a slab thread fan-out. Still zero ULPs —
            // mode changes scheduling, never arithmetic.
            match run_stencil_bytecode_with(compiled, data, ApplyMode::Chunked { threads: 3 }) {
                Ok(out) => compare_outputs(engine, &compiled.kernel, oracle, &out, 0),
                Err(e) => Some(Failure::Engine {
                    engine,
                    error: e.to_string(),
                }),
            }
        }
        Engine::Cpu => match run_cpu(compiled, data) {
            Ok(out) => compare(&out),
            Err(e) => Some(Failure::Engine {
                engine,
                error: e.to_string(),
            }),
        },
        Engine::Hls => match run_hls(compiled, data) {
            Ok((out, _stats)) => compare(&out),
            Err(e) => Some(Failure::Engine {
                engine,
                error: e.to_string(),
            }),
        },
        Engine::Threaded => match run_hls_threaded(compiled, data, opts.watchdog) {
            Ok(Ok(out)) => compare(&out),
            Ok(Err(report)) => Some(Failure::Deadlock {
                engine,
                report: report.to_string(),
            }),
            Err(e) => Some(Failure::Engine {
                engine,
                error: e.to_string(),
            }),
        },
        Engine::Cycle => {
            match simulate(&compiled.design, None) {
                // `simulate` only returns Ok when every stage finished:
                // the design drains completely at declared FIFO depths.
                Ok(_report) => None,
                Err(report) => Some(Failure::Deadlock {
                    engine,
                    report: report.to_string(),
                }),
            }
        }
    }
}

/// The engines every scale configuration is marched on: the vector tier
/// the march defaults to, and the stream executor, whose slab designs —
/// deep ones with their halo-merge seam stages over overlapping slabs
/// above all — nothing else would run.
const MARCH_ENGINES: [&dyn MarchEngine; 2] = [&VECTOR, &Stream];

/// Check one (clamped) scale configuration: time-march the kernel over
/// parallel CU slabs on each of [`MARCH_ENGINES`] and compare against the
/// sequential interpreter oracle iterated the same number of steps with
/// the same feedback pairing.
fn check_scale(
    kernel: &KernelDef,
    compiled: &CompiledKernel,
    data: &KernelData,
    cfg: ScaleConfig,
    max_ulps: u64,
) -> Option<Failure> {
    let scale = clamp_scale(kernel, cfg);
    let oracle = match time_march_reference(kernel, data, scale.steps, |d| run_stencil(compiled, d))
    {
        Ok(o) => o,
        Err(e) => {
            return Some(Failure::ScaleError {
                scale,
                engine: "oracle",
                error: e.to_string(),
            })
        }
    };
    let mut slab_opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    slab_opts.hmls.temporal_depth = scale.depth;
    MARCH_ENGINES.into_iter().find_map(|march_engine| {
        let engine = march_engine.name();
        let march = MarchOptions {
            engine: Some(march_engine),
            ..Default::default()
        };
        let marched =
            match run_time_marched_with(kernel, data, scale.steps, scale.cus, &slab_opts, &march) {
                Ok((out, _report)) => out,
                Err(e) => {
                    return Some(Failure::ScaleError {
                        scale,
                        engine,
                        error: e.to_string(),
                    })
                }
            };
        let lb = vec![0i64; kernel.rank()];
        let mut worst: Option<(u64, String, Vec<i64>, f64, f64)> = None;
        for (name, expect_buf) in &oracle {
            let Some(got_buf) = marched.get(name) else {
                return Some(Failure::ScaleError {
                    scale,
                    engine,
                    error: format!("output `{name}` missing from scale-run results"),
                });
            };
            for p in shmls_ir::interp::iter_box(&lb, &kernel.grid) {
                let expect = expect_buf.load(&p).unwrap_or(f64::NAN);
                let got = got_buf.load(&p).unwrap_or(f64::NAN);
                let d = ulp_distance(expect, got);
                if d > max_ulps && worst.as_ref().is_none_or(|(w, ..)| d > *w) {
                    worst = Some((d, name.clone(), p, expect, got));
                }
            }
        }
        worst.map(|(ulps, field, point, expect, got)| Failure::ScaleMismatch {
            scale,
            engine,
            field,
            point,
            expect,
            got,
            ulps,
        })
    })
}

/// Compare engine outputs to the oracle over the grid interior (neither
/// side produces halo values). Returns the worst-offending point.
fn compare_outputs(
    engine: Engine,
    kernel: &KernelDef,
    oracle: &BTreeMap<String, Buffer>,
    out: &BTreeMap<String, Buffer>,
    max_ulps: u64,
) -> Option<Failure> {
    let lb = vec![0i64; kernel.rank()];
    let mut worst: Option<(u64, String, Vec<i64>, f64, f64)> = None;
    for (name, expect_buf) in oracle {
        let Some(got_buf) = out.get(name) else {
            return Some(Failure::Engine {
                engine,
                error: format!("output `{name}` missing from engine results"),
            });
        };
        for p in shmls_ir::interp::iter_box(&lb, &kernel.grid) {
            let expect = expect_buf.load(&p).unwrap_or(f64::NAN);
            let got = got_buf.load(&p).unwrap_or(f64::NAN);
            let d = ulp_distance(expect, got);
            if d > max_ulps && worst.as_ref().is_none_or(|(w, ..)| d > *w) {
                worst = Some((d, name.clone(), p, expect, got));
            }
        }
    }
    worst.map(|(ulps, field, point, expect, got)| Failure::Mismatch {
        engine,
        field,
        point,
        expect,
        got,
        ulps,
    })
}

/// ULP distance between two doubles. Equal values (including
/// `-0.0 == 0.0`) and NaN-vs-NaN are distance 0; NaN against a number is
/// `u64::MAX`.
///
/// Finite values are compared through the standard sign-magnitude
/// mapping: reinterpret the bits as `i64` and reflect negative values
/// through `i64::MIN - bits`, which sends *both* zeros to 0 and makes
/// the integer line monotone in the float line. The previous mapping
/// (flip negatives, set the sign bit on positives) kept `-0.0` and
/// `+0.0` as two distinct codes, so any pair straddling zero measured
/// one ULP too wide — `(-ε, +ε)` reported 3 instead of 2, which matters
/// when the harness's tolerance is a small ULP budget.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// Inject `fault` into the compiled design's HLS function, and re-extract
/// `compiled.design` from what it left, so the cycle engine simulates the
/// design the other engines run. Returns whether anything was mutated (the
/// fault may be inapplicable).
pub fn inject_fault(compiled: &mut CompiledKernel, fault: Fault) -> bool {
    let mutated = mutate(compiled, fault);
    if mutated {
        compiled.design = DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func)
            .expect("a fault changes values, never the design's structure");
    }
    mutated
}

fn mutate(compiled: &mut CompiledKernel, fault: Fault) -> bool {
    match fault {
        Fault::OffsetFlip => {
            let window = compiled.report.window_elems as i64;
            if window <= 1 {
                return false; // single-slot window: no offset to flip
            }
            for op in compiled.ctx.walk_collect(compiled.hls_func) {
                if compiled.ctx.op_name(op) != "llvm.extractvalue" {
                    continue;
                }
                if let Some(Attribute::IndexArray(pos)) = compiled.ctx.attr(op, "position") {
                    if pos.len() == 2 && pos[1] < window {
                        let mut flipped = pos.clone();
                        flipped[1] = (flipped[1] + 1) % window;
                        compiled
                            .ctx
                            .set_attr(op, "position", Attribute::IndexArray(flipped));
                        return true;
                    }
                }
            }
            false
        }
        Fault::OpSwap => {
            for op in compiled.ctx.walk_collect(compiled.hls_func) {
                if compiled.ctx.op_name(op) == "arith.addf" {
                    compiled.ctx.set_op_name(op, "arith.subf");
                    return true;
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmls_frontend::parse_kernel;

    const SRC: &str = r#"
kernel h {
  grid(6, 5)
  halo 1
  field a : input
  field b : output
  compute b { b = a[-1,0] + a[1,0] + a[0,-1] }
}
"#;

    #[test]
    fn clean_kernel_passes_all_engines() {
        let k = parse_kernel(SRC).unwrap();
        let report = check_kernel(&k, &CheckOptions::default());
        assert!(report.failure.is_none(), "{}", report.failure.unwrap());
        assert!(!report.injected);
    }

    #[test]
    fn offset_flip_is_caught() {
        let k = parse_kernel(SRC).unwrap();
        let opts = CheckOptions {
            inject: Some(Fault::OffsetFlip),
            ..Default::default()
        };
        let report = check_kernel(&k, &opts);
        assert!(report.injected);
        match report.failure {
            Some(Failure::Mismatch { .. }) => {}
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    #[test]
    fn op_swap_is_caught() {
        let k = parse_kernel(SRC).unwrap();
        let opts = CheckOptions {
            inject: Some(Fault::OpSwap),
            ..Default::default()
        };
        let report = check_kernel(&k, &opts);
        assert!(report.injected);
        match report.failure {
            Some(Failure::Mismatch { .. }) => {}
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cpu_engine_unaffected_by_hls_fault() {
        // The fault mutates only the HLS function: the CPU lowering must
        // still agree with the oracle, localising the blame.
        let k = parse_kernel(SRC).unwrap();
        let opts = CheckOptions {
            engines: vec![Engine::Cpu],
            inject: Some(Fault::OffsetFlip),
            ..Default::default()
        };
        let report = check_kernel(&k, &opts);
        assert!(report.injected);
        assert!(report.failure.is_none());
    }

    #[test]
    fn clean_kernel_passes_scale_configs() {
        let k = parse_kernel(SRC).unwrap();
        let opts = CheckOptions {
            engines: vec![Engine::Hls],
            scale: vec![
                ScaleConfig {
                    cus: 1,
                    steps: 1,
                    depth: 1,
                },
                ScaleConfig {
                    cus: 2,
                    steps: 2,
                    depth: 1,
                },
                ScaleConfig {
                    cus: 3,
                    steps: 4,
                    depth: 1,
                },
                ScaleConfig {
                    cus: 2,
                    steps: 4,
                    depth: 2,
                },
                ScaleConfig {
                    cus: 2,
                    steps: 5,
                    depth: 4,
                }, // remainder round
                ScaleConfig {
                    cus: 1,
                    steps: 2,
                    depth: 4,
                }, // depth > steps
            ],
            ..Default::default()
        };
        let report = check_kernel(&k, &opts);
        assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    }

    #[test]
    fn scale_configs_are_clamped_to_the_grid() {
        let k = parse_kernel(SRC).unwrap(); // grid(6, 5), halo 1
        let deep = parse_kernel(
            "kernel d { grid(5, 6) halo 2 field a : input field b : output \
             compute b { b = a[-2,0] + a[0,2] } }",
        )
        .unwrap();
        let cfg = |cus, steps, depth| ScaleConfig { cus, steps, depth };
        for (kernel, input, expected) in [
            (&k, cfg(9, 0, 1), cfg(6, 1, 1)),
            // Multi-step: 6 rows over 4 CUs gives 1-row slabs — fine at
            // halo 1; a halo-2 kernel needs the CU count reduced, unless
            // one step needs no exchange.
            (&k, cfg(4, 2, 1), cfg(4, 2, 1)),
            (&deep, cfg(3, 2, 1), cfg(2, 2, 1)),
            (&deep, cfg(3, 1, 1), cfg(3, 1, 1)),
            // Depth clamps to >= 1; depth > steps survives clamping.
            (&k, cfg(2, 3, 0), cfg(2, 3, 1)),
            (&k, cfg(2, 2, 8), cfg(2, 2, 8)),
        ] {
            assert_eq!(clamp_scale(kernel, input), expected, "{input}");
        }
    }

    #[test]
    fn scale_check_runs_even_with_an_injected_engine_fault_on_cpu_only() {
        // The fault lives in the compiled HLS function; the scale path
        // compiles its own designs and the oracle iterates the stencil
        // function, so neither side sees it and the check still passes.
        let k = parse_kernel(SRC).unwrap();
        let opts = CheckOptions {
            engines: vec![Engine::Cpu],
            inject: Some(Fault::OffsetFlip),
            scale: vec![ScaleConfig {
                cus: 2,
                steps: 2,
                depth: 1,
            }],
            ..Default::default()
        };
        let report = check_kernel(&k, &opts);
        assert!(report.injected);
        assert!(report.failure.is_none(), "{}", report.failure.unwrap());
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0);
        assert_eq!(ulp_distance(1.0, f64::NAN), u64::MAX);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0_f64.to_bits() + 1)), 1);
        assert_eq!(
            ulp_distance(-1.0, f64::from_bits((-1.0_f64).to_bits() + 1)),
            1
        );
        assert!(ulp_distance(-1.0, 1.0) > 1 << 60);
    }

    #[test]
    fn ulp_distance_zero_straddle_regression() {
        // The ±0.0 sign boundary: both zeros must map to the same code,
        // so a pair straddling zero is exactly the sum of each side's
        // distance to zero — not one wider.
        let eps = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(-0.0, 0.0), 0);
        assert_eq!(ulp_distance(0.0, eps), 1);
        assert_eq!(ulp_distance(-0.0, eps), 1);
        assert_eq!(ulp_distance(-eps, 0.0), 1);
        assert_eq!(ulp_distance(-eps, eps), 2, "was 3 under the old mapping");
        let two_eps = f64::from_bits(2);
        assert_eq!(ulp_distance(-eps, two_eps), 3);
        assert_eq!(ulp_distance(-two_eps, two_eps), 4);
    }
}
