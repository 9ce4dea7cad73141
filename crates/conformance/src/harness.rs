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

use shmls_fpga_sim::cycle::simulate;
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_frontend::KernelDef;
use shmls_ir::attributes::Attribute;
use shmls_ir::bytecode::ApplyMode;
use shmls_ir::error::{IrErrorKind, IrResult};
use shmls_ir::interp::Buffer;
use stencil_hmls::engine::{deadlocked, Engine, Interp, Stream, Threaded, VECTOR};
use stencil_hmls::runner::KernelData;
use stencil_hmls::scale::{run_time_marched_with, time_march_reference, MarchOptions};
use stencil_hmls::{compile_kernel, CompileOptions, CompiledKernel, TargetPath};

/// The value tiers checked against the oracle (which is not listed: every
/// check is *against* it), in check order, each with whether it is held
/// bitwise. The bytecode tiers' contract is bitwise equality with the
/// tree-walker, so `bytecode` (scalar dispatch, the per-point path) and
/// `vector` (under its most adversarial schedule: block rows *and* a slab
/// thread fan-out) are checked at zero ULPs whatever
/// [`CheckOptions::max_ulps`] says — blocking, packing and threading are
/// pure scheduling, no reassociation.
pub const TIERS: [(&dyn Engine, bool); 5] = [
    (&Interp::Bytecode(ApplyMode::Scalar), true),
    (&Interp::Bytecode(ApplyMode::Chunked { threads: 3 }), true),
    (&Interp::Cpu, false),
    (&Stream, false),
    (&Threaded, false),
];

/// The one check that is not a value tier: the cycle-stepped simulator
/// must drain the extracted design at its declared FIFO depths (it models
/// time, not values).
pub const CYCLE: &str = "cycle";

/// Every check's name, in check order: the [`TIERS`], then [`CYCLE`] —
/// what [`CheckOptions::engines`] selects from.
pub fn check_names() -> impl Iterator<Item = &'static str> {
    let tiers = TIERS.map(|(tier, _)| tier.name());
    tiers.into_iter().chain([CYCLE])
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
        /// Which engine (`"oracle"`: the iterated oracle failed before
        /// any march).
        engine: &'static str,
        /// The (clamped) configuration, when the error came from
        /// time-marching the kernel over parallel CU slabs.
        scale: Option<ScaleConfig>,
        /// Its error text.
        error: String,
    },
    /// An engine completed with values disagreeing with the oracle (on
    /// the scale path: with the oracle iterated as many steps).
    Mismatch {
        /// Which engine.
        engine: &'static str,
        /// The (clamped) configuration of a scale run.
        scale: Option<ScaleConfig>,
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
    /// An engine deadlocked, on either dataflow schedule or in the cycle
    /// simulator.
    Deadlock {
        /// Which engine.
        engine: &'static str,
        /// Its error: the structured report, naming every blocked stage
        /// and the stream it was blocked on.
        report: String,
    },
}

impl Failure {
    /// Stable one-word class, used by the shrinker to preserve the
    /// failure kind and by reproducer headers.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Compile(_) => "compile-error",
            Failure::Oracle(_) => "oracle-error",
            Failure::Engine { scale: None, .. } => "engine-error",
            Failure::Engine { scale: Some(_), .. } => "scale-error",
            Failure::Mismatch { scale: None, .. } => "mismatch",
            Failure::Mismatch { scale: Some(_), .. } => "scale-mismatch",
            Failure::Deadlock { .. } => "deadlock",
        }
    }

    /// The scale configuration involved, for scale failures.
    pub fn scale(&self) -> Option<ScaleConfig> {
        match self {
            Failure::Engine { scale, .. } | Failure::Mismatch { scale, .. } => *scale,
            _ => None,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let run = |engine: &str, scale: &Option<ScaleConfig>| match scale {
            None => format!("engine `{engine}`"),
            Some(scale) => format!("scale run ({scale}, engine `{engine}`)"),
        };
        match self {
            Failure::Compile(e) => write!(f, "compile error: {e}"),
            Failure::Oracle(e) => write!(f, "oracle error: {e}"),
            Failure::Engine {
                engine,
                scale,
                error,
            } => write!(f, "{} error: {error}", run(engine, scale)),
            Failure::Mismatch {
                engine,
                scale,
                field,
                point,
                expect,
                got,
                ulps,
            } => {
                let oracle = match scale {
                    None => "oracle",
                    Some(_) => "the iterated oracle",
                };
                write!(
                    f,
                    "{} disagrees with {oracle} on `{field}` at {point:?}: \
                     expected {expect:e}, got {got:e} ({ulps} ulps)",
                    run(engine, scale)
                )
            }
            Failure::Deadlock { report, .. } => f.write_str(report),
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Checks to run, by name (of [`check_names`]; they run in check
    /// order, however listed). The oracle always runs.
    pub engines: Vec<&'static str>,
    /// Largest tolerated ULP distance per point. The engines execute the
    /// same f64 operation sequence, so the default is exact agreement.
    pub max_ulps: u64,
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
            engines: check_names().collect(),
            max_ulps: 0,
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
    let compile_opts = CompileOptions {
        paths: if opts.engines.contains(&Interp::Cpu.name()) {
            TargetPath::HlsAndCpu
        } else {
            TargetPath::HlsOnly
        },
        snapshots: opts.snapshots,
        ..Default::default()
    };
    match compile_kernel(kernel.clone(), &compile_opts) {
        Ok(compiled) => check_compiled(kernel, compiled, opts),
        Err(e) => CheckReport {
            failure: Some(Failure::Compile(e.to_string())),
            injected: false,
            snapshots: Vec::new(),
        },
    }
}

/// Check `compiled`, `kernel` as compiled, against the oracle: each
/// selected tier, the cycle check, then each scale configuration, up to
/// the first failure.
fn check_compiled(
    kernel: &KernelDef,
    mut compiled: CompiledKernel,
    opts: &CheckOptions,
) -> CheckReport {
    let data = kernel.seeded_data(opts.data_seed);
    // The oracle runs on the pristine design; faults are injected after,
    // so only the engines see the miscompile.
    let oracle = match run_oracle(&compiled, &data) {
        Ok(o) => o,
        Err(e) => {
            return CheckReport {
                failure: Some(Failure::Oracle(e.to_string())),
                injected: false,
                snapshots: std::mem::take(&mut compiled.snapshots),
            }
        }
    };
    let injected = opts
        .inject
        .is_some_and(|fault| inject_fault(&mut compiled, fault));

    let selected = |name| opts.engines.contains(&name);
    let failure = (TIERS.into_iter())
        .filter(|(tier, _)| selected(tier.name()))
        .find_map(|(tier, bitwise)| {
            let max_ulps = if bitwise { 0 } else { opts.max_ulps };
            check_tier(tier, kernel, &compiled, &data, &oracle, max_ulps)
        })
        .or_else(|| selected(CYCLE).then(|| check_cycle(&compiled)).flatten())
        // The scale path compiles its own pristine slab designs, so an
        // injected engine fault cannot leak in here; the oracle side
        // iterates the unmutated stencil function.
        .or_else(|| {
            (opts.scale.iter())
                .find_map(|&cfg| check_scale(kernel, &compiled, &data, cfg, opts.max_ulps))
        });
    CheckReport {
        failure,
        injected,
        snapshots: std::mem::take(&mut compiled.snapshots),
    }
}

/// The oracle: the stencil-dialect function, tree-walked in program order.
fn run_oracle(compiled: &CompiledKernel, data: &KernelData) -> IrResult<BTreeMap<String, Buffer>> {
    Ok(Interp::Tree.sweep(compiled, data, 1)?.outputs)
}

/// Sweep `compiled` (`kernel` as compiled) once on `tier` and compare what
/// it wrote with the oracle. A stall, on either dataflow schedule, is a deadlock.
fn check_tier(
    tier: &dyn Engine,
    kernel: &KernelDef,
    compiled: &CompiledKernel,
    data: &KernelData,
    oracle: &BTreeMap<String, Buffer>,
    max_ulps: u64,
) -> Option<Failure> {
    let engine = tier.name();
    match tier.sweep(compiled, data, 1) {
        Ok(sweep) => compare(engine, None, kernel, oracle, &sweep.outputs, max_ulps),
        Err(e) if e.kind() == IrErrorKind::Deadlock => Some(Failure::Deadlock {
            engine,
            report: e.to_string(),
        }),
        Err(e) => Some(Failure::Engine {
            engine,
            scale: None,
            error: e.to_string(),
        }),
    }
}

/// The cycle check: `simulate` only returns `Ok` when every stage
/// finished, the design drained completely at its declared FIFO depths.
fn check_cycle(compiled: &CompiledKernel) -> Option<Failure> {
    let report = simulate(&compiled.design, None).err()?;
    Some(Failure::Deadlock {
        engine: CYCLE,
        report: deadlocked(CYCLE, &report).to_string(),
    })
}

/// The engines every scale configuration is marched on: the vector tier
/// the march defaults to, and the stream executor, whose slab designs —
/// deep ones with their halo-merge seam stages over overlapping slabs
/// above all — nothing else would run.
const MARCH_ENGINES: [&dyn Engine; 2] = [&VECTOR, &Stream];

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
    let clamped = clamp_scale(kernel, cfg);
    let (scale, steps) = (Some(clamped), clamped.steps);
    let failed = |engine, error: String| Failure::Engine {
        engine,
        scale,
        error,
    };
    let oracle = match time_march_reference(kernel, data, steps, |d| run_oracle(compiled, d)) {
        Ok(o) => o,
        Err(e) => return Some(failed("oracle", e.to_string())),
    };
    let mut slab_opts = CompileOptions {
        paths: TargetPath::HlsOnly,
        ..Default::default()
    };
    slab_opts.hmls.temporal_depth = clamped.depth;
    MARCH_ENGINES.into_iter().find_map(|engine| {
        let march = MarchOptions {
            engine: Some(engine),
            ..Default::default()
        };
        match run_time_marched_with(kernel, data, steps, clamped.cus, &slab_opts, &march) {
            Ok((out, _report)) => compare(engine.name(), scale, kernel, &oracle, &out, max_ulps),
            Err(e) => Some(failed(engine.name(), e.to_string())),
        }
    })
}

/// Compare `engine`'s outputs (on the scale path at `scale`) to the
/// oracle's over the grid interior — neither side produces halo values.
/// Returns the worst point further than `max_ulps` from the oracle.
fn compare(
    engine: &'static str,
    scale: Option<ScaleConfig>,
    kernel: &KernelDef,
    oracle: &BTreeMap<String, Buffer>,
    out: &BTreeMap<String, Buffer>,
    max_ulps: u64,
) -> Option<Failure> {
    let lb = vec![0i64; kernel.rank()];
    let mut worst: Option<(u64, String, Vec<i64>, f64, f64)> = None;
    for (name, expect_buf) in oracle {
        let Some(got_buf) = out.get(name) else {
            let error = format!("output `{name}` missing from engine results");
            return Some(Failure::Engine {
                engine,
                scale,
                error,
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
        scale,
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
            engines: vec!["cpu"],
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
            engines: vec!["stream"],
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
            engines: vec!["cpu"],
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

    /// A design whose compute stage pops one element more than its
    /// producer pushes stalls on either schedule: the sweep is an error of
    /// kind `Deadlock`, and the harness reports a deadlock on both.
    #[test]
    fn a_stalled_design_is_a_deadlock_on_either_schedule() {
        let k = parse_kernel(SRC).unwrap();
        let stalled = || {
            let mut compiled = compile_kernel(k.clone(), &CompileOptions::default()).unwrap();
            // One more trip of the compute stage's loop than the shift
            // buffer has windows for.
            let ctx = &mut compiled.ctx;
            let stage_loop = ctx.find_ops(compiled.hls_func, "scf.for")[0];
            let trips = ctx.defining_op(ctx.operands(stage_loop)[1]).unwrap();
            let Some(Attribute::Int(n, ty)) = ctx.attr(trips, "value").cloned() else {
                panic!("the loop's trip count is a constant");
            };
            ctx.set_attr(trips, "value", Attribute::Int(n + 1, ty));
            compiled
        };
        let (compiled, data) = (stalled(), k.seeded_data(1));
        for tier in [&Stream as &dyn Engine, &Threaded] {
            let e = tier.sweep(&compiled, &data, 1).unwrap_err();
            assert_eq!(e.kind(), IrErrorKind::Deadlock, "{}: {e}", tier.name());
        }
        for engine in ["stream", "threaded"] {
            let opts = CheckOptions {
                engines: vec![engine],
                ..Default::default()
            };
            let failure = check_compiled(&k, stalled(), &opts).failure.unwrap();
            assert_eq!(failure.kind(), "deadlock", "{engine}: {failure}");
            assert!(failure.to_string().contains("blocked"), "{failure}");
        }
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
