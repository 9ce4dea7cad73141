//! `shmlsc` — the Stencil-HMLS command-line compiler driver.
//!
//! ```text
#![doc = include_str!("shmlsc_usage.txt")]
//! ```

use std::io::Write;
use std::process::ExitCode;

use shmls_fpga_sim::design::DesignDescriptor;
use shmls_fpga_sim::device::{CostTable, Device, PowerCoefficients};
use shmls_ir::printer::print_op;
use stencil_hmls::cli::{because, exit_code, one_of, within, Failure, Flags};
use stencil_hmls::runner::{max_output_diff, run_hls, run_stencil};
use stencil_hmls::{compile, CompileOptions, CompiledKernel};

/// What the module doc, a usage error and `--help` all show.
const USAGE: &str = include_str!("shmlsc_usage.txt");

/// What `--emit` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Stencil,
    Hls,
    Llvm,
    All,
}

/// The `--emit` stages by name.
const STAGES: [(&str, Stage); 4] = [
    ("stencil", Stage::Stencil),
    ("hls", Stage::Hls),
    ("llvm", Stage::Llvm),
    ("all", Stage::All),
];

#[derive(Debug, PartialEq)]
struct Args {
    path: String,
    emit: Option<Stage>,
    design: bool,
    estimate: bool,
    validate: bool,
    optimize: bool,
    connectivity: Option<u32>,
    cus: u32,
    synthesis_report: bool,
    help: bool,
}

fn parse(argv: &[String]) -> Result<Args, Failure> {
    let mut f = Flags::new(argv);
    let stage = |v: &str| STAGES.iter().find(|(name, _)| *name == v).map(|s| s.1);
    let args = Args {
        emit: f.value("--emit", &one_of(STAGES.map(|s| s.0)), stage)?,
        cus: f
            .value("--cus", "a CU count of at least 1", within(1..))?
            .unwrap_or(1),
        connectivity: f.value("--connectivity", "a CU count of at least 1", within(1..))?,
        design: f.switch("--design"),
        estimate: f.switch("--estimate"),
        validate: f.switch("--validate"),
        optimize: !f.switch("--no-opt"),
        synthesis_report: f.switch("--synthesis-report"),
        help: f.switch("--help") | f.switch("-h"),
        path: f.positional().unwrap_or_default(),
    };
    f.finish()?;
    if args.path.is_empty() && !args.help {
        return Err(Failure::usage("no input file"));
    }
    Ok(args)
}

fn run(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    if args.help {
        return Ok(out.write_all(USAGE.as_bytes())?);
    }
    let source = std::fs::read_to_string(&args.path)
        .map_err(because(format!("cannot read `{}`", args.path)))?;
    let opts = CompileOptions {
        optimize: args.optimize,
        ..Default::default()
    };
    let compiled = compile(&source, &opts).map_err(because("compilation failed"))?;

    if let Some(stage) = args.emit {
        let op = match stage {
            Stage::Stencil => compiled.stencil_func,
            Stage::Hls => compiled.hls_func,
            Stage::Llvm => compiled
                .llvm_func
                .ok_or_else(|| Failure::failed("no LLVM path was generated"))?,
            Stage::All => compiled.module,
        };
        writeln!(out, "{}", print_op(&compiled.ctx, op))?;
    }
    if args.emit.is_none() || args.design || args.estimate {
        kernel_section(&compiled, out)?;
    }
    if args.design || args.estimate || args.synthesis_report || args.connectivity.is_some() {
        let design = &compiled.design;
        if args.design {
            design_section(design, out)?;
        }
        if args.estimate {
            estimate_section(design, args.cus, out)?;
        }
        if args.synthesis_report {
            let (device, costs) = (Device::u280(), CostTable::default_f64());
            let report = stencil_hmls::synthesis_report::render(design, &device, &costs, args.cus);
            writeln!(out, "\n{report}")?;
        }
        if let Some(cus) = args.connectivity {
            let banks = shmls_fpga_sim::memory::assign_banks(design, &Device::u280(), cus)
                .map_err(|e| Failure::failed(e.to_string()))?;
            let used = banks.banks_used();
            writeln!(out, "\n# HBM connectivity for {cus} CU(s) ({used} banks)")?;
            write!(out, "{}", banks.to_cfg())?;
        }
    }
    if args.validate {
        validate_section(&compiled, out)?;
    }
    Ok(())
}

fn kernel_section(compiled: &CompiledKernel, out: &mut dyn Write) -> Result<(), Failure> {
    let (k, r) = (&compiled.kernel, &compiled.report);
    writeln!(out, "kernel `{}`:", k.name)?;
    writeln!(out, "  grid            : {:?} (halo {})", k.grid, k.halo)?;
    writeln!(out, "  computations    : {}", r.compute_stages)?;
    writeln!(out, "  fields in/out   : {}/{}", r.inputs, r.outputs)?;
    writeln!(
        out,
        "  streams         : {} ({} dup stages)",
        r.streams, r.dup_stages
    )?;
    writeln!(
        out,
        "  shift buffers   : {} x {:?} elements",
        r.shift_buffers,
        r.shift_register_lens.first().unwrap_or(&0)
    )?;
    writeln!(out, "  window          : {} values", r.window_elems)?;
    writeln!(out, "  bundles         : {:?}", r.bundles)?;
    if let Some(d) = &compiled.directives {
        writeln!(
            out,
            "  fpp round trip  : {} markers, {} dataflow regions, IIs {:?}",
            d.markers_consumed, d.dataflow_regions, d.pipelined_loops
        )?;
    }
    Ok(())
}

fn design_section(design: &DesignDescriptor, out: &mut dyn Write) -> Result<(), Failure> {
    writeln!(out, "\ndesign:")?;
    writeln!(out, "  interior points : {}", design.interior_points)?;
    writeln!(out, "  bounded points  : {}", design.bounded_points)?;
    writeln!(out, "  memory beats    : {}", design.total_beats())?;
    writeln!(out, "  fifo bytes      : {}", design.fifo_bytes())?;
    writeln!(out, "  shift reg bytes : {}", design.shift_register_bytes())?;
    writeln!(out, "  axi ports       : {}", design.axi_ports())?;
    for (i, s) in design.stages.iter().enumerate() {
        writeln!(out, "  stage[{i}]        : {s:?}")?;
    }
    Ok(())
}

fn estimate_section(
    design: &DesignDescriptor,
    cus: u32,
    out: &mut dyn Write,
) -> Result<(), Failure> {
    let device = Device::u280();
    let perf = shmls_fpga_sim::perf::hmls_estimate(design, &device, cus);
    let usage = shmls_fpga_sim::resources::estimate(design, &CostTable::default_f64(), cus);
    let pct = usage.percentages(&device);
    let power = shmls_fpga_sim::power::estimate(
        &device,
        &PowerCoefficients::default_u280(),
        &usage,
        design.total_beats() * 64,
        perf.seconds,
    );
    writeln!(out, "\nestimate ({cus} CU(s) on {}):", device.name)?;
    writeln!(
        out,
        "  throughput      : {:.1} MPt/s ({} cycles, bottleneck {})",
        perf.mpts, perf.cycles, perf.bottleneck
    )?;
    writeln!(out, "  runtime         : {:.3} ms", perf.seconds * 1e3)?;
    writeln!(
        out,
        "  resources       : {:.2}% LUT, {:.2}% FF, {:.2}% BRAM, {:.2}% URAM, {:.2}% DSP",
        pct[0],
        pct[1],
        pct[2],
        usage.uram_pct(&device),
        pct[3]
    )?;
    writeln!(
        out,
        "  power / energy  : {:.1} W / {:.3} J",
        power.watts, power.joules
    )?;
    Ok(())
}

/// Random data, reference vs dataflow.
fn validate_section(compiled: &CompiledKernel, out: &mut dyn Write) -> Result<(), Failure> {
    let kernel = &compiled.kernel;
    let data = kernel.seeded_data(0x5EED);
    let reference = run_stencil(compiled, &data).map_err(because("reference run failed"))?;
    let (dataflow, (streams, elements, beats)) =
        run_hls(compiled, &data).map_err(because("dataflow run failed"))?;
    let lb = vec![0i64; kernel.rank()];
    let diff = max_output_diff(&reference, &dataflow, &lb, &kernel.grid)
        .map_err(because("comparing the runs"))?;
    writeln!(out, "\nvalidate:")?;
    writeln!(
        out,
        "  streams/elements/beats : {streams}/{elements}/{beats}"
    )?;
    writeln!(out, "  max |dataflow - reference| = {diff:.3e}")?;
    if diff > 1e-12 {
        return Err(Failure::failed("VALIDATION FAILED"));
    }
    writeln!(out, "  PASS")?;
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let result = parse(&argv)
        .map_err(|f| Failure::usage(format!("{}\n{USAGE}", f.message)))
        .and_then(|args| run(&args, &mut out))
        .and_then(|()| Ok(out.flush()?));
    exit_code("shmlsc", result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_flag_lands_in_args() {
        let defaults = Args {
            path: "k.stencil".into(),
            emit: None,
            design: false,
            estimate: false,
            validate: false,
            optimize: true,
            connectivity: None,
            cus: 1,
            synthesis_report: false,
            help: false,
        };
        assert_eq!(parse(&argv("k.stencil")).unwrap(), defaults);
        let all = "--emit hls k.stencil --design --estimate --validate --no-opt \
                   --connectivity 4 --cus 3 --synthesis-report";
        let expected = Args {
            emit: Some(Stage::Hls),
            design: true,
            estimate: true,
            validate: true,
            optimize: false,
            connectivity: Some(4),
            cus: 3,
            synthesis_report: true,
            ..defaults
        };
        assert_eq!(parse(&argv(all)).unwrap(), expected);
        for (name, stage) in STAGES {
            let args = parse(&argv(&format!("k.stencil --emit {name}"))).unwrap();
            assert_eq!(args.emit, Some(stage));
        }
        // `--help` needs no input file, in either spelling.
        assert!(parse(&argv("--help")).unwrap().help);
        assert!(parse(&argv("-h")).unwrap().help);
    }

    #[test]
    fn a_refused_command_line_is_exit_2_naming_what_was_wrong() {
        for (line, named) in [
            (
                "k.stencil --emit",
                "`--emit` needs one of stencil|hls|llvm|all",
            ),
            ("k.stencil --emit wasm", "`--emit` needs one of"),
            ("k.stencil --cus", "`--cus` needs"),
            ("k.stencil --cus two", "`--cus` needs"),
            (
                "k.stencil --cus 0",
                "`--cus` needs a CU count of at least 1",
            ),
            ("k.stencil --cus -1", "`--cus` needs"),
            ("k.stencil --connectivity 0", "`--connectivity` needs"),
            ("k.stencil --connectivity", "`--connectivity` needs"),
            ("k.stencil --bogus", "unknown flag `--bogus`"),
            (
                "k.stencil other.stencil",
                "unexpected argument `other.stencil`",
            ),
            ("--design", "no input file"),
        ] {
            let failure = parse(&argv(line)).expect_err(line);
            assert_eq!(failure.code, 2, "{line}");
            assert!(failure.message.contains(named), "{line}: {failure:?}");
        }
    }

    fn heat3d() -> CompiledKernel {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../kernels/heat3d.stencil");
        let source = std::fs::read_to_string(path).unwrap();
        compile(&source, &CompileOptions::default()).unwrap()
    }

    fn printed(section: impl FnOnce(&mut dyn Write) -> Result<(), Failure>) -> String {
        let mut out = Vec::new();
        section(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn the_sections_print_the_shipped_heat3d_kernel_as_pinned() {
        let compiled = heat3d();
        assert_eq!(
            printed(|out| kernel_section(&compiled, out)),
            "kernel `heat3d`:\n\
             \x20 grid            : [32, 32, 16] (halo 1)\n\
             \x20 computations    : 1\n\
             \x20 fields in/out   : 1/1\n\
             \x20 streams         : 3 (0 dup stages)\n\
             \x20 shift buffers   : 1 x 1263 elements\n\
             \x20 window          : 27 values\n\
             \x20 bundles         : [\"gmem0\", \"gmem1\", \"gmem_small\", \"control\"]\n\
             \x20 fpp round trip  : 9 markers, 4 dataflow regions, IIs {1: 1}\n"
        );
        let design = &compiled.design;
        let text = printed(|out| design_section(design, out));
        let facts = "\ndesign:\n\
             \x20 interior points : 16384\n\
             \x20 bounded points  : 20808\n\
             \x20 memory beats    : 4652\n\
             \x20 fifo bytes      : 1856\n\
             \x20 shift reg bytes : 10104\n\
             \x20 axi ports       : 3\n\
             \x20 stage[0]        : Load {";
        assert!(text.starts_with(facts), "{text}");
        assert_eq!(text.lines().count(), 8 + design.stages.len());
        assert_eq!(
            printed(|out| estimate_section(design, 2, out)),
            "\nestimate (2 CU(s) on Alveo U280):\n\
             \x20 throughput      : 461.1 MPt/s (10660 cycles, bottleneck load[0])\n\
             \x20 runtime         : 0.036 ms\n\
             \x20 resources       : 1.32% LUT, 1.04% FF, 0.40% BRAM, 0.00% URAM, 1.64% DSP\n\
             \x20 power / energy  : 24.8 W / 0.001 J\n"
        );
        let text = printed(|out| validate_section(&compiled, out));
        assert!(
            text.ends_with("  max |dataflow - reference| = 0.000e0\n  PASS\n"),
            "{text}"
        );
    }

    /// A writer whose reader has gone away.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_ends_a_section_quietly() {
        let failure = kernel_section(&heat3d(), &mut ClosedPipe).unwrap_err();
        assert_eq!((failure.code, failure.message.as_str()), (0, ""));
    }
}
