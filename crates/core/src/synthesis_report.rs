//! Synthesis-report generation: a Vitis-HLS-style text report for a
//! compiled design (the artefact an FPGA engineer reads after `v++`
//! synthesis — loop latencies, initiation intervals, resource estimates,
//! interface summary).
//!
//! Everything in the report derives from the same models the evaluation
//! uses ([`shmls_fpga_sim::perf`], [`shmls_fpga_sim::resources`],
//! [`shmls_fpga_sim::cycle`]), so the report doubles as a human-readable
//! cross-section of the design descriptor.

use std::fmt::Write;

use shmls_fpga_sim::design::{DesignDescriptor, Stage};
use shmls_fpga_sim::device::{CostTable, Device};
use shmls_fpga_sim::perf::hmls_estimate;
use shmls_fpga_sim::resources;

/// Render the synthesis report for `design` deployed with `cus` compute
/// units on `device`.
pub fn render(design: &DesignDescriptor, device: &Device, costs: &CostTable, cus: u32) -> String {
    let mut out = String::new();
    header(&mut out, design, device, cus);
    performance(&mut out, design, device, cus);
    stages(&mut out, design);
    utilization(&mut out, design, device, costs, cus);
    interfaces(&mut out, design);
    streams(&mut out, design);
    out
}

fn header(out: &mut String, design: &DesignDescriptor, device: &Device, cus: u32) {
    writeln!(out, "== Synthesis Report: {} ==", design.name).unwrap();
    writeln!(out, "* Target device : {}", device.name).unwrap();
    writeln!(
        out,
        "* Clock target  : {:.0} MHz ({:.2} ns)",
        device.clock_hz / 1e6,
        1e9 / device.clock_hz
    )
    .unwrap();
    writeln!(out, "* Compute units : {cus}").unwrap();
    writeln!(out).unwrap();
}

fn performance(out: &mut String, design: &DesignDescriptor, device: &Device, cus: u32) {
    let perf = hmls_estimate(design, device, cus);
    writeln!(out, "+ Performance Estimates").unwrap();
    writeln!(
        out,
        "  Overall latency: {} cycles ({:.3} ms), throughput {:.1} MPt/s",
        perf.cycles,
        perf.seconds * 1e3,
        perf.mpts
    )
    .unwrap();
    writeln!(
        out,
        "  Steady state {} + fill {} cycles; bottleneck: {}",
        perf.steady_cycles, perf.fill_cycles, perf.bottleneck
    )
    .unwrap();
    writeln!(out).unwrap();
}

fn stages(out: &mut String, design: &DesignDescriptor) {
    writeln!(out, "+ Dataflow Stages").unwrap();
    writeln!(
        out,
        "  {:<4} {:<10} {:>12} {:>4} {:>20}",
        "#", "kind", "trip count", "II", "detail"
    )
    .unwrap();
    for (i, stage) in design.stages.iter().enumerate() {
        let kind = stage.kind();
        let (trips, ii, detail) = stage_row(stage);
        writeln!(out, "  {i:<4} {kind:<10} {trips:>12} {ii:>4} {detail:>20}").unwrap();
    }
    writeln!(out).unwrap();
}

/// A stage's trip count, initiation interval and detail column.
fn stage_row(stage: &Stage) -> (u64, i64, String) {
    match stage {
        Stage::Load {
            fields,
            elements_per_field,
            beats_per_field,
        }
        | Stage::Write {
            fields,
            elements_per_field,
            beats_per_field,
        } => (
            *elements_per_field,
            1,
            format!("{fields} field(s), {beats_per_field} beats each"),
        ),
        Stage::Shift {
            register_len,
            elements,
            windows,
        } => (
            *elements,
            1,
            format!("register {register_len} elems, {windows} windows"),
        ),
        Stage::Dup { copies, trips, .. } => (*trips, 1, format!("fan-out x{copies}")),
        Stage::Compute { ii, trips, ops, .. } => (
            *trips,
            *ii,
            format!(
                "{} fadd, {} fmul, {} fdiv, {} misc",
                ops.fadd, ops.fmul, ops.fdiv, ops.fmisc
            ),
        ),
        Stage::Merge {
            interior,
            bounded,
            ring,
        } => (
            *bounded,
            1,
            format!("{interior} interior + {ring} ring elems"),
        ),
    }
}

fn utilization(
    out: &mut String,
    design: &DesignDescriptor,
    device: &Device,
    costs: &CostTable,
    cus: u32,
) {
    let usage = resources::estimate(design, costs, cus);
    writeln!(out, "+ Utilization Estimates (all CUs)").unwrap();
    writeln!(
        out,
        "  {:<8} {:>12} {:>12} {:>8}",
        "resource", "used", "available", "util%"
    )
    .unwrap();
    for (name, used, avail) in [
        ("LUT", usage.luts, device.luts),
        ("FF", usage.ffs, device.ffs),
        ("BRAM36", usage.bram36, device.bram36),
        ("URAM", usage.uram, device.uram),
        ("DSP", usage.dsps, device.dsps),
    ] {
        let util = 100.0 * used as f64 / avail as f64;
        writeln!(out, "  {name:<8} {used:>12} {avail:>12} {util:>7.2}%").unwrap();
    }
    writeln!(out).unwrap();
}

fn interfaces(out: &mut String, design: &DesignDescriptor) {
    writeln!(out, "+ Interfaces").unwrap();
    for (protocol, bundle) in &design.interfaces {
        writeln!(out, "  {protocol:<10} bundle={bundle}").unwrap();
    }
    writeln!(out).unwrap();
}

fn streams(out: &mut String, design: &DesignDescriptor) {
    let widest = design.streams.iter().map(|s| s.elem_bytes).max();
    writeln!(out, "+ Streams").unwrap();
    writeln!(
        out,
        "  {} FIFOs, {} bytes total storage, widest element {} bytes",
        design.streams.len(),
        design.fifo_bytes(),
        widest.unwrap_or(0)
    )
    .unwrap();
    writeln!(
        out,
        "  shift registers: {} bytes; local copies: {} bytes",
        design.shift_register_bytes(),
        design.local_buffer_bytes.iter().sum::<u64>()
    )
    .unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions, TargetPath};

    /// The whole report for PW advection at 16×12×8 on four CUs.
    const PW_16X12X8_CUS4: &str = "\
== Synthesis Report: pw_advection_hls ==
* Target device : Alveo U280
* Clock target  : 300 MHz (3.33 ns)
* Compute units : 4

+ Performance Estimates
  Overall latency: 950 cycles (0.003 ms), throughput 485.1 MPt/s
  Steady state 630 + fill 320 cycles; bottleneck: load[0]

+ Dataflow Stages
  #    kind         trip count   II               detail
  0    load               2520    1 3 field(s), 315 beats each
  1    shift              2520    1 register 303 elems, 1536 windows
  2    shift              2520    1 register 303 elems, 1536 windows
  3    shift              2520    1 register 303 elems, 1536 windows
  4    dup                1536    1           fan-out x3
  5    dup                1536    1           fan-out x3
  6    dup                1536    1           fan-out x3
  7    compute            1536    1 11 fadd, 10 fmul, 0 fdiv, 0 misc
  8    compute            1536    1 11 fadd, 10 fmul, 0 fdiv, 0 misc
  9    compute            1536    1 11 fadd, 10 fmul, 0 fdiv, 0 misc
  10   write              1536    1 3 field(s), 192 beats each

+ Utilization Estimates (all CUs)
  resource         used    available    util%
  LUT            110016      1303680    8.44%
  FF             171480      2607360    6.58%
  BRAM36             84         2016    4.17%
  URAM                0          960    0.00%
  DSP              1596         9024   17.69%

+ Interfaces
  m_axi      bundle=gmem0
  m_axi      bundle=gmem1
  m_axi      bundle=gmem2
  m_axi      bundle=gmem3
  m_axi      bundle=gmem4
  m_axi      bundle=gmem5
  m_axi      bundle=gmem_small
  m_axi      bundle=gmem_small
  m_axi      bundle=gmem_small
  m_axi      bundle=gmem_small
  s_axilite  bundle=control
  s_axilite  bundle=control

+ Streams
  18 FIFOs, 21120 bytes total storage, widest element 216 bytes
  shift registers: 7272 bytes; local copies: 480 bytes
";

    #[test]
    fn report_contains_all_sections() {
        let opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        let compiled = compile(&shmls_kernels::pw_advection::source(16, 12, 8), &opts).unwrap();
        let report = render(
            &compiled.design,
            &Device::u280(),
            &CostTable::default_f64(),
            4,
        );
        assert_eq!(report, PW_16X12X8_CUS4);
        for needle in [
            "Synthesis Report: pw_advection_hls",
            "Compute units : 4",
            "Performance Estimates",
            "Dataflow Stages",
            "Utilization Estimates",
            "Interfaces",
            "Streams",
            "bottleneck",
            "m_axi",
            "compute",
            "shift",
        ] {
            assert!(report.contains(needle), "missing `{needle}`:\n{report}");
        }
        // One row per stage (digit index followed by a stage kind).
        let kinds = ["load", "shift", "dup", "compute", "write"];
        let stage_rows = report
            .lines()
            .filter(|l| {
                let mut parts = l.split_whitespace();
                matches!(
                    (parts.next(), parts.next()),
                    (Some(idx), Some(kind))
                        if idx.chars().all(|c| c.is_ascii_digit())
                            && kinds.contains(&kind)
                )
            })
            .count();
        assert_eq!(stage_rows, compiled.design.stages.len());
    }
}
