//! Synthesis-report generation: a Vitis-HLS-style text report for a
//! compiled design (the artefact an FPGA engineer reads after `v++`
//! synthesis — loop latencies, initiation intervals, resource estimates,
//! interface summary).
//!
//! Everything in the report derives from the same models the evaluation
//! uses ([`shmls_fpga_sim::perf`], [`shmls_fpga_sim::resources`],
//! [`shmls_fpga_sim::cycle`]), so the report doubles as a human-readable
//! cross-section of the design descriptor.

use shmls_fpga_sim::design::{DesignDescriptor, Stage};
use shmls_fpga_sim::device::{CostTable, Device};
use shmls_fpga_sim::perf::hmls_estimate;
use shmls_fpga_sim::resources;

/// Render the synthesis report for `design` deployed with `cus` compute
/// units on `device`.
pub fn render(design: &DesignDescriptor, device: &Device, costs: &CostTable, cus: u32) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let perf = hmls_estimate(design, device, cus);
    let usage = resources::estimate(design, costs, cus);
    let pct = usage.percentages(device);

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

    writeln!(out, "+ Dataflow Stages").unwrap();
    writeln!(
        out,
        "  {:<4} {:<10} {:>12} {:>4} {:>20}",
        "#", "kind", "trip count", "II", "detail"
    )
    .unwrap();
    for (i, stage) in design.stages.iter().enumerate() {
        let (kind, trips, ii, detail) = match stage {
            Stage::Load {
                fields,
                elements_per_field,
                beats_per_field,
            } => (
                "load",
                *elements_per_field,
                1,
                format!("{fields} field(s), {beats_per_field} beats each"),
            ),
            Stage::Shift {
                register_len,
                elements,
                windows,
            } => (
                "shift",
                *elements,
                1,
                format!("register {register_len} elems, {windows} windows"),
            ),
            Stage::Dup { copies, trips, .. } => ("dup", *trips, 1, format!("fan-out x{copies}")),
            Stage::Compute { ii, trips, ops, .. } => (
                "compute",
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
                "merge",
                *bounded,
                1,
                format!("{interior} interior + {ring} ring elems"),
            ),
            Stage::Write {
                fields,
                elements_per_field,
                beats_per_field,
            } => (
                "write",
                *elements_per_field,
                1,
                format!("{fields} field(s), {beats_per_field} beats each"),
            ),
        };
        writeln!(out, "  {i:<4} {kind:<10} {trips:>12} {ii:>4} {detail:>20}").unwrap();
    }
    writeln!(out).unwrap();

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
        writeln!(
            out,
            "  {:<8} {:>12} {:>12} {:>7.2}%",
            name,
            used,
            avail,
            100.0 * used as f64 / avail as f64
        )
        .unwrap();
    }
    let _ = pct;
    writeln!(out).unwrap();

    writeln!(out, "+ Interfaces").unwrap();
    for (protocol, bundle) in &design.interfaces {
        writeln!(out, "  {protocol:<10} bundle={bundle}").unwrap();
    }
    writeln!(out).unwrap();

    writeln!(out, "+ Streams").unwrap();
    writeln!(
        out,
        "  {} FIFOs, {} bytes total storage, widest element {} bytes",
        design.streams.len(),
        design.fifo_bytes(),
        design
            .streams
            .iter()
            .map(|s| s.elem_bytes)
            .max()
            .unwrap_or(0)
    )
    .unwrap();
    writeln!(
        out,
        "  shift registers: {} bytes; local copies: {} bytes",
        design.shift_register_bytes(),
        design.local_buffer_bytes.iter().sum::<u64>()
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions, TargetPath};

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
