//! Design-space exploration: the port-bundling heuristic the paper calls
//! for in §4.
//!
//!> *"Whilst some ports could have been bundled together for the tracer
//! > advection benchmark to reduce the number of ports of each CU … this
//! > bundling would affect performance and heuristics would likely be
//! > required by our transformation to identify when to combine bundles."*
//!
//! This module implements exactly that heuristic: it sweeps the number of
//! field ports folded into one shared AXI bundle, models the effect on both
//! sides of the trade —
//!
//! - fewer ports per CU ⇒ more compute units fit the shell's 32-port
//!   budget ⇒ domain-decomposed speed-up, versus
//! - the shared bundle serialising its members' traffic ⇒ the load/write
//!   stages slow down once the bundle carries more beats per point than
//!   the pipeline consumes —
//!
//! and returns every evaluated configuration with the best one marked.

use shmls_fpga_sim::design::{DesignDescriptor, Stage};
use shmls_fpga_sim::device::{CostTable, Device};
use shmls_fpga_sim::perf::{hmls_estimate, STAGE_FILL_CYCLES};
use shmls_fpga_sim::resources::{self, ResourceUsage};

/// One evaluated bundling configuration.
#[derive(Debug, Clone)]
pub struct BundlingChoice {
    /// Field ports folded into the shared bundle (0 = the paper's default:
    /// every field on its own port).
    pub bundled_fields: usize,
    /// AXI master ports each CU needs under this configuration.
    pub ports_per_cu: usize,
    /// Compute units the 32-port shell budget then allows.
    pub cus: u32,
    /// Modelled throughput.
    pub mpts: f64,
    /// Modelled kernel cycles.
    pub cycles: u64,
    /// Whether the replicated design fits the device.
    pub fits: bool,
    /// Resources of the full deployment.
    pub resources: ResourceUsage,
}

/// The exploration result: all configurations plus the index of the best
/// *feasible* one.
#[derive(Debug, Clone)]
pub struct BundlingExploration {
    /// Every swept configuration, in increasing `bundled_fields` order.
    pub choices: Vec<BundlingChoice>,
    /// Index of the feasible configuration with the highest throughput,
    /// or `None` when no swept configuration fits the device.
    pub best: Option<usize>,
}

impl BundlingExploration {
    /// The winning configuration, when any swept configuration fits.
    pub fn best_choice(&self) -> Option<&BundlingChoice> {
        self.best.map(|i| &self.choices[i])
    }
}

/// Sweep shared-bundle sizes for `design` on `device`.
///
/// `bundled_fields = b` means `b` of the design's field ports share one
/// physical bundle (the small-data bundle stays separate, as in step 9).
pub fn explore_port_bundling(
    design: &DesignDescriptor,
    device: &Device,
    costs: &CostTable,
) -> BundlingExploration {
    let total_field_ports = design
        .interfaces
        .iter()
        .filter(|(p, b)| p == "m_axi" && !b.ends_with("_small"))
        .count();
    let has_small = design.interfaces.iter().any(|(_, b)| b.ends_with("_small"));

    let mut choices = Vec::new();
    for bundled in 0..=total_field_ports.saturating_sub(1) {
        let private_ports = total_field_ports - bundled;
        let shared_ports = usize::from(bundled > 0) + usize::from(has_small);
        let ports_per_cu = private_ports + shared_ports;
        let cus = ((device.max_axi_ports as usize) / ports_per_cu.max(1)).max(1) as u32;
        let (cycles, mpts) = estimate_bundled(design, device, cus, bundled);
        let resources = resources_with_ports(design, costs, cus, ports_per_cu);
        choices.push(BundlingChoice {
            bundled_fields: bundled,
            ports_per_cu,
            cus,
            mpts,
            cycles,
            fits: resources.fits(device),
            resources,
        });
    }
    let best = choices
        .iter()
        .enumerate()
        .filter(|(_, c)| c.fits)
        .max_by(|(_, a), (_, b)| a.mpts.total_cmp(&b.mpts))
        .map(|(i, _)| i);
    BundlingExploration { choices, best }
}

/// Performance with `bundled` field ports sharing one physical port: the
/// shared port serialises its members' beats, which adds a potential
/// bottleneck stage on top of the normal estimate. Shared with the joint
/// autotuner (`crate::autotune`), which sweeps the same bundling axis.
pub(crate) fn estimate_bundled(
    design: &DesignDescriptor,
    device: &Device,
    cus: u32,
    bundled: usize,
) -> (u64, f64) {
    let base = hmls_estimate(design, device, cus);
    if bundled <= 1 {
        return (base.cycles, base.mpts);
    }
    // Beats per field through the load/write stages, per CU. A shared
    // port additionally pays a burst-interleaving penalty: its members'
    // bursts alternate, so the effective bank rate degrades with the
    // member count (this is the performance effect the paper anticipated
    // when it chose not to bundle without a heuristic).
    let bank_rate = device.beats_per_cycle_per_bank();
    let arbitration_efficiency = 1.0 / (1.0 + 0.15 * (bundled as f64 - 1.0));
    let shared_rate = bank_rate * arbitration_efficiency;
    let mut shared_cycles: u64 = 0;
    for stage in &design.stages {
        if let Stage::Load {
            beats_per_field, ..
        }
        | Stage::Write {
            beats_per_field, ..
        } = stage
        {
            // Up to `bundled` of this stage's fields ride the shared port.
            let shared_beats = *beats_per_field as f64 * bundled as f64 / cus as f64;
            shared_cycles = shared_cycles.max((shared_beats / shared_rate).ceil() as u64);
        }
    }
    let steady = base.steady_cycles.max(shared_cycles);
    let cycles = steady + base.fill_cycles + STAGE_FILL_CYCLES * bundled as u64;
    let seconds = device.cycles_to_seconds(cycles);
    let mpts = design.interior_points as f64 / seconds / 1.0e6;
    (cycles, mpts)
}

/// Resource estimate with the AXI port count overridden (bundling removes
/// physical protocol engines).
pub(crate) fn resources_with_ports(
    design: &DesignDescriptor,
    costs: &CostTable,
    cus: u32,
    ports_per_cu: usize,
) -> ResourceUsage {
    let mut per_cu = resources::estimate_cu(design, costs, cus as u64);
    let original_ports = design.axi_ports() as u64;
    let new_ports = ports_per_cu as u64;
    // Swap the port engines priced by estimate_cu.
    per_cu.luts =
        per_cu.luts - original_ports * costs.axi_port.luts + new_ports * costs.axi_port.luts;
    per_cu.ffs = per_cu.ffs - original_ports * costs.axi_port.ffs + new_ports * costs.axi_port.ffs;
    per_cu.scaled(cus as u64)
}

/// Render the exploration as a table (for the `repro dse` command).
pub fn render(kernel_name: &str, exploration: &BundlingExploration) -> String {
    use std::fmt::Write;
    let mut out = format!(
        "Port-bundling DSE for {kernel_name} (the §4 future-work heuristic)\n\
         ================================================================\n\
         {:<9} {:>9} {:>5} {:>10} {:>7} {:>6}\n",
        "bundled", "ports/CU", "CUs", "MPt/s", "fits", "best"
    );
    for (i, c) in exploration.choices.iter().enumerate() {
        writeln!(
            out,
            "{:<9} {:>9} {:>5} {:>10.1} {:>7} {:>6}",
            c.bundled_fields,
            c.ports_per_cu,
            c.cus,
            c.mpts,
            if c.fits { "yes" } else { "NO" },
            if Some(i) == exploration.best {
                "<--"
            } else {
                ""
            },
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, CompileOptions, TargetPath};

    fn design_for(source: &str) -> DesignDescriptor {
        let opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        let compiled = compile(source, &opts).unwrap();
        DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func).unwrap()
    }

    #[test]
    fn tracer_bundling_unlocks_more_cus() {
        // The paper's own example: "reducing to 12 ports for the input and
        // output fields plus one bundled port for the rest of the
        // arguments would allow for 2 CUs".
        let design = design_for(&shmls_kernels::tracer_advection::source(256, 256, 128));
        let device = Device::u280();
        let costs = CostTable::default_f64();
        let exploration = explore_port_bundling(&design, &device, &costs);
        // Default: 17 ports, 1 CU.
        assert_eq!(exploration.choices[0].ports_per_cu, 17);
        assert_eq!(exploration.choices[0].cus, 1);
        // Bundling 5 field ports: 11 private + shared + small = 13 → 2 CUs.
        let c5 = &exploration.choices[5];
        assert_eq!(c5.cus, 2, "{c5:?}");
        // The heuristic finds a configuration at least as fast as the
        // paper's 1-CU deployment.
        let best = exploration.best_choice().expect("a feasible choice");
        assert!(
            best.mpts >= exploration.choices[0].mpts,
            "best {best:?} vs default {:?}",
            exploration.choices[0]
        );
        assert!(
            best.cus >= 2,
            "bundling should unlock CU replication: {best:?}"
        );
    }

    #[test]
    fn heavy_bundling_hits_the_shared_port() {
        let design = design_for(&shmls_kernels::tracer_advection::source(256, 256, 128));
        let device = Device::u280();
        let costs = CostTable::default_f64();
        let exploration = explore_port_bundling(&design, &device, &costs);
        // Folding *everything* into one bundle serialises all traffic: the
        // most aggressive bundling must not be the best choice.
        let last = exploration.choices.last().unwrap();
        let best = exploration.best_choice().expect("a feasible choice");
        assert!(best.bundled_fields < last.bundled_fields, "best {best:?}");
        // And the shared-port penalty is visible: max bundling is slower
        // per CU-normalised throughput than moderate bundling.
        let per_cu = |c: &BundlingChoice| c.mpts / c.cus as f64;
        assert!(
            per_cu(last) < per_cu(&exploration.choices[0]) * 1.01,
            "{last:?}"
        );
    }

    #[test]
    fn pw_advection_keeps_the_paper_deployment_competitive() {
        let design = design_for(&shmls_kernels::pw_advection::source(256, 256, 128));
        let device = Device::u280();
        let costs = CostTable::default_f64();
        let exploration = explore_port_bundling(&design, &device, &costs);
        // Paper default: 7 ports → 4 CUs.
        assert_eq!(exploration.choices[0].ports_per_cu, 7);
        assert_eq!(exploration.choices[0].cus, 4);
        // The best configuration is at least as fast.
        let best = exploration.best_choice().expect("a feasible choice");
        assert!(best.mpts >= exploration.choices[0].mpts * 0.99);
    }

    #[test]
    fn no_feasible_config_reports_none_instead_of_panicking() {
        // Regression: `best_choice` used to index `choices[0]` when
        // *nothing* fit (the filter left max_by empty and the index
        // defaulted to 0), silently presenting an infeasible design as
        // the winner — and the old `best: usize` could not say "none".
        let design = design_for(&shmls_kernels::pw_advection::source(64, 64, 32));
        let device = Device {
            luts: 0,
            ffs: 0,
            bram36: 0,
            uram: 0,
            dsps: 0,
            ..Device::u280()
        };
        let costs = CostTable::default_f64();
        let exploration = explore_port_bundling(&design, &device, &costs);
        assert!(exploration.choices.iter().all(|c| !c.fits));
        assert_eq!(exploration.best, None);
        assert!(exploration.best_choice().is_none());
        // Rendering an all-infeasible sweep marks no winner and does not
        // panic.
        let table = render("pw_advection", &exploration);
        assert!(!table.contains("<--"));
    }

    #[test]
    fn render_lists_every_choice() {
        let design = design_for(&shmls_kernels::pw_advection::source(64, 64, 32));
        let device = Device::u280();
        let costs = CostTable::default_f64();
        let exploration = explore_port_bundling(&design, &device, &costs);
        let table = render("pw_advection", &exploration);
        assert_eq!(table.lines().count(), 3 + exploration.choices.len());
        assert!(table.contains("<--"));
    }
}

// ---------------------------------------------------------------------
// Stream-depth exploration (driven by the cycle-stepped simulator)
// ---------------------------------------------------------------------

/// One evaluated uniform FIFO depth.
#[derive(Debug, Clone)]
pub struct DepthChoice {
    /// FIFO depth applied to every stream.
    pub depth: usize,
    /// Cycle-stepped makespan at this depth.
    pub cycles: u64,
    /// Slowdown versus the deepest depth swept.
    pub slowdown: f64,
    /// BRAM36 blocks the FIFOs of one CU would occupy at this depth.
    pub fifo_bram: u64,
}

/// Result of the depth sweep: all choices plus the recommended depth (the
/// smallest whose slowdown stays within `tolerance`).
#[derive(Debug, Clone)]
pub struct DepthExploration {
    /// Evaluated depths in increasing order.
    pub choices: Vec<DepthChoice>,
    /// Index of the recommendation.
    pub recommended: usize,
}

/// Sweep uniform FIFO depths through the cycle-stepped simulator and
/// recommend the shallowest depth within `tolerance` (e.g. `0.02` = 2%)
/// of the deepest configuration's makespan.
///
/// This answers the question the paper's runtime answers with a fixed
/// constant (`@llvm.fpga.set.stream.depth`): how deep do the FIFOs
/// actually need to be? The generated designs are rate-matched Kahn
/// networks, so the expected answer — and the asserted one — is "barely
/// deeper than a handshake".
pub fn explore_stream_depths(
    design: &DesignDescriptor,
    depths: &[usize],
    tolerance: f64,
) -> DepthExploration {
    assert!(!depths.is_empty());
    let mut choices: Vec<DepthChoice> = depths
        .iter()
        .map(|&depth| {
            // A depth that deadlocks is unusable: rank it infinitely slow
            // so it can never be recommended.
            let cycles = match shmls_fpga_sim::cycle::simulate(design, Some(depth)) {
                Ok(report) => report.cycles,
                Err(_) => u64::MAX,
            };
            let fifo_bram: u64 = design
                .streams
                .iter()
                .map(|s| shmls_fpga_sim::resources::bram_blocks(depth as u64 * s.elem_bytes))
                .sum();
            DepthChoice {
                depth,
                cycles,
                slowdown: 0.0,
                fifo_bram,
            }
        })
        .collect();
    let best_cycles = choices.iter().map(|c| c.cycles).min().unwrap_or(1).max(1);
    for c in &mut choices {
        c.slowdown = c.cycles as f64 / best_cycles as f64;
    }
    let recommended = choices
        .iter()
        .position(|c| c.slowdown <= 1.0 + tolerance)
        .unwrap_or(choices.len() - 1);
    DepthExploration {
        choices,
        recommended,
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;
    use crate::driver::{compile, CompileOptions, TargetPath};

    fn design_for(source: &str) -> DesignDescriptor {
        let opts = CompileOptions {
            paths: TargetPath::HlsOnly,
            ..Default::default()
        };
        let compiled = compile(source, &opts).unwrap();
        DesignDescriptor::from_hls_func(&compiled.ctx, compiled.hls_func).unwrap()
    }

    #[test]
    fn rate_matched_designs_need_shallow_fifos() {
        let design = design_for(&shmls_kernels::pw_advection::source(16, 14, 10));
        let e = explore_stream_depths(&design, &[1, 2, 4, 8, 16], 0.02);
        let rec = &e.choices[e.recommended];
        // A handshake-depth FIFO suffices on a rate-matched network.
        assert!(rec.depth <= 4, "recommended {rec:?}");
        // Depths are swept in order and cycles never increase with depth.
        for pair in e.choices.windows(2) {
            assert!(pair[0].depth < pair[1].depth);
            assert!(pair[0].cycles >= pair[1].cycles);
        }
        // FIFO storage grows with depth.
        assert!(e.choices.last().unwrap().fifo_bram >= e.choices[0].fifo_bram);
    }

    #[test]
    fn tracer_chain_also_tolerates_shallow_fifos() {
        let design = design_for(&shmls_kernels::tracer_advection::source(10, 8, 6));
        let e = explore_stream_depths(&design, &[1, 2, 8], 0.05);
        assert!(e.choices[e.recommended].depth <= 8);
        // Even depth 1 completes (deadlock-freedom at minimal buffering).
        assert!(e.choices[0].cycles > 0);
    }
}
