//! One name per stage: a design that deadlocks because its FIFOs are too
//! shallow is reported by the threaded engine (which runs the IR) and by the
//! cycle engine (which steps the descriptor) with the same stage labels —
//! both read [`Stage::label`](shmls_fpga_sim::design::Stage::label) — and a
//! dup stage is `dup` to both.

use shmls_dialects::builtin::create_module;
use shmls_dialects::{arith, func, hls, scf};
use shmls_fpga_sim::cycle::simulate;
use shmls_fpga_sim::deadlock::{DeadlockReport, StageStatus};
use shmls_fpga_sim::design::DesignDescriptor;
use shmls_fpga_sim::threaded::{execute, Outcome, Schedule};
use shmls_ir::builder::OpBuilder;
use shmls_ir::prelude::*;

/// Append one `0..trips` loop stage whose body `body` fills.
fn loop_stage(
    ctx: &mut Context,
    entry: BlockId,
    trips: i64,
    body: impl FnOnce(&mut OpBuilder<'_>),
) {
    let (_stage, stage_body) = hls::dataflow(&mut OpBuilder::at_block_end(ctx, entry));
    let mut b = OpBuilder::at_block_end(ctx, stage_body);
    let lb = arith::constant_index(&mut b, 0);
    let ub = arith::constant_index(&mut b, trips);
    let step = arith::constant_index(&mut b, 1);
    let (_for_op, loop_body) = scf::for_loop(&mut b, lb, ub, step, vec![]);
    let mut b = OpBuilder::at_block_end(ctx, loop_body);
    hls::pipeline(&mut b, 1);
    body(&mut b);
    scf::yield_op(&mut b, vec![]);
}

/// producer → dup → join, where the join's single iteration pops all
/// `TOKENS` values of one copy before the first of the other: the dup can
/// only get that far ahead on the second copy if its FIFO holds `TOKENS`.
fn fork_join(depth: i64) -> (Context, OpId, OpId) {
    const TOKENS: i64 = 4;
    let mut ctx = Context::new();
    let (module, top) = create_module(&mut ctx);
    let (f, entry) = func::create_func(&mut ctx, top, "k", vec![], vec![]);
    let mut b = OpBuilder::at_block_end(&mut ctx, entry);
    let s: Vec<ValueId> = (0..3)
        .map(|_| hls::create_stream(&mut b, Type::F64, depth))
        .collect();
    loop_stage(&mut ctx, entry, TOKENS, |b| {
        let v = arith::constant_f64(b, 1.5);
        hls::write(b, v, s[0]);
    });
    loop_stage(&mut ctx, entry, TOKENS, |b| {
        let v = hls::read(b, s[0]);
        hls::write(b, v, s[1]);
        hls::write(b, v, s[2]);
    });
    loop_stage(&mut ctx, entry, 1, |b| {
        for copy in [s[1], s[2]] {
            for _ in 0..TOKENS {
                hls::read(b, copy);
            }
        }
    });
    func::ret(&mut OpBuilder::at_block_end(&mut ctx, entry), vec![]);
    (ctx, module, f)
}

fn threaded(ctx: &Context, module: OpId) -> Option<Box<DeadlockReport>> {
    match execute(ctx, module, "k", |_| vec![], Schedule::Threaded).unwrap() {
        Outcome::Completed { .. } => None,
        Outcome::Deadlock { report } => Some(report),
    }
}

#[test]
fn an_under_depth_design_deadlocks_on_both_engines_under_the_same_stage_names() {
    let (ctx, module, f) = fork_join(2);
    let design = DesignDescriptor::from_hls_func(&ctx, f).unwrap();
    let stepped = simulate(&design, None).expect_err("depth 2 cannot hold 4 tokens");
    let ran = threaded(&ctx, module).expect("depth 2 cannot hold 4 tokens");

    let names = |report: &DeadlockReport| -> Vec<String> {
        report.stages.iter().map(|s| s.stage.clone()).collect()
    };
    assert_eq!(
        names(&stepped),
        ["stage0:compute", "stage1:dup", "stage2:compute"]
    );
    assert_eq!(names(&ran), names(&stepped));
    // Both see the join starved of the first copy and the dup unable to
    // push past it.
    for report in [&stepped, &ran] {
        assert_eq!(
            report.stages[2].status,
            StageStatus::BlockedOnPop { stream: 1 }
        );
        assert!(
            matches!(report.stages[1].status, StageStatus::BlockedOnPush { .. }),
            "{report}"
        );
        assert!(report.to_string().contains("stage1:dup"), "{report}");
    }
}

#[test]
fn the_same_design_completes_at_sufficient_depth() {
    let (ctx, module, f) = fork_join(4);
    let design = DesignDescriptor::from_hls_func(&ctx, f).unwrap();
    simulate(&design, None).expect("depth 4 holds every token");
    assert!(threaded(&ctx, module).is_none());
}
