//! The IPET flow system on a loop headed by the entry block.
//!
//! No generated program has one, so only this file reaches the terms the
//! flow system writes on the entry flow `f_entry` for such a loop: the
//! loop-bound rows (`Σ back − bound·f_entry`) and the persistence extra
//! charged once per loop entry. The loop is counted exactly, so the WCET,
//! the BCET and a one-thread yield graph must all agree on its one path.

use std::collections::BTreeMap;

use wcet_core::{bcet_ipet, joint_yield_wcet, wcet_ipet, IpetOptions};
use wcet_ilp::IlpConfig;
use wcet_ir::builder::CfgBuilder;
use wcet_ir::isa::r;
use wcet_ir::{AluOp, BlockId, Cond, FlowFacts, Instr, Layout, Operand, Program, Terminator};
use wcet_pipeline::cost::BlockCosts;

const ITERATIONS: u64 = 5;

/// `header` (the entry block) → `body` → back to `header`, exactly
/// [`ITERATIONS`] times, then `exit`. Returns the program and its header
/// and body blocks.
fn entry_headed_loop() -> (Program, BlockId, BlockId) {
    let mut cb = CfgBuilder::new();
    let header = cb.add_block();
    let body = cb.add_block();
    let exit = cb.add_block();
    cb.terminate(
        header,
        Terminator::Branch {
            cond: Cond::Lt,
            lhs: r(1),
            rhs: Operand::Imm(ITERATIONS as i64),
            taken: body,
            not_taken: exit,
        },
    );
    cb.push(body, Instr::Nop);
    cb.push(
        body,
        Instr::Alu {
            op: AluOp::Add,
            dst: r(1),
            lhs: r(1),
            rhs: 1.into(),
        },
    );
    cb.terminate(body, Terminator::Jump(header));
    cb.terminate(exit, Terminator::Return);
    let cfg = cb.build(header).expect("valid CFG");
    let mut facts = FlowFacts::new();
    facts.set_exact_bound(header, ITERATIONS);
    let program = Program::new("entry-loop", cfg, facts, Layout::default()).expect("valid program");
    assert!(
        program.loops().headed_by(header).is_some(),
        "the entry block heads the loop"
    );
    (program, header, body)
}

/// Cost = fetch slots per block, with a non-zero startup.
fn slot_costs(p: &Program) -> BlockCosts {
    BlockCosts {
        base: p
            .cfg()
            .iter()
            .map(|(b, blk)| (b, blk.fetch_slots() as u64))
            .collect(),
        loop_entry_extras: BTreeMap::new(),
        startup: 7,
    }
}

#[test]
fn a_loop_headed_by_the_entry_block_is_bounded_through_the_entry_flow() {
    let (p, header, body) = entry_headed_loop();
    let mut costs = slot_costs(&p);
    let wcet = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
    assert_eq!(wcet.block_counts[&body], ITERATIONS);

    // An exact bound leaves one path: the best case is the worst case.
    let bcet = bcet_ipet(&p, &costs, IlpConfig::default()).expect("solves");
    assert_eq!(bcet, wcet.wcet);

    // The loop is entered once, through the entry flow alone.
    costs.loop_entry_extras.insert(header, 40);
    let with_extra = wcet_ipet(&p, &costs, &IpetOptions::default()).expect("solves");
    assert_eq!(with_extra.wcet, wcet.wcet + 40);

    // One thread without switch costs is the plain IPET bound.
    let joint = joint_yield_wcet(&[&p], &[&costs], 0, IlpConfig::default()).expect("solves");
    assert_eq!(joint.yield_edges, 0);
    assert_eq!(joint.wcet, with_extra.wcet);
}
