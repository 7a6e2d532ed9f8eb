//! Mode-ordering property (paper §3): wherever all three approach
//! families are defined for a task, their bounds are ordered
//! `solo ≤ joint ≤ isolated` — solo assumes no interference at all,
//! joint charges exactly the declared co-runners, isolation charges the
//! worst co-runners imaginable. Checked on synthesized random programs
//! across machine geometries and arbiter kinds.

use proptest::prelude::*;
use wcet_toolkit::arbiter::ArbiterKind;
use wcet_toolkit::core::analyzer::Analyzer;
use wcet_toolkit::core::engine::AnalysisEngine;
use wcet_toolkit::core::mode::{Isolated, JointRefs, Solo};
use wcet_toolkit::ir::synth::{random_program, Placement, RandomParams};
use wcet_toolkit::sim::config::MachineConfig;

/// Small machine sampler: 2 or 4 cores, varying arbiter.
fn machine(mseed: u64) -> MachineConfig {
    let cores = if mseed.is_multiple_of(2) { 2 } else { 4 };
    let mut m = MachineConfig::symmetric(cores);
    match (mseed / 2) % 3 {
        0 => m.bus.arbiter = ArbiterKind::RoundRobin,
        1 => {
            m.bus.arbiter = ArbiterKind::TdmaEqual {
                slot_len: m.bus.transfer + 1,
            }
        }
        _ => {
            m.bus.arbiter = ArbiterKind::Mbba {
                weights: vec![1; m.total_threads()],
                slot_len: m.bus.transfer,
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn solo_le_joint_le_isolated(seed in 0u64..2_000, mseed in 0u64..6) {
        let m = machine(mseed);
        let an = Analyzer::new(m);
        let victim = random_program(seed, RandomParams::default(), Placement::slot(0));
        let bully =
            random_program(seed ^ 0x9e37, RandomParams::default(), Placement::slot(1));
        let fp = an.l2_footprint(&bully, 1).expect("analyses");
        let solo = an.wcet_solo(&victim, 0, 0).expect("analyses").wcet;
        let joint = an.wcet_joint(&victim, 0, 0, &[&fp]).expect("analyses").wcet;
        let iso = an.wcet_isolated(&victim, 0, 0).expect("analyses").wcet;
        prop_assert!(solo <= joint, "solo {solo} > joint {joint} (seed {seed}/{mseed})");
        prop_assert!(joint <= iso, "joint {joint} > isolated {iso} (seed {seed}/{mseed})");
    }

    /// The same ordering holds through the memoizing engine, and the
    /// engine agrees with the analyzer on every mode.
    #[test]
    fn ordering_survives_the_engine(seed in 0u64..2_000) {
        let m = machine(seed % 6);
        let engine = AnalysisEngine::new(m.clone());
        let an = Analyzer::new(m);
        let victim = random_program(seed, RandomParams::default(), Placement::slot(0));
        let bully =
            random_program(seed ^ 0x517c_c1b7, RandomParams::default(), Placement::slot(1));
        let fp = engine.l2_footprint(&bully, 1).expect("analyses");
        let solo = engine.analyze(&victim, 0, 0, &Solo).expect("analyses");
        let joint = engine.analyze(&victim, 0, 0, &JointRefs(&[&fp])).expect("analyses");
        let iso = engine.analyze(&victim, 0, 0, &Isolated).expect("analyses");
        prop_assert!(solo.wcet <= joint.wcet);
        prop_assert!(joint.wcet <= iso.wcet);
        prop_assert_eq!(solo, an.wcet_solo(&victim, 0, 0).expect("analyses"));
        prop_assert_eq!(joint, an.wcet_joint(&victim, 0, 0, &[&fp]).expect("analyses"));
        prop_assert_eq!(iso, an.wcet_isolated(&victim, 0, 0).expect("analyses"));
    }
}
