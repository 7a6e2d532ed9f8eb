//! Analysis-cost bench: exact rational ILP solving (the IPET backend).
//!
//! Tracks the two claims of the sparse-revised-simplex refactor:
//! `lp_sparse_vs_dense` (per-solve cost against the preserved dense
//! oracle) and `ipet_warm_vs_cold` (the warm-start payoff on an
//! objective sweep over one flow system, the exp02/exp05/exp06 shape).
//! CI runs this file with `--test` (criterion smoke mode) so it can
//! never bit-rot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcet_core::{wcet_ipet, wcet_ipet_ctx, IpetOptions, SolveContext};
use wcet_ilp::{solve_lp, solve_lp_dense, CmpOp, LinExpr, LpModel};
use wcet_ir::synth::{matmul, Placement};
use wcet_pipeline::cost::BlockCosts;

fn slot_costs(p: &wcet_ir::Program) -> BlockCosts {
    BlockCosts {
        base: p
            .cfg()
            .iter()
            .map(|(b, blk)| (b, blk.fetch_slots() as u64))
            .collect(),
        loop_entry_extras: std::collections::BTreeMap::new(),
        startup: 4,
    }
}

fn bench_ipet_ilp(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipet_ilp");
    g.sample_size(10);
    for n in [2u32, 4, 8] {
        let p = matmul(n, Placement::default());
        let costs = slot_costs(&p);
        g.bench_with_input(BenchmarkId::new("matmul", n), &n, |b, _| {
            b.iter(|| {
                wcet_ipet(&p, &costs, &IpetOptions::default())
                    .expect("solves")
                    .wcet
            })
        });
    }
    g.finish();
}

/// Cold vs warm: the same task solved under 8 scaled cost models — the
/// interference-sweep access pattern. Cold pays phase 1 per point; warm
/// pays it once and replays the cached basis for the rest.
fn bench_ipet_warm_vs_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipet_warm_vs_cold");
    g.sample_size(10);
    let p = matmul(8, Placement::default());
    let sweep: Vec<BlockCosts> = (1u64..=8)
        .map(|k| {
            let mut costs = slot_costs(&p);
            for c in costs.base.values_mut() {
                *c = *c * k + k;
            }
            costs
        })
        .collect();
    let opts = IpetOptions::default();
    g.bench_function("cold_sweep8", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(|costs| wcet_ipet(&p, costs, &opts).expect("solves").wcet)
                .sum::<u64>()
        })
    });
    g.bench_function("warm_sweep8", |b| {
        b.iter(|| {
            let ctx = SolveContext::new();
            sweep
                .iter()
                .map(|costs| wcet_ipet_ctx(&p, costs, &opts, &ctx).expect("solves").wcet)
                .sum::<u64>()
        })
    });
    g.finish();
}

/// A transportation-shaped LP (structured like a flow problem, with
/// `>=` rows so phase 1 runs) pitting the sparse revised solver against
/// the preserved dense-tableau oracle.
fn transport_model(n: usize) -> LpModel {
    let mut m = LpModel::new();
    let vars: Vec<Vec<_>> = (0..n)
        .map(|_| (0..n).map(|_| m.add_var()).collect())
        .collect();
    for (i, row) in vars.iter().enumerate() {
        let mut supply = LinExpr::new();
        for &v in row {
            supply.add_term(v, 1);
        }
        m.add_constraint(supply, CmpOp::Le, 10 + i as i64);
    }
    for j in 0..n {
        let mut demand = LinExpr::new();
        for row in &vars {
            demand.add_term(row[j], 1);
        }
        m.add_constraint(demand, CmpOp::Ge, 3 + (j % 3) as i64);
    }
    let mut obj = LinExpr::new();
    for (i, row) in vars.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            obj.add_term(v, -(((i * 7 + j * 3) % 11) as i64 + 1));
        }
    }
    m.set_objective(obj);
    m
}

fn bench_lp_sparse_vs_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_sparse_vs_dense");
    g.sample_size(10);
    let model = transport_model(8);
    // Both must find the same optimum (also asserted by the proptest
    // differential suite; cheap to keep honest here too).
    assert_eq!(solve_lp(&model).objective, solve_lp_dense(&model).objective);
    g.bench_function("sparse", |b| b.iter(|| solve_lp(&model).objective));
    g.bench_function("dense", |b| b.iter(|| solve_lp_dense(&model).objective));
    g.finish();
}

criterion_group!(
    benches,
    bench_ipet_ilp,
    bench_ipet_warm_vs_cold,
    bench_lp_sparse_vs_dense
);
criterion_main!(benches);
