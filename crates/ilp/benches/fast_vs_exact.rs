//! The two-tier kernel's headline claim, measured: the certified f64
//! path (`solve_lp` / `solve_ilp`) against the exact tier alone
//! (`solve_lp_exact`) on phase-1-heavy LP shapes. CI runs this file with
//! `--test` (criterion smoke mode) so it can never bit-rot; both paths
//! are also asserted to agree before timing starts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcet_ilp::{solve_lp, solve_lp_exact, CmpOp, LinExpr, LpModel};

/// A transportation-shaped LP (supply `<=` rows, demand `>=` rows so
/// phase 1 does real work), the same shape `benches/ilp.rs` in
/// `wcet-bench` uses for its sparse-vs-dense group.
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

fn bench_fast_vs_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast_vs_exact");
    g.sample_size(10);
    for n in [4usize, 8, 12] {
        let model = transport_model(n);
        let fast = solve_lp(&model);
        let exact = solve_lp_exact(&model);
        assert_eq!(fast.objective, exact.objective, "tiers disagree on n={n}");
        assert_eq!(fast.stats.fallbacks, 0, "transport LP should certify");
        g.bench_with_input(BenchmarkId::new("certified", n), &n, |b, _| {
            b.iter(|| solve_lp(&model).objective)
        });
        g.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| solve_lp_exact(&model).objective)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fast_vs_exact);
criterion_main!(benches);
