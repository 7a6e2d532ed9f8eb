//! Campaign-pipeline bench: the scenario runner (lazy Gray expansion +
//! work stealing + neighbour-incremental analysis) on one matrix,
//! streamed with one and four workers, and collected into a
//! materialized run (one worker, every cell kept in expansion order).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wcet_bench::scenario::{parse_matrix, run_campaign, CampaignOptions, ScenarioMatrix};

/// A mid-size slice of the campaign shape: every delta class (cycle
/// limit, bus/timing, full) is exercised, small enough for criterion.
fn bench_matrix() -> ScenarioMatrix {
    parse_matrix(
        "name = bench\ncores = 2\narbiter = [rr, tdma:32, wheel:32]\n\
         transfer = [8, 16]\nmem_latency = [20, 40]\n\
         l2_geom = 128x4x32@4\nl2 = [shared, none]\nmode = [isolated, joint]\n\
         cycle_limit = [100000, 200000, 300000]\ntasks = \"fir:2x4 crc:16\"\n",
    )
    .expect("bench matrix parses")
}

fn bench_campaign(c: &mut Criterion) {
    let matrix = bench_matrix();
    let mut g = c.benchmark_group("streaming_vs_materialized");
    g.sample_size(10);
    g.bench_function("materialized", |b| {
        b.iter(|| {
            run_campaign(
                &matrix,
                &CampaignOptions {
                    threads: 1,
                    keep_cells: true,
                    ..CampaignOptions::default()
                },
            )
            .cells
            .len()
        })
    });
    for threads in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("streaming", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_campaign(
                        &matrix,
                        &CampaignOptions {
                            threads,
                            ..CampaignOptions::default()
                        },
                    )
                    .unique
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
