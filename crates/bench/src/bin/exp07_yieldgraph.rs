//! E07 (paper §5.1, Crowley & Baer \[7\]): the global yield-graph ILP
//! bounds the simulated makespan, but its model grows with thread count
//! and yield sites — the paper's scalability verdict. Body in
//! [`wcet_bench::experiments::exp07`] (shared with the in-process
//! `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp07();
}
