//! E06 (paper §4.2, Paolieri et al. \[23\]): columnization (way
//! partitioning) vs bankization (bank partitioning) — same per-core
//! capacity, but bankization preserves associativity and yields tighter
//! WCETs. Body in [`wcet_bench::experiments::exp06`] (shared with the
//! in-process `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp06();
}
