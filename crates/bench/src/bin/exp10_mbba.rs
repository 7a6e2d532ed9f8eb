//! E10 (paper §5.3, Bourgade et al. \[2\]): the multi-bandwidth bus
//! arbiter — under heterogeneous memory demand, a larger bandwidth share
//! for the memory-hungry core beats uniform round-robin. Body in
//! [`wcet_bench::experiments::exp10`] (shared with the in-process
//! `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp10();
}
