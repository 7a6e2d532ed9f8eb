//! E13 (paper §6, Schranzhofer et al. \[36\]): resource access models —
//! dedicated access phases amortise TDMA slot waits, and the advantage
//! grows with slot length. Body in [`wcet_bench::experiments::exp13`]
//! (shared with the in-process `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp13();
}
