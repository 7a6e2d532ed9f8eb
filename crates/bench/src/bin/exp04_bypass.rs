//! E04 (paper §4.1, Hardy et al. \[12\]): single-usage L2 bypass — lines
//! used at most once stop polluting the shared L2, shrinking both the
//! interference a task *exerts* and the WCET of its victims. Body in
//! [`wcet_bench::experiments::exp04`] (shared with the in-process
//! `run_all` driver).

fn main() {
    let _ = wcet_bench::experiments::exp04();
}
