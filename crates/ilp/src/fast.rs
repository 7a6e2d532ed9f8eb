//! The speculative f64 tier of the two-tier LP kernel.
//!
//! A floating-point revised simplex runs over the same sparse standard
//! form as the exact solver, but keeps its basis inverse as an **eta
//! file** (product-form updates, periodically refactorized) instead of
//! an explicit dense `B⁻¹`, and pivots in `f64` instead of [`Rat`]. Its
//! only job is to *propose a terminal basis* and its point;
//! [`crate::certify`] then proves, in exact arithmetic, that the basis
//! is primal feasible and dual optimal. A certified basis yields the
//! exact optimum (the float point counts only once it has been rounded
//! to integers and checked exactly); anything less — a non-optimal
//! status claim, a numerical bail-out, a refuted basis — makes
//! [`crate::simplex::solve_lp_proven`] rerun the exact solver from a cold
//! start, so every returned [`Solution`] is exactly optimal either way.
//!
//! **Warm/cold bit-identity.** Phase 2 always starts from a *freshly
//! refactorized* eta file of the phase-1 (or adopted) basis, and the
//! refactorization is a deterministic function of the basis column set.
//! A warm solve adopting the cached basis `B` therefore replays the
//! byte-for-byte float trajectory a cold solve takes after its own
//! phase 1 produced the same `B` — so the certified vertex, like the
//! exact tier's, cannot depend on who populated the cache. This holds
//! because every *cached* basis has f64-phase-1 provenance: the exact
//! tier never reports a feasible basis (see `simplex::solve_exact`), so
//! an adopted basis is always the one a cold f64 solve of the same
//! system would have produced.

use crate::certify;
use crate::model::{LpModel, Solution, SolveStats, SolveStatus};
use crate::simplex::{LpSolve, Revised, WarmBasis};

/// Degenerate-pivot streak before Bland's rule engages (mirrors the
/// exact tier).
const BLAND_STREAK: u32 = 12;
/// Eta-file length that triggers a refactorization.
const REFACTOR_EVERY: usize = 64;
/// Entering threshold on reduced costs, scaled by the cost magnitude.
const DANTZIG_TOL: f64 = 1e-9;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;
/// Feasibility slack on basic values (scaled by the rhs magnitude).
const FEAS_TOL: f64 = 1e-9;
/// Hard pivot cap: past this, the instance is declared ill-conditioned.
fn pivot_cap(rows: usize, cols: usize) -> u64 {
    200 + 40 * (rows + cols) as u64
}

/// The eta file as one flat arena of segments: eta `k` is pivot row
/// `rows[k]` plus the entry run `starts[k]..starts[k + 1]` of the
/// shared `idx`/`val` stores. Compared to a `Vec` of per-eta entry
/// vectors this is a single contiguous allocation that `clear()` only
/// resets (capacity survives refactorizations and whole solves), and
/// FTRAN/BTRAN walk one dense `f64` stream instead of chasing a
/// pointer per eta.
///
/// Entry order within a segment is exactly the order the per-eta
/// vectors used — the pivot position (`1/pivot`) first, then the
/// remaining rows ascending — so every FTRAN/BTRAN accumulation
/// happens in the same sequence and the float trajectory is
/// bit-identical to the boxed representation it replaced.
#[derive(Default)]
struct EtaFile {
    /// Pivot row of eta `k`.
    rows: Vec<u32>,
    /// Segment boundaries: eta `k` owns `idx[starts[k]..starts[k+1]]`.
    /// Always `rows.len() + 1` long (leading 0).
    starts: Vec<usize>,
    /// Row indices of the entries, all segments back to back.
    idx: Vec<u32>,
    /// Entry values, parallel to `idx`.
    val: Vec<f64>,
}

impl EtaFile {
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Drops every eta but keeps the backing stores.
    fn clear(&mut self) {
        self.rows.clear();
        self.starts.clear();
        self.idx.clear();
        self.val.clear();
    }

    /// Appends the eta column for a pivot on `row` of the FTRANed
    /// column `w`: `1/pivot` at `row` first, then `-w_i/pivot` for the
    /// other non-zero rows in ascending order.
    fn push(&mut self, row: usize, w: &[f64]) {
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        let inv = 1.0 / w[row];
        self.idx.push(row as u32);
        self.val.push(inv);
        for (i, &v) in w.iter().enumerate() {
            if i != row && v != 0.0 {
                self.idx.push(i as u32);
                self.val.push(-v * inv);
            }
        }
        self.rows.push(row as u32);
        self.starts.push(self.idx.len());
    }

    /// `w ← E_k·w` (FTRAN step of eta `k`).
    fn ftran(&self, k: usize, w: &mut [f64]) {
        let row = self.rows[k] as usize;
        let wr = w[row];
        if wr == 0.0 {
            return;
        }
        for t in self.starts[k]..self.starts[k + 1] {
            let i = self.idx[t] as usize;
            let v = self.val[t];
            if i == row {
                w[i] = v * wr;
            } else {
                w[i] += v * wr;
            }
        }
    }

    /// `zᵀ ← zᵀ·E_k` (BTRAN step of eta `k`).
    fn btran(&self, k: usize, z: &mut [f64]) {
        let mut acc = 0.0;
        for t in self.starts[k]..self.starts[k + 1] {
            acc += z[self.idx[t] as usize] * self.val[t];
        }
        z[self.rows[k] as usize] = acc;
    }

    /// Applies the whole file forward: `w ← E_last···E_1·w`.
    fn ftran_all(&self, w: &mut [f64]) {
        for k in 0..self.len() {
            self.ftran(k, w);
        }
    }

    /// Applies the whole file backward: `zᵀ ← zᵀ·E_last···E_1`.
    fn btran_all(&self, z: &mut [f64]) {
        for k in (0..self.len()).rev() {
            self.btran(k, z);
        }
    }
}

/// Reusable column/dual buffers of one solve: every FTRAN/BTRAN that
/// used to allocate a fresh `vec![0.0; m]` per pivot now resets one of
/// these in place. Fields are separate so callers can split-borrow
/// (`w` holds the entering column across the `pivot` call while
/// `wcol` serves the refactorization inside it).
#[derive(Default)]
struct FastScratch {
    /// Entering column through the eta file (FTRAN result).
    w: Vec<f64>,
    /// Dual prices `c_B B⁻¹` (BTRAN result).
    y: Vec<f64>,
    /// Per-column elimination buffer of `refactorize`.
    wcol: Vec<f64>,
}

/// The f64 working instance over a borrowed exact standard form.
struct Fast<'a> {
    rev: &'a Revised,
    /// f64 copies of the sparse standard-form columns.
    cols: Vec<Vec<(usize, f64)>>,
    rhs: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    etas: EtaFile,
    xb: Vec<f64>,
    /// Scale of the rhs (for feasibility tolerances).
    b_scale: f64,
    pivots_since_refactor: usize,
    pivot_budget: u64,
    stats: SolveStats,
}

/// Why the fast tier gave up (all reasons route to the exact fallback).
enum Bail {
    /// Pivot budget exhausted / no usable pivot element.
    Numeric,
    /// The f64 run claims the model is infeasible or unbounded; those
    /// claims are never certified, only re-derived exactly.
    NonOptimalClaim,
}

impl<'a> Fast<'a> {
    fn new(rev: &'a Revised) -> Fast<'a> {
        let cols = rev
            .cols
            .iter()
            .map(|c| c.iter().map(|&(r, v)| (r, v.to_f64())).collect())
            .collect();
        let rhs: Vec<f64> = rev.rhs.iter().map(|v| v.to_f64()).collect();
        let b_scale = 1.0 + rhs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let m = rhs.len();
        let n = rev.cols.len();
        let mut t = Fast {
            rev,
            cols,
            rhs,
            basis: rev.init_basis.clone(),
            in_basis: vec![false; n],
            etas: EtaFile::default(),
            xb: Vec::new(),
            b_scale,
            pivots_since_refactor: 0,
            pivot_budget: pivot_cap(m, n),
            stats: SolveStats::default(),
        };
        t.reset_cold();
        t
    }

    fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    fn num_cols(&self) -> usize {
        self.cols.len()
    }

    fn reset_cold(&mut self) {
        self.basis.clone_from(&self.rev.init_basis);
        self.in_basis.clear();
        self.in_basis.resize(self.num_cols(), false);
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        self.etas.clear();
        self.pivots_since_refactor = 0;
        self.xb.clone_from(&self.rhs);
    }

    /// `B⁻¹ a_col` through the eta file, into the reused buffer `w`.
    fn ftran_col(&self, col: usize, w: &mut Vec<f64>) {
        w.clear();
        w.resize(self.num_rows(), 0.0);
        for &(r, v) in &self.cols[col] {
            w[r] = v;
        }
        self.etas.ftran_all(w);
    }

    /// `c_B B⁻¹` through the eta file in reverse, into the reused
    /// buffer `z`.
    fn btran_costs(&self, c: &[f64], z: &mut Vec<f64>) {
        z.clear();
        z.extend(self.basis.iter().map(|&b| c[b]));
        self.etas.btran_all(z);
    }

    fn reduced_cost(&self, c: &[f64], y: &[f64], j: usize) -> f64 {
        let mut r = c[j];
        for &(row, v) in &self.cols[j] {
            r -= y[row] * v;
        }
        r
    }

    /// Rebuilds the eta file from `basis_cols` by sparse elimination
    /// (columns in ascending (nnz, index) order, pivot on the smallest
    /// free row — the same deterministic rule the exact referee uses).
    /// Recomputes `x_B` from the rhs. `false` = dependent/ill-conditioned.
    /// `wcol` is the reused per-column elimination buffer.
    fn refactorize(&mut self, basis_cols: &[usize], wcol: &mut Vec<f64>) -> bool {
        let m = self.num_rows();
        if basis_cols.len() != m || basis_cols.iter().any(|&c| c >= self.num_cols()) {
            return false;
        }
        self.stats.eta_factors += 1;
        self.etas.clear();
        self.pivots_since_refactor = 0;
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&i| (self.cols[basis_cols[i]].len(), basis_cols[i]));
        let mut assigned = vec![false; m];
        let mut basis = vec![usize::MAX; m];
        for &i in &order {
            let col = basis_cols[i];
            wcol.clear();
            wcol.resize(m, 0.0);
            for &(r, v) in &self.cols[col] {
                wcol[r] = v;
            }
            self.etas.ftran_all(wcol);
            // Deterministic free pivot: the largest-magnitude entry on an
            // unassigned row (ties to the smaller row index).
            let mut best: Option<(usize, f64)> = None;
            for (r, &v) in wcol.iter().enumerate() {
                if !assigned[r] && v.abs() > PIVOT_TOL && best.is_none_or(|(_, bv)| v.abs() > bv) {
                    best = Some((r, v.abs()));
                }
            }
            let Some((row, _)) = best else {
                return false;
            };
            assigned[row] = true;
            basis[row] = col;
            self.etas.push(row, wcol);
        }
        self.basis = basis;
        self.in_basis.clear();
        self.in_basis.resize(self.num_cols(), false);
        for &b in &self.basis {
            self.in_basis[b] = true;
        }
        self.xb.clone_from(&self.rhs);
        self.etas.ftran_all(&mut self.xb);
        true
    }

    /// Executes a pivot: extends the eta file, updates `x_B` and the
    /// basis, refactorizes when the file is long (`wcol` serves the
    /// refactorization; `w` stays untouched).
    fn pivot(
        &mut self,
        row: usize,
        col: usize,
        w: &[f64],
        wcol: &mut Vec<f64>,
    ) -> Result<(), Bail> {
        crate::budget::charge_pivot();
        let piv = w[row];
        if piv.abs() <= PIVOT_TOL {
            return Err(Bail::Numeric);
        }
        self.etas.push(row, w);
        let xr = self.xb[row] / piv;
        for (i, wi) in w.iter().enumerate() {
            if i != row && *wi != 0.0 {
                self.xb[i] -= wi * xr;
            }
        }
        self.xb[row] = xr;
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
        self.stats.pivots += 1;
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= REFACTOR_EVERY {
            let basis = self.basis.clone();
            if !self.refactorize(&basis, wcol) {
                return Err(Bail::Numeric);
            }
        }
        Ok(())
    }

    /// Primal simplex over `c`; mirrors the exact tier's pricing
    /// (Dantzig, Bland fallback after a degenerate streak).
    fn primal(&mut self, c: &[f64], phase1: bool, scratch: &mut FastScratch) -> Result<bool, Bail> {
        let FastScratch { w, y, wcol } = scratch;
        let c_scale = 1.0 + c.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let enter_tol = DANTZIG_TOL * c_scale;
        let mut bland = false;
        let mut streak = 0u32;
        loop {
            if self.stats.pivots >= self.pivot_budget {
                return Err(Bail::Numeric);
            }
            self.btran_costs(c, y);
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.num_cols() {
                if self.in_basis[j] || (!phase1 && self.rev.artificial[j]) {
                    continue;
                }
                let r = self.reduced_cost(c, y, j);
                if r > enter_tol {
                    if bland {
                        entering = Some((j, r));
                        break;
                    }
                    if entering.as_ref().is_none_or(|&(_, br)| r > br) {
                        entering = Some((j, r));
                    }
                }
            }
            let Some((col, _)) = entering else {
                return Ok(true);
            };
            self.ftran_col(col, w);
            let mut best: Option<(usize, f64)> = None;
            for (i, &wi) in w.iter().enumerate() {
                if wi > PIVOT_TOL {
                    let ratio = (self.xb[i].max(0.0)) / wi;
                    let better = match best {
                        None => true,
                        Some((bi, br)) => {
                            ratio < br - FEAS_TOL * self.b_scale
                                || (ratio <= br + FEAS_TOL * self.b_scale
                                    && self.basis[i] < self.basis[bi])
                        }
                    };
                    if better {
                        best = Some((i, ratio));
                    }
                }
            }
            let Some((row, ratio)) = best else {
                return Ok(false); // unbounded claim
            };
            if bland {
                self.stats.bland_pivots += 1;
            }
            if ratio <= FEAS_TOL * self.b_scale {
                streak += 1;
                if streak >= BLAND_STREAK {
                    bland = true;
                }
            } else {
                streak = 0;
                bland = false;
            }
            if phase1 {
                self.stats.phase1_pivots += 1;
            }
            self.pivot(row, col, w, wcol)?;
        }
    }

    /// Phase 1 (artificial minimization). `Ok(false)` = infeasible claim.
    fn phase1(&mut self, scratch: &mut FastScratch) -> Result<bool, Bail> {
        if !self.rev.artificial.iter().any(|&a| a) {
            return Ok(true);
        }
        let c1: Vec<f64> = self
            .rev
            .artificial
            .iter()
            .map(|&a| if a { -1.0 } else { 0.0 })
            .collect();
        if !self.primal(&c1, true, scratch)? {
            return Err(Bail::Numeric); // phase 1 can never be unbounded
        }
        let residue: f64 = self
            .basis
            .iter()
            .zip(&self.xb)
            .filter(|&(&b, _)| self.rev.artificial[b])
            .map(|(_, x)| x.abs())
            .sum();
        if residue > 1e-7 * self.b_scale {
            return Ok(false);
        }
        self.drive_out_artificials(scratch)?;
        Ok(true)
    }

    /// Pivots zero-level basic artificials out where possible (mirrors
    /// the exact tier; remaining ones sit in redundant rows).
    fn drive_out_artificials(&mut self, scratch: &mut FastScratch) -> Result<(), Bail> {
        let FastScratch { w, wcol, .. } = scratch;
        for row in 0..self.num_rows() {
            if !self.rev.artificial[self.basis[row]] {
                continue;
            }
            let mut found: Option<usize> = None;
            for j in 0..self.num_cols() {
                if self.rev.artificial[j] || self.in_basis[j] {
                    continue;
                }
                self.ftran_col(j, w);
                if w[row].abs() > PIVOT_TOL {
                    found = Some(j);
                    break;
                }
            }
            if let Some(col) = found {
                self.pivot(row, col, w, wcol)?;
            }
        }
        Ok(())
    }

    /// Adopts a warm basis: refactorize, then check primal feasibility
    /// and artificial levels in f64. `false` = back to the cold state.
    fn try_warm_start(&mut self, wb: &WarmBasis, wcol: &mut Vec<f64>) -> bool {
        if wb.num_rows != self.num_rows() || wb.num_cols != self.num_cols() {
            return false;
        }
        if !self.refactorize(&wb.cols, wcol) {
            self.reset_cold();
            return false;
        }
        let tol = 1e-7 * self.b_scale;
        let infeasible = self.xb.iter().any(|&x| x < -tol);
        let artificial_level = self
            .basis
            .iter()
            .zip(&self.xb)
            .any(|(&b, &x)| self.rev.artificial[b] && x.abs() > tol);
        if infeasible || artificial_level {
            self.reset_cold();
            return false;
        }
        self.stats.warm_starts += 1;
        if self.rev.artificial.iter().any(|&a| a) {
            self.stats.phase1_skips += 1;
        }
        true
    }
}

/// Runs the speculative f64 solve and, when its terminal basis passes
/// exact certification, packages the exact optimum. `Err(stats)` = fall
/// back to the exact tier (non-optimal status claim, numerical bail-out,
/// or a refuted basis); the attempt's effort counters come back so the
/// fallback can absorb them.
///
/// `proven` is a basis of the same constraint system an earlier solve
/// already showed nonsingular. When the f64 tier ends on it, the
/// referee checks the tier's own point instead of factorizing
/// ([`certify::check_proposal`]); a point that does not round or fails
/// the check still gets the factorization, so every accept/refute
/// decision and every returned point are those of the factorization.
pub(crate) fn solve_certified(
    model: &LpModel,
    warm: Option<&WarmBasis>,
    proven: Option<&WarmBasis>,
) -> Result<LpSolve, SolveStats> {
    let rev = Revised::build(model);
    let mut t = Fast::new(&rev);
    let mut scratch = FastScratch::default();
    t.stats.f64_solves += 1;

    let mut c2_f64 = vec![0.0; rev.cols.len()];
    for (v, coeff) in model.objective().terms() {
        c2_f64[v.index()] = coeff.to_f64();
    }
    let outcome = run_fast(&mut t, warm, &c2_f64, &mut scratch);
    let mut stats = t.stats;
    let refute = |mut s: SolveStats| {
        // A skip that did not stick is not a skip: the exact rerun pays
        // phase 1 again, so the counters must not claim otherwise.
        s.warm_starts = 0;
        s.phase1_skips = 0;
        s.fallbacks += 1;
        s
    };
    let (feasible_cols, terminal) = match outcome {
        Ok(pair) => pair,
        Err(_) => return Err(refute(stats)),
    };

    let num_rows = rev.rhs.len();
    let num_cols = rev.cols.len();
    let c2 = rev.phase2_costs(model);
    let checked = proven
        .filter(|p| p.num_rows == num_rows && p.num_cols == num_cols && p.cols == terminal)
        .and_then(|_| {
            t.btran_costs(&c2_f64, &mut scratch.y);
            certify::check_proposal(&rev, &terminal, &c2, &t.xb, &scratch.y)
        });
    let point = match checked {
        Some(point) => point,
        None => {
            stats.cert_factors += 1;
            match certify::certify_optimal(&rev, &terminal, &c2) {
                Some(point) => point,
                None => return Err(refute(stats)),
            }
        }
    };
    let mut values = vec![crate::rational::Rat::ZERO; rev.n_struct];
    for (&col, val) in terminal.iter().zip(&point.x_basic) {
        if col < rev.n_struct {
            values[col] = *val;
        }
    }
    let objective = model.objective().eval(&values);
    stats.certified += 1;
    Ok(LpSolve {
        solution: Solution {
            status: SolveStatus::Optimal,
            objective,
            values,
            stats,
        },
        feasible_basis: Some(WarmBasis {
            cols: feasible_cols,
            num_rows,
            num_cols,
        }),
        optimal_basis: Some(WarmBasis {
            cols: terminal,
            num_rows,
            num_cols,
        }),
    })
}

/// The f64 trajectory proper: warm-or-phase-1, refactorize at the phase
/// boundary (so warm and cold phase 2 start from byte-identical state),
/// then phase 2. Returns `(feasible_basis, terminal_basis)`.
fn run_fast(
    t: &mut Fast<'_>,
    warm: Option<&WarmBasis>,
    c2: &[f64],
    scratch: &mut FastScratch,
) -> Result<(Vec<usize>, Vec<usize>), Bail> {
    let mut warm_ok = false;
    if let Some(wb) = warm {
        warm_ok = t.try_warm_start(wb, &mut scratch.wcol);
    }
    if !warm_ok {
        if !t.phase1(scratch)? {
            return Err(Bail::NonOptimalClaim); // infeasible claim
        }
        // Phase boundary: restart the eta file from the feasible basis so
        // the phase-2 float trajectory depends only on that basis (the
        // warm path enters phase 2 through the same refactorization).
        let basis = t.basis.clone();
        if !t.refactorize(&basis, &mut scratch.wcol) {
            return Err(Bail::Numeric);
        }
    }
    let feasible = t.basis.clone();
    if !t.primal(c2, false, scratch)? {
        return Err(Bail::NonOptimalClaim); // unbounded claim
    }
    Ok((feasible, t.basis.clone()))
}
