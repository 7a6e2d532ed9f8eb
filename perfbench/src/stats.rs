//! Exact-sample statistics, the bounds digest, and process memory.

use wcet_bench::load::splitmix64;

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of exact samples.
/// Returns 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over a string (error texts enter the digest through this).
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// An order-independent digest of the bounds of a set of cells: the
/// wrapping sum of one mixed hash per cell, plus the cell count. Cheap
/// enough to feed from inside a timed campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    sum: u64,
    cells: u64,
}

impl Digest {
    /// Adds one cell: its fingerprint, each row's bound or error text,
    /// and the cell-level error, if any.
    pub fn add<'a>(
        &mut self,
        fp: (u64, u64),
        rows: impl IntoIterator<Item = Result<u64, &'a str>>,
        error: Option<&str>,
    ) {
        let mut h = splitmix64(fp.0 ^ splitmix64(fp.1));
        for row in rows {
            h = splitmix64(h ^ row.unwrap_or_else(|e| fnv(e) ^ 0x8000_0000_0000_0000));
        }
        if let Some(e) = error {
            h = splitmix64(h ^ fnv(e) ^ 0x4000_0000_0000_0000);
        }
        self.sum = self.sum.wrapping_add(h);
        self.cells += 1;
    }

    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The printable form recorded in `digests.json`.
    pub fn hex(&self) -> String {
        format!("{:016x}-{}", self.sum, self.cells)
    }
}

/// Starts a fresh peak-RSS measurement: hands the heap memory that
/// set-up freed back to the kernel, then resets `VmHWM` to the current
/// resident set. Set-up runs several times and leaves freed blocks
/// scattered over the C allocator's per-thread arenas, so without this
/// the peak would measure where set-up's garbage landed rather than the
/// measured window.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel;
    // it moves and frees no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn digest_ignores_order_but_not_bounds() {
        let mut a = Digest::default();
        a.add((1, 2), [Ok(10), Err("unbounded")], None);
        a.add((3, 4), [Ok(7)], None);
        let mut b = Digest::default();
        b.add((3, 4), [Ok(7)], None);
        b.add((1, 2), [Ok(10), Err("unbounded")], None);
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add((3, 4), [Ok(8)], None);
        c.add((1, 2), [Ok(10), Err("unbounded")], None);
        assert_ne!(a, c);
    }
}
