//! The seeded generator of the serve pool. The same seed gives the same
//! spec texts; the server only ever sees the generated specs.
//!
//! It varies what the analysis memo keys on — kernel content (including
//! `rand:<seed>` programs), cache geometry, L2 layout, mode and arbiter —
//! so distinct specs are distinct work, not distinct names over one memo
//! entry.

use wcet_bench::load::{splitmix64, Rng};

fn pick<'a>(rng: &mut Rng, from: &[&'a str]) -> &'a str {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

fn between(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

/// One kernel spec of a random family, with seeded sizes.
fn kernel(rng: &mut Rng) -> String {
    match rng.next_u64() % 8 {
        0 => format!("matmul:{}", between(rng, 3, 4)),
        1 => format!("fir:{}x{}", between(rng, 2, 4), between(rng, 4, 8)),
        2 => format!("crc:{}", between(rng, 16, 32)),
        3 => format!("bsort:{}", between(rng, 4, 6)),
        4 => format!("spath:{}x{}", between(rng, 2, 3), between(rng, 20, 40)),
        5 => format!("chase:{}x{}", between(rng, 8, 16), between(rng, 2, 3)),
        6 => format!("twophase:{}x{}", between(rng, 4, 8), between(rng, 2, 4)),
        _ => format!("rand:{}", rng.next_u64() % 1_000_000),
    }
}

/// A task set of one or two kernels, about a third of them `rand:`.
fn task_set(rng: &mut Rng) -> String {
    let first = if rng.next_u64().is_multiple_of(3) {
        format!("rand:{}", rng.next_u64() % 1_000_000)
    } else {
        kernel(rng)
    };
    if rng.next_u64().is_multiple_of(2) {
        first
    } else {
        format!("{first} {}", kernel(rng))
    }
}

fn list(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

const L1_GEOMS: [&str; 5] = [
    "16x2x16@1",
    "32x2x16@1",
    "64x2x16@1",
    "32x4x16@1",
    "16x4x32@1",
];
const L2_GEOMS: [&str; 4] = ["128x4x32@4", "256x8x32@4", "64x8x32@4", "256x4x32@4"];

/// `n` distinct elements of `from`, in a seeded order.
fn choose(rng: &mut Rng, from: &[&str], n: usize) -> Vec<String> {
    let mut pool: Vec<&str> = from.to_vec();
    let mut out = Vec::with_capacity(n);
    while out.len() < n && !pool.is_empty() {
        let i = (rng.next_u64() % pool.len() as u64) as usize;
        out.push(pool.swap_remove(i).to_string());
    }
    out
}

/// The `serve` pool: `n` distinct spec texts. One in twelve is a
/// small matrix (two arbiters × two latencies); the rest are single
/// cells.
pub fn serve_pool(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(splitmix64(seed ^ 0x5e7e_0000_0000_0002));
    let mut pool: Vec<String> = Vec::with_capacity(n);
    while pool.len() < n {
        let i = pool.len();
        let arbiters = [
            "rr",
            "tdma:32",
            "tdma:48",
            "mbba:2-1@32",
            "wheel:32",
            "wheel:48",
        ];
        let latencies = ["20", "30", "40", "50"];
        let (arbiter, latency) = if i % 12 == 5 {
            let a = choose(&mut rng, &arbiters, 2);
            let l = choose(&mut rng, &latencies, 2);
            (list(&a), list(&l))
        } else {
            (
                pick(&mut rng, &arbiters).to_string(),
                pick(&mut rng, &latencies).to_string(),
            )
        };
        let layout = pick(&mut rng, &["shared", "partitioned", "bypass", "none"]);
        let l2 = if layout == "none" {
            "l2 = none\n".to_string()
        } else {
            format!("l2_geom = {}\nl2 = {layout}\n", pick(&mut rng, &L2_GEOMS))
        };
        let spec = format!(
            "name = pool{i}\ncores = 2\narbiter = {arbiter}\ntransfer = {}\nmem_latency = {latency}\n\
             l1i = {}\nl1d = {}\n{l2}mode = {}\ntasks = \"{}\"\ncycle_limit = 1000000\n",
            pick(&mut rng, &["4", "8", "16"]),
            pick(&mut rng, &L1_GEOMS),
            pick(&mut rng, &L1_GEOMS),
            pick(&mut rng, &["isolated", "joint", "solo"]),
            task_set(&mut rng),
        );
        // Compare without the name line, which is unique by construction.
        let body = spec.split_once('\n').map_or("", |(_, b)| b);
        if !pool
            .iter()
            .any(|p| p.split_once('\n').map_or("", |(_, b)| b) == body)
        {
            pool.push(spec);
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcet_bench::scenario::parse_matrix;

    #[test]
    fn the_pool_is_seeded_and_parses() {
        let pool = serve_pool(7, 40);
        assert_eq!(pool, serve_pool(7, 40));
        assert_ne!(pool, serve_pool(8, 40));
        for spec in &pool {
            parse_matrix(spec).expect("pool spec parses");
        }
    }
}
