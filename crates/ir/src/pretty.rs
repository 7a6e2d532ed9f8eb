//! Human-readable program listings.

use std::fmt::Write as _;

use crate::program::Program;

/// Renders a full assembly-style listing of the program.
#[must_use]
pub fn listing(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; program {}", program.name());
    for region in program.data_regions() {
        let _ = writeln!(
            out,
            "; data {:10} @ {} ({} bytes)",
            region.name, region.base, region.bytes
        );
    }
    for (id, blk) in program.cfg().iter() {
        let _ = writeln!(out, "{id}: ; @ {}", program.block_addr(id));
        for ins in blk.instrs() {
            let _ = writeln!(out, "    {ins}");
        }
        let _ = writeln!(out, "    {}", blk.terminator());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{crc, Placement};

    #[test]
    fn listing_mentions_every_block() {
        let p = crc(4, Placement::default());
        let text = listing(&p);
        for (id, _) in p.cfg().iter() {
            assert!(text.contains(&format!("{id}:")), "missing {id}");
        }
        assert!(text.contains("; data"));
    }
}
