//! Content fingerprinting: the 128-bit keys behind the engine memo
//! tables, the IPET warm-start context, scenario deduplication and the
//! persistent campaign memo.
//!
//! A fingerprint is two independently seeded 64-bit SipHash digests
//! (std's [`DefaultHasher`]) of one `Debug` rendering of the value. A
//! collision between distinct values needs both halves to collide
//! (~2⁻¹²⁸ per pair), which is below any practical concern. The
//! fingerprint is only as discriminating as the type's `Debug` output:
//! values whose rendering elides state hash as equal.
//!
//! # Values never change
//!
//! Fingerprints outlive the process: they key users' disk memos and
//! appear in served responses and recorded benchmark digests. Changing
//! a rendering, the seeds or the hashing order turns every existing
//! memo cold without an error, and so does a toolchain whose
//! `DefaultHasher` differs. The unit tests below pin golden values.
//!
//! # Tuple prefixes
//!
//! std renders a tuple as `(a, b, c)`: fields separated by `", "`, and
//! `(a,)` for a single field. SipHash digests a byte stream the same
//! however the stream is split across writes. Together these let
//! [`TupleFingerprint`] compute a tuple's fingerprint field by field,
//! with exactly the value [`debug_fingerprint`] gives for the whole
//! tuple, and let a prefix shared by many tuples be hashed once and
//! cloned. The scenario producer hashes each build's
//! `(machine, placement, ` once and only the short per-cell tail after
//! it; [`TupleFingerprint::field_and_fingerprint`] takes the machine's
//! own fingerprint (the engine key) from the same rendering.
//!
//! A [`Program`] carries its own fingerprint once computed, so the
//! multi-kilobyte program rendering happens once per program, not once
//! per memo probe.

use std::cell::Cell;
use std::fmt::{self, Write as _};
use std::hash::{DefaultHasher, Hash, Hasher};

use crate::program::Program;

/// Mixed into the second digest first, to domain-separate the halves.
const SECOND_HALF_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

thread_local! {
    /// Rendering buffer, reused so a warm fingerprint allocates nothing.
    static RENDER: Cell<String> = const { Cell::new(String::new()) };
}

/// Both digest states of one fingerprint in progress.
#[derive(Clone)]
struct Digests {
    h1: DefaultHasher,
    h2: DefaultHasher,
}

impl Digests {
    fn new() -> Digests {
        let mut h2 = DefaultHasher::new();
        h2.write_u64(SECOND_HALF_SEED);
        Digests {
            h1: DefaultHasher::new(),
            h2,
        }
    }

    /// Renders `value` once and writes the text into both digests.
    /// Hashing one buffered rendering twice is ~30% cheaper than
    /// streaming the rendering's many small writes into both digests.
    fn write_debug<T: fmt::Debug + ?Sized>(&mut self, value: &T) {
        with_rendering(value, |text| self.write_str(text));
    }

    fn write_str(&mut self, s: &str) {
        self.h1.write(s.as_bytes());
        self.h2.write(s.as_bytes());
    }

    fn finish(&self) -> (u64, u64) {
        (self.h1.finish(), self.h2.finish())
    }
}

/// Renders `value` into the thread's reused buffer and hands the text
/// to `use_text`.
fn with_rendering<T: fmt::Debug + ?Sized, R>(value: &T, use_text: impl FnOnce(&str) -> R) -> R {
    let mut text = RENDER.take();
    text.clear();
    write!(text, "{value:?}").expect("rendering into a String never fails");
    let result = use_text(&text);
    RENDER.set(text);
    result
}

/// 128-bit structural fingerprint of any `Debug`-rendered value.
#[must_use]
pub fn debug_fingerprint<T: fmt::Debug + ?Sized>(value: &T) -> (u64, u64) {
    let mut digests = Digests::new();
    digests.write_debug(value);
    digests.finish()
}

/// 128-bit structural fingerprint of a program (name + full content), so
/// memo entries never alias distinct tasks that happen to share a name.
/// Computed on the first call and cached inside the program; clones
/// share the cache.
#[must_use]
pub fn program_fingerprint(program: &Program) -> (u64, u64) {
    *program.fingerprint_cache().get_or_init(|| {
        let mut digests = Digests::new();
        program.name().hash(&mut digests.h1);
        program.name().hash(&mut digests.h2);
        digests.write_debug(program);
        digests.finish()
    })
}

/// The fingerprint of a tuple, fed one field at a time:
/// `TupleFingerprint::new().field(&a).field(&b).finish()` equals
/// `debug_fingerprint(&(a, b))`. Clone a partly fed value to share the
/// hashing of common leading fields (see the [module docs](self)).
#[derive(Clone)]
pub struct TupleFingerprint {
    digests: Digests,
    fields: usize,
}

impl TupleFingerprint {
    /// An empty tuple, `(` already hashed.
    #[must_use]
    pub fn new() -> TupleFingerprint {
        let mut digests = Digests::new();
        digests.write_str("(");
        TupleFingerprint { digests, fields: 0 }
    }

    /// Appends the next field.
    #[must_use]
    pub fn field<T: fmt::Debug + ?Sized>(mut self, value: &T) -> TupleFingerprint {
        self.separate();
        self.digests.write_debug(value);
        self
    }

    /// Appends the next field and also returns the field's own
    /// fingerprint, `debug_fingerprint(value)`, from the same single
    /// rendering.
    #[must_use]
    pub fn field_and_fingerprint<T: fmt::Debug + ?Sized>(
        mut self,
        value: &T,
    ) -> (TupleFingerprint, (u64, u64)) {
        self.separate();
        let own = with_rendering(value, |text| {
            self.digests.write_str(text);
            let mut own = Digests::new();
            own.write_str(text);
            own.finish()
        });
        (self, own)
    }

    /// Hashes the separator before a field after the first.
    fn separate(&mut self) {
        if self.fields > 0 {
            self.digests.write_str(", ");
        }
        self.fields += 1;
    }

    /// Closes the tuple and returns its fingerprint.
    #[must_use]
    pub fn finish(mut self) -> (u64, u64) {
        self.digests
            .write_str(if self.fields == 1 { ",)" } else { ")" });
        self.digests.finish()
    }
}

impl Default for TupleFingerprint {
    fn default() -> TupleFingerprint {
        TupleFingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{fir, parse_kernel, Placement};
    use proptest::prelude::*;

    const GOLDEN_HINT: &str = "fingerprint values changed: every persisted disk memo and \
        recorded digest keyed by them is now cold or stale. If only the toolchain changed, its \
        `DefaultHasher` differs and every memo is invalidated";

    #[test]
    fn fingerprints_discriminate_and_repeat() {
        let a = fir(4, 8, Placement::slot(0));
        let b = fir(4, 8, Placement::slot(1));
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        assert_ne!(
            program_fingerprint(&a),
            program_fingerprint(&b),
            "placement is content"
        );
        assert_eq!(debug_fingerprint("x"), debug_fingerprint("x"));
        assert_ne!(debug_fingerprint("x"), debug_fingerprint("y"));
    }

    #[test]
    fn golden_values_hold() {
        let program = |spec| parse_kernel(spec, Placement::slot(0)).expect("valid kernel");
        assert_eq!(
            program_fingerprint(&program("fir:2x4")),
            (0x747f_1265_4330_1cd8, 0x1779_9337_5102_4135),
            "{GOLDEN_HINT}"
        );
        assert_eq!(
            program_fingerprint(&program("crc:16")),
            (0x47af_8808_bf35_1e50, 0xf9d0_ee71_f36e_7dcd),
            "{GOLDEN_HINT}"
        );
        assert_eq!(
            debug_fingerprint("x"),
            (0x9f24_bcae_2b60_8aac, 0xf70f_73ca_d590_f102),
            "{GOLDEN_HINT}"
        );
    }

    /// The two facts the prefix path rests on.
    #[test]
    fn tuple_layout_and_split_writes() {
        assert_eq!(format!("{:?}", (1, "a", [2u8])), "(1, \"a\", [2])");
        assert_eq!(format!("{:?}", (1,)), "(1,)");
        let mut whole = DefaultHasher::new();
        whole.write(b"(machine, placement, tail)");
        let mut split = DefaultHasher::new();
        for part in ["(mach", "ine, placement, ", "", "tail)"] {
            split.write(part.as_bytes());
        }
        assert_eq!(whole.finish(), split.finish());
    }

    #[test]
    fn small_tuples_match_whole_renderings() {
        assert_eq!(TupleFingerprint::new().finish(), debug_fingerprint(&()));
        assert_eq!(
            TupleFingerprint::new().field(&7u8).finish(),
            debug_fingerprint(&(7u8,))
        );
    }

    /// Characters whose `Debug` rendering escapes or spans several bytes.
    const CHARS: [char; 8] = ['a', 'z', ':', ' ', '"', '\\', '\n', 'é'];

    proptest! {
        /// Any split of a six-field tuple into a shared prefix and a
        /// per-use tail fingerprints like the whole tuple.
        #[test]
        fn prefix_path_equals_whole_tuple(
            a in proptest::collection::vec(0u64..u64::MAX, 0..6),
            b in (0u16..=u16::MAX, 0u8..2).prop_map(|(n, flag)| (n, flag == 1)),
            c in proptest::collection::vec(0..CHARS.len(), 0..12)
                .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect::<String>()),
            d in i32::MIN..i32::MAX,
            e in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..4),
            f in 0u64..u64::MAX,
            split in 0usize..7,
        ) {
            let whole = debug_fingerprint(&(&a, b, &c, d, &e, f));
            let fields: [&dyn fmt::Debug; 6] = [&a, &b, &c, &d, &e, &f];
            let prefix = fields[..split]
                .iter()
                .fold(TupleFingerprint::new(), |t, v| t.field(v));
            let tail = fields[split..]
                .iter()
                .fold(prefix.clone(), |t, v| t.field(v));
            prop_assert_eq!(tail.finish(), whole);
            // The same split, its next field fed together with that
            // field's own fingerprint.
            if let Some(&next) = fields.get(split) {
                let (fed, own) = prefix.field_and_fingerprint(next);
                prop_assert_eq!(own, debug_fingerprint(next));
                let tail = fields[split + 1..].iter().fold(fed, |t, v| t.field(v));
                prop_assert_eq!(tail.finish(), whole);
            }
        }
    }
}
