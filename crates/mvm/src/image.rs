//! Linked code images: encoded instruction words plus a symbol table.
//!
//! A [`CodeImage`] is what the MiniC linker produces, what the VM executes,
//! what the G-SWFIT scanner reads, and what the injector patches. Patching
//! goes through [`CodeImage::apply`] / [`CodeImage::revert`] with an explicit
//! undo log ([`PatchSet`]) so an injection experiment can always restore the
//! pristine image — the paper's step 2 ("actual fault injection is a very
//! simple and low intrusive task").

use std::collections::BTreeMap;
use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::isa::{DecodeError, Instr};

/// One pre-decoded cache slot: the decoded instruction, or the decode
/// failure the executor must raise when the slot is reached. The cache
/// invariant is `ops[a] == Instr::decode(words[a])` at all times.
pub(crate) type DecodedOp = Result<Instr, DecodeError>;

/// Decodes every word — the cache's ground truth.
fn decode_all(words: &[u64]) -> Vec<DecodedOp> {
    words.iter().map(|&w| Instr::decode(w)).collect()
}

/// Metadata for one linked function.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncInfo {
    /// Symbol name.
    pub name: String,
    /// Address (instruction index) of the first instruction.
    pub entry: u32,
    /// One past the last instruction of the function.
    pub end: u32,
}

impl FuncInfo {
    /// Number of instructions in the function body.
    pub fn len(&self) -> u32 {
        self.end - self.entry
    }

    /// True for degenerate zero-length functions.
    pub fn is_empty(&self) -> bool {
        self.entry == self.end
    }

    /// True if `addr` lies inside this function.
    pub fn contains(&self, addr: u32) -> bool {
        (self.entry..self.end).contains(&addr)
    }
}

/// One word overwrite: `words[addr] = new`, remembering `old` for undo.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Patch {
    /// Instruction address to overwrite.
    pub addr: u32,
    /// Replacement encoded instruction word.
    pub new_word: u64,
}

/// The undo log returned by [`CodeImage::apply`].
///
/// Holds the original words so the exact pre-injection image can be restored.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatchSet {
    entries: Vec<(u32, u64)>, // (addr, original word)
}

impl PatchSet {
    /// Addresses and original words, in application order.
    pub fn entries(&self) -> &[(u32, u64)] {
        &self.entries
    }

    /// Number of patched words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was patched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Errors raised by image construction and patching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageError {
    /// A patch or lookup referenced an address outside the image.
    AddressOutOfRange(u32),
    /// A symbol was defined twice at link time.
    DuplicateSymbol(String),
    /// An instruction word failed to decode.
    Decode(u32, DecodeError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::AddressOutOfRange(a) => write!(f, "address {a} out of image range"),
            ImageError::DuplicateSymbol(s) => write!(f, "duplicate symbol `{s}`"),
            ImageError::Decode(a, e) => write!(f, "word at {a} does not decode: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// An executable image: encoded words plus function symbols.
///
/// Every image carries a pre-decoded instruction cache: decoding happens
/// once at link/patch/deserialize time, and the VM executes straight from
/// the cache instead of re-decoding a word on every step. [`CodeImage::apply`]
/// and [`CodeImage::revert`] invalidate exactly the patched entries — the
/// paper's step 2 ("cheap mutation of a pre-computed location") maps onto
/// re-decoding a handful of cache slots.
///
/// The cache is derived state: equality, serialization and the
/// [`fingerprint`](CodeImage::fingerprint) all ignore it, so serialized
/// artifacts are byte-identical to the pre-cache format.
#[derive(Clone, Debug)]
pub struct CodeImage {
    name: String,
    words: Vec<u64>,
    funcs: Vec<FuncInfo>,
    by_name: BTreeMap<String, usize>,
    /// Invariant: `ops[a] == Instr::decode(words[a])` for every address.
    ops: Vec<DecodedOp>,
}

impl PartialEq for CodeImage {
    fn eq(&self, other: &CodeImage) -> bool {
        // The ops cache is derived from `words`; comparing it would be
        // redundant (and would make a cache bug change equality semantics).
        self.name == other.name
            && self.words == other.words
            && self.funcs == other.funcs
            && self.by_name == other.by_name
    }
}

impl Eq for CodeImage {}

impl Serialize for CodeImage {
    fn to_value(&self) -> Value {
        // Field-for-field what the derive produced before the ops cache
        // existed — serialized images must stay byte-identical.
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("words".to_string(), self.words.to_value()),
            ("funcs".to_string(), self.funcs.to_value()),
            ("by_name".to_string(), self.by_name.to_value()),
        ])
    }
}

impl Deserialize for CodeImage {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| DeError::msg(format!("missing field `{k}` in CodeImage")))
        };
        let words = Vec::<u64>::from_value(field("words")?)?;
        let ops = decode_all(&words);
        Ok(CodeImage {
            name: String::from_value(field("name")?)?,
            funcs: Vec::<FuncInfo>::from_value(field("funcs")?)?,
            by_name: BTreeMap::<String, usize>::from_value(field("by_name")?)?,
            words,
            ops,
        })
    }
}

impl CodeImage {
    /// Builds an image from decoded instructions and function extents.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DuplicateSymbol`] on repeated function names and
    /// [`ImageError::AddressOutOfRange`] if a function extent exceeds the
    /// code.
    pub fn link(
        name: impl Into<String>,
        instrs: &[Instr],
        funcs: Vec<FuncInfo>,
    ) -> Result<CodeImage, ImageError> {
        let words: Vec<u64> = instrs.iter().map(|i| i.encode()).collect();
        let mut by_name = BTreeMap::new();
        for (idx, func) in funcs.iter().enumerate() {
            if func.end as usize > words.len() || func.entry > func.end {
                return Err(ImageError::AddressOutOfRange(func.end));
            }
            if by_name.insert(func.name.clone(), idx).is_some() {
                return Err(ImageError::DuplicateSymbol(func.name.clone()));
            }
        }
        let ops = decode_all(&words);
        Ok(CodeImage {
            name: name.into(),
            words,
            funcs,
            by_name,
            ops,
        })
    }

    /// Image name (e.g. the OS edition that produced it).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw encoded words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// FNV-1a fingerprint of the code words — lets faultload artifacts
    /// detect that they were generated from a different build of the target.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the image holds no code.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// All linked functions.
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&FuncInfo> {
        self.by_name.get(name).map(|&i| &self.funcs[i])
    }

    /// The instruction at `addr`, served from the pre-decoded cache — the
    /// same entry the executor dispatches on, so disassembly and scans can
    /// never disagree with what actually ran after a patch.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::AddressOutOfRange`] or a decode failure (which
    /// can only happen on a corrupted/patched image).
    pub fn instr_at(&self, addr: u32) -> Result<Instr, ImageError> {
        match self.ops.get(addr as usize) {
            Some(Ok(i)) => Ok(*i),
            Some(Err(e)) => Err(ImageError::Decode(addr, *e)),
            None => Err(ImageError::AddressOutOfRange(addr)),
        }
    }

    /// The pre-decoded execution cache, indexed by address — the VM's
    /// dispatch table.
    pub(crate) fn ops(&self) -> &[DecodedOp] {
        &self.ops
    }

    /// Decodes an address range (used by scanners). Fails on the first
    /// undecodable word.
    ///
    /// # Errors
    ///
    /// Same as [`CodeImage::instr_at`].
    pub fn decode_range(&self, start: u32, end: u32) -> Result<Vec<Instr>, ImageError> {
        (start..end).map(|a| self.instr_at(a)).collect()
    }

    /// Applies `patches`, returning the undo log.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::AddressOutOfRange`] if any patch falls outside
    /// the image; in that case no patch is applied.
    pub fn apply(&mut self, patches: &[Patch]) -> Result<PatchSet, ImageError> {
        if let Some(p) = patches.iter().find(|p| p.addr as usize >= self.words.len()) {
            return Err(ImageError::AddressOutOfRange(p.addr));
        }
        let mut entries = Vec::with_capacity(patches.len());
        for p in patches {
            entries.push((p.addr, self.words[p.addr as usize]));
            self.words[p.addr as usize] = p.new_word;
            // Invalidate exactly the patched cache entry.
            self.ops[p.addr as usize] = Instr::decode(p.new_word);
        }
        Ok(PatchSet { entries })
    }

    /// Restores the words recorded in `undo` (reverse order, so overlapping
    /// patch sets unwind correctly), re-decoding exactly the restored cache
    /// entries.
    pub fn revert(&mut self, undo: &PatchSet) {
        for &(addr, old) in undo.entries.iter().rev() {
            self.words[addr as usize] = old;
            self.ops[addr as usize] = Instr::decode(old);
        }
    }

    /// Disassembles the whole image, one instruction per line, with function
    /// headers — a debugging aid.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for f in &self.funcs {
            out.push_str(&format!("; --- {} @ {}..{}\n", f.name, f.entry, f.end));
            for a in f.entry..f.end {
                match self.instr_at(a) {
                    Ok(i) => out.push_str(&format!("{a:6}: {i}\n")),
                    Err(_) => out.push_str(&format!("{a:6}: <bad word {:#018x}>\n", {
                        self.words[a as usize]
                    })),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Opcode, Reg};
    use proptest::prelude::*;

    /// Asserts the cache invariant: every slot matches a fresh decode.
    fn assert_cache_coherent(img: &CodeImage) {
        assert_eq!(
            img.ops,
            decode_all(img.words()),
            "ops cache diverged from a fresh decode of the words"
        );
    }

    fn toy_image() -> CodeImage {
        let instrs = vec![
            Instr::ldi(Reg::RV, 1),
            Instr::ret(),
            Instr::alu3(Opcode::Add, Reg::RV, Reg::A0, Reg::A0),
            Instr::ret(),
        ];
        CodeImage::link(
            "toy",
            &instrs,
            vec![
                FuncInfo {
                    name: "one".into(),
                    entry: 0,
                    end: 2,
                },
                FuncInfo {
                    name: "double".into(),
                    entry: 2,
                    end: 4,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn link_and_lookup() {
        let img = toy_image();
        assert_eq!(img.len(), 4);
        assert_eq!(img.func("one").unwrap().entry, 0);
        assert_eq!(img.func("double").unwrap().len(), 2);
        assert!(img.func("missing").is_none());
    }

    #[test]
    fn duplicate_symbols_rejected() {
        let e = CodeImage::link(
            "dup",
            &[Instr::ret(), Instr::ret()],
            vec![
                FuncInfo {
                    name: "f".into(),
                    entry: 0,
                    end: 1,
                },
                FuncInfo {
                    name: "f".into(),
                    entry: 1,
                    end: 2,
                },
            ],
        );
        assert_eq!(e.unwrap_err(), ImageError::DuplicateSymbol("f".into()));
    }

    #[test]
    fn extent_out_of_range_rejected() {
        let e = CodeImage::link(
            "bad",
            &[Instr::ret()],
            vec![FuncInfo {
                name: "f".into(),
                entry: 0,
                end: 5,
            }],
        );
        assert_eq!(e.unwrap_err(), ImageError::AddressOutOfRange(5));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let img = toy_image();
        let fp = img.fingerprint();
        let mut patched = img.clone();
        patched
            .apply(&[Patch {
                addr: 0,
                new_word: Instr::nop().encode(),
            }])
            .unwrap();
        assert_ne!(patched.fingerprint(), fp);
        assert_eq!(toy_image().fingerprint(), fp, "deterministic");
    }

    #[test]
    fn apply_and_revert_restore_exact_image() {
        let mut img = toy_image();
        let before = img.words().to_vec();
        let undo = img
            .apply(&[
                Patch {
                    addr: 0,
                    new_word: Instr::nop().encode(),
                },
                Patch {
                    addr: 2,
                    new_word: Instr::nop().encode(),
                },
            ])
            .unwrap();
        assert_eq!(undo.len(), 2);
        assert_eq!(img.instr_at(0).unwrap(), Instr::nop());
        assert_ne!(img.words(), &before[..]);
        assert_cache_coherent(&img);
        img.revert(&undo);
        assert_eq!(img.words(), &before[..]);
        assert_cache_coherent(&img);
        assert_eq!(img, toy_image(), "revert restores full equality");
    }

    #[test]
    fn patching_in_an_undecodable_word_is_surfaced_by_the_cache() {
        let mut img = toy_image();
        let undo = img
            .apply(&[Patch {
                addr: 1,
                new_word: 0xFF << 56, // no such opcode
            }])
            .unwrap();
        assert!(matches!(
            img.instr_at(1),
            Err(ImageError::Decode(1, DecodeError::BadOpcode(0xFF)))
        ));
        assert_cache_coherent(&img);
        // Disassembly flags the bad word instead of showing stale code.
        assert!(img.disassemble().contains("<bad word"));
        img.revert(&undo);
        assert_eq!(img.instr_at(1).unwrap(), Instr::ret());
        assert_cache_coherent(&img);
    }

    #[test]
    fn serde_roundtrip_rebuilds_the_cache() {
        let mut img = toy_image();
        img.apply(&[Patch {
            addr: 0,
            new_word: 0xFF << 56,
        }])
        .unwrap();
        let back = CodeImage::from_value(&img.to_value()).unwrap();
        assert_eq!(back, img);
        assert_cache_coherent(&back);
        assert!(matches!(back.instr_at(0), Err(ImageError::Decode(0, _))));
    }

    #[test]
    fn serde_missing_field_is_an_error() {
        let v = Value::Object(vec![("name".to_string(), "x".to_value())]);
        assert!(CodeImage::from_value(&v).is_err());
    }

    #[test]
    fn overlapping_patch_sets_unwind_in_reverse() {
        let mut img = toy_image();
        let before = img.words().to_vec();
        let u1 = img
            .apply(&[Patch {
                addr: 1,
                new_word: Instr::nop().encode(),
            }])
            .unwrap();
        let u2 = img
            .apply(&[Patch {
                addr: 1,
                new_word: Instr::halt().encode(),
            }])
            .unwrap();
        img.revert(&u2);
        assert_eq!(img.instr_at(1).unwrap(), Instr::nop());
        img.revert(&u1);
        assert_eq!(img.words(), &before[..]);
    }

    #[test]
    fn out_of_range_patch_is_atomic_noop() {
        let mut img = toy_image();
        let before = img.words().to_vec();
        let err = img.apply(&[
            Patch {
                addr: 0,
                new_word: Instr::nop().encode(),
            },
            Patch {
                addr: 1000,
                new_word: 0,
            },
        ]);
        assert_eq!(err.unwrap_err(), ImageError::AddressOutOfRange(1000));
        assert_eq!(img.words(), &before[..]);
    }

    #[test]
    fn decode_range_and_disassemble() {
        let img = toy_image();
        let body = img.decode_range(0, 2).unwrap();
        assert_eq!(body[0], Instr::ldi(Reg::RV, 1));
        let dis = img.disassemble();
        assert!(dis.contains("--- one"));
        assert!(dis.contains("ldi r1, 1"));
    }

    #[test]
    fn instr_at_out_of_range() {
        let img = toy_image();
        assert_eq!(
            img.instr_at(100).unwrap_err(),
            ImageError::AddressOutOfRange(100)
        );
    }

    /// A batch of in-range patches; words are arbitrary, so batches mix
    /// valid instructions with undecodable garbage.
    fn arb_patch_batch(image_len: u32) -> impl Strategy<Value = Vec<Patch>> {
        proptest::collection::vec(
            (0..image_len, any::<u64>()).prop_map(|(addr, new_word)| Patch { addr, new_word }),
            1..5,
        )
    }

    proptest! {
        /// Satellite 4: any sequence of `PatchSet` apply/undo operations
        /// leaves the pre-decoded cache semantically identical to a fresh
        /// decode — at every intermediate step, not just after full unwind.
        #[test]
        fn prop_patch_stack_keeps_cache_coherent(
            batches in proptest::collection::vec(arb_patch_batch(4), 1..6),
        ) {
            let mut img = toy_image();
            let pristine = img.clone();
            let mut undos = Vec::new();
            for batch in &batches {
                undos.push(img.apply(batch).unwrap());
                prop_assert_eq!(&img.ops, &decode_all(img.words()));
            }
            while let Some(undo) = undos.pop() {
                img.revert(&undo);
                prop_assert_eq!(&img.ops, &decode_all(img.words()));
            }
            prop_assert_eq!(img, pristine);
        }
    }
}
