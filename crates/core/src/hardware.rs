//! Hardware-fault extension.
//!
//! The paper's conclusion: *"a full dependability benchmark for web servers
//! can be defined by adding more fault models (hardware faults, operator
//! faults, etc.)"*. This module adds the classic hardware model — transient
//! single-bit flips in code memory — using the same two-step structure as
//! G-SWFIT: locations are enumerated offline into an ordinary
//! [`Faultload`], which the fingerprint check, the store and the injector
//! handle like a software faultload.
//!
//! Unlike software faults, bit flips are not constrained to decode into
//! *plausible compiler output*; they only need to decode at all (an
//! undecodable word would be an instruction-fetch machine check, which the
//! VM also contains, but keeping flips decodable matches the usual SEU
//! model where the corrupted word still executes).

use mvm::{CodeImage, Instr, Patch};

use crate::{FaultDef, FaultType, Faultload};

/// Enumerates one bit flip per instruction over `image`, optionally
/// restricted to `functions` (the same fine-tuning rule as software
/// faultloads).
///
/// Each word gets the flip of its lowest bit whose result still decodes
/// (and differs from the original). Every flip becomes a single-patch
/// [`FaultDef`] with id `FLIP@func+offset:bit`; the fault type is
/// meaningless for hardware faults and set to the closest "wrong construct"
/// type, WVAV, purely for bookkeeping. The faultload carries the image
/// fingerprint, so the campaign's pre-injection build check and the
/// persistent store work for hardware faultloads too.
pub fn bit_flips(image: &CodeImage, functions: Option<&[String]>) -> Faultload {
    let mut faults = Vec::new();
    for func in image.funcs() {
        if let Some(allowed) = functions {
            if !allowed.contains(&func.name) {
                continue;
            }
        }
        for addr in func.entry..func.end {
            let word = image.words()[addr as usize];
            let flip = (0..64u8)
                .map(|bit| (bit, word ^ (1u64 << bit)))
                .find(|&(_, flipped)| Instr::decode(flipped).is_ok());
            if let Some((bit, new_word)) = flip {
                faults.push(FaultDef {
                    id: format!("FLIP@{}+{}:{bit}", func.name, addr - func.entry),
                    fault_type: FaultType::Wvav,
                    func: func.name.clone(),
                    site: addr,
                    patches: vec![Patch { addr, new_word }],
                    note: format!("hardware bit flip (bit {bit})"),
                });
            }
        }
    }
    Faultload {
        target: image.name().to_string(),
        fingerprint: Some(image.fingerprint()),
        packs: Vec::new(),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::compile;

    const SRC: &str = r#"
        fn f(a, b) {
            var r = 0;
            if (a > b) { r = a - b; }
            return r;
        }
    "#;

    #[test]
    fn generates_decodable_flips() {
        let p = compile("t", SRC).unwrap();
        let hw = bit_flips(p.image(), None);
        assert!(!hw.is_empty());
        assert!(hw.len() <= p.image().len(), "at most one flip per word");
        assert!(hw.matches_image(p.image()));
        for fault in &hw.faults {
            let [patch] = fault.patches[..] else {
                panic!("{} is not a single-word patch", fault.id)
            };
            assert_eq!(patch.addr, fault.site);
            let original = p.image().words()[patch.addr as usize];
            let bit = (patch.new_word ^ original).trailing_zeros();
            assert_eq!(patch.new_word ^ original, 1u64 << bit, "{}", fault.id);
            assert!(fault.id.ends_with(&format!(":{bit}")), "{}", fault.id);
            assert!(Instr::decode(patch.new_word).is_ok(), "{}", fault.id);
        }
    }

    #[test]
    fn restriction_by_function() {
        let p = compile("t", "fn a() { return 1; } fn b() { return 2; }").unwrap();
        let hw = bit_flips(p.image(), Some(&["b".to_string()]));
        assert!(!hw.is_empty());
        assert!(hw.faults.iter().all(|f| f.func == "b"));
    }

    #[test]
    fn converts_to_injectable_faultload() {
        use crate::Injector;
        let mut p = compile("t", SRC).unwrap();
        let fl = bit_flips(p.image(), None);
        let pristine = p.image().words().to_vec();
        let mut injector = Injector::new();
        for fault in &fl.faults {
            injector.inject(p.image_mut(), fault).unwrap();
            injector.restore(p.image_mut());
        }
        assert_eq!(p.image().words(), &pristine[..]);
    }
}
