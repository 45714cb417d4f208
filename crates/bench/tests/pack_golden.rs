//! Golden byte-identity: the declarative `odc-classic` pack must reproduce
//! the hard-coded seed scanner's fault maps exactly.
//!
//! The fixtures under `tests/fixtures/` were captured from the seed scanner
//! (before operators-as-data), so they carry no pack-provenance stamp. This
//! test re-scans both OS editions with the pack-compiled library, strips the
//! additive `packs` stamp, and requires the serialized faultload to match
//! the fixture byte for byte — fault ids, sites, patch bytes and notes all
//! included. Any drift here means the pack interpreter no longer
//! reproduces the seed scanner's hard-coded operators.
//!
//! After an *intentional* operator change, re-bless the fixtures with
//! `PACK_GOLDEN_BLESS=1 cargo test -p bench --test pack_golden` and commit
//! the updated files (and the counts/hashes below).

use simos::{Edition, Os};
use swfit_core::Scanner;

fn fixture_path(edition: Edition) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("golden-scan-{}.json", edition.name()))
}

#[test]
fn odc_classic_pack_reproduces_the_seed_fault_maps_byte_identically() {
    // (fault count, fnv1a of the serialized faultload) at the seed.
    let expected = [
        (Edition::Nimbus2000, 553_usize, 0x7673_b5dc_5332_03f2_u64),
        (Edition::NimbusXp, 830, 0x7db7_4920_81b3_9bde),
    ];
    for (edition, count, hash) in expected {
        let os = Os::boot(edition).expect("boots");
        let mut fl = Scanner::standard().scan_image(os.program().image());
        assert_eq!(fl.packs.len(), 1, "scan is stamped with pack provenance");
        assert_eq!(fl.packs[0].name, "odc-classic");
        // The stamp is additive; the seed fixtures predate it.
        fl.packs.clear();
        let json = fl.to_json().expect("serializes");
        let path = fixture_path(edition);
        if std::env::var_os("PACK_GOLDEN_BLESS").is_some() {
            std::fs::write(&path, &json).expect("fixture written");
            eprintln!(
                "blessed {}: {} faults, fnv1a {:#018x}",
                path.display(),
                fl.len(),
                simkit::hash::fnv1a(json.as_bytes())
            );
            continue;
        }
        assert_eq!(fl.len(), count, "{edition}: fault count drifted");
        assert_eq!(
            simkit::hash::fnv1a(json.as_bytes()),
            hash,
            "{edition}: serialized faultload content drifted"
        );
        let golden = std::fs::read_to_string(&path).expect("fixture readable");
        assert_eq!(
            json, golden,
            "{edition}: fault map is not byte-identical to the seed fixture"
        );
    }
}
