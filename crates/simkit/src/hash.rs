//! Stable, dependency-free content hashing (FNV-1a, 64 bit).
//!
//! The campaign journal keys its artifacts by content: image fingerprint,
//! pack-set hash, campaign-config hash. Those keys must be stable across
//! processes and compiler versions, so they cannot use
//! `std::hash::DefaultHasher` (whose output is explicitly unspecified).
//! FNV-1a is the same function `mvm::CodeImage::fingerprint` uses for code
//! words, kept here in one place for byte slices and string sequences.

/// FNV-1a offset basis (64 bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64 bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes (for chained fields, feed each
/// field's bytes plus a separator so `["ab","c"]` and `["a","bc"]` differ).
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes a sequence of strings, NUL-separating items so that item
/// boundaries contribute to the hash. The empty sequence hashes to the
/// offset basis.
pub fn fnv1a_strs<S: AsRef<str>>(items: &[S]) -> u64 {
    let mut hash = FNV_OFFSET;
    for item in items {
        hash = fnv1a_extend(hash, item.as_ref().as_bytes());
        hash = fnv1a_extend(hash, &[0]);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference FNV-1a values.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn item_boundaries_matter() {
        assert_ne!(fnv1a_strs(&["ab", "c"]), fnv1a_strs(&["a", "bc"]));
        assert_ne!(fnv1a_strs(&["ab"]), fnv1a_strs(&["ab", ""]));
        assert_eq!(fnv1a_strs::<&str>(&[]), FNV_OFFSET);
    }

    #[test]
    fn deterministic_across_calls() {
        let names = ["rtl_allocate_heap", "nt_open_file"];
        assert_eq!(fnv1a_strs(&names), fnv1a_strs(&names));
    }
}
