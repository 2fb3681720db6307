//! Row fingerprints: a stable content hash of a request's encoded rows.
//!
//! [`row_fingerprint`] seeds the recovery-resampling RNG stream of each
//! `/explain` job (see [`crate::batcher`]). The stream depends on the
//! rows alone, never on which worker pops the job, so changing
//! `CFX_SERVE_WORKERS` cannot change any response byte: the
//! "parallel == serial bitwise" invariant extended to serving.
//!
//! The hash runs over the rows' f32 **bit patterns** in little-endian
//! byte order (no float arithmetic, no pointer-width dependence), so a
//! request fingerprints identically on every architecture.
//! `crates/serve/tests/shard_prop.rs` pins known vectors. FNV-1a is the
//! same function the proptest shim uses for test seeds: 8 bytes of
//! state and one multiply per byte.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over raw bytes. `fnv1a64(b"") == FNV_OFFSET`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content fingerprint of a request's encoded rows: FNV-1a over each
/// value's f32 bit pattern (little-endian), with a length-prefix per
/// row so `[[a, b]]` and `[[a], [b]]` cannot collide structurally.
///
/// The fingerprint is the RNG stream of the job (see
/// [`crate::batcher`]). `-0.0` and `0.0` hash differently on purpose:
/// they are different encoded rows and may decode differently
/// downstream.
pub fn row_fingerprint(rows: &[Vec<f32>]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    for row in rows {
        eat(&(row.len() as u64).to_le_bytes());
        for v in row {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        // Standard FNV-1a test vectors (draft-eastlake-fnv).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fingerprint_separates_structure_and_sign() {
        let a = row_fingerprint(&[vec![1.0, 2.0]]);
        let b = row_fingerprint(&[vec![1.0], vec![2.0]]);
        assert_ne!(a, b, "row structure must be part of the fingerprint");
        assert_ne!(
            row_fingerprint(&[vec![0.0]]),
            row_fingerprint(&[vec![-0.0]]),
            "distinct bit patterns must fingerprint differently"
        );
        assert_eq!(a, row_fingerprint(&[vec![1.0, 2.0]]));
    }
}
