//! A first-party stable 64-bit hash.
//!
//! `std::hash` offers no stability promise — `SipHash` keys differ per
//! process by design, and even a fixed-key `DefaultHasher` is documented
//! as free to change between compiler releases. Content-addressed keys
//! (`tft-serve`'s `spec_hash`) must be **byte-stable across platforms,
//! processes, and releases**, so this module pins its own function:
//! FNV-1a over the input bytes, finished with the splitmix64 avalanche —
//! the same construction `netsim::SimRng::fork` has pinned goldens for.
//!
//! The constants and the finalizer are part of the public contract: the
//! golden values in the tests below must never change, or every cached
//! artifact keyed by a stable hash silently orphans.

use crate::rng::mix64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The FNV-1a round — xor in a byte, multiply by the FNV prime — over
/// `bytes`.
fn fnv_fold(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Hash `bytes` to a stable 64-bit value.
///
/// Stable across platforms, endianness, processes, and releases; suitable
/// for content-addressing and cache keys, **not** for adversarial inputs
/// (it is not a cryptographic hash, and collisions can be constructed).
pub fn stable64(bytes: &[u8]) -> u64 {
    mix64(fnv1a64(bytes))
}

/// Plain 64-bit FNV-1a of `bytes`, without [`stable64`]'s avalanche
/// finish: the raw state [`Hasher64`] accumulates. Use it where a plain
/// FNV-1a value is wanted (an archived report digest, an RNG fork index,
/// a grouping key); prefer [`stable64`] for new keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_OFFSET, bytes)
}

/// Incremental form of [`stable64`]: feed bytes in any segmentation, the
/// result depends only on the concatenation.
#[derive(Debug, Clone)]
pub struct Hasher64 {
    state: u64,
}

impl Hasher64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher64 {
        Hasher64 { state: FNV_OFFSET }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = fnv_fold(self.state, bytes);
    }

    /// Finish with the splitmix64 avalanche so short or similar inputs
    /// still produce well-spread values.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stability contract: these goldens pin the function forever.
    /// A failure here means cached artifacts keyed by [`stable64`] would
    /// orphan — change the caches' version tag, not these values.
    #[test]
    fn golden_values_are_pinned() {
        assert_eq!(stable64(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(stable64(b"a"), 0x02c0_bdbf_4814_20f8);
        assert_eq!(stable64(b"spec"), 0x5875_1e2f_1850_583f);
        assert_eq!(
            stable64(b"The quick brown fox jumps over the lazy dog"),
            0x1e8e_6a07_9b16_7ea7
        );
    }

    #[test]
    fn stable64_is_the_finished_fnv1a64() {
        for input in [
            &b""[..],
            b"a",
            b"spec",
            b"The quick brown fox jumps over the lazy dog",
        ] {
            assert_eq!(stable64(input), mix64(fnv1a64(input)));
        }
        // The FNV-1a reference value for the empty input is its offset basis.
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn segmentation_does_not_matter() {
        let data = b"content-addressed study artifacts";
        let whole = stable64(data);
        for split in 0..data.len() {
            let mut h = Hasher64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_spread() {
        // Not a collision-resistance claim, just a sanity check that the
        // avalanche decorrelates adjacent inputs.
        let a = stable64(b"study-0");
        let b = stable64(b"study-1");
        assert_ne!(a, b);
        assert_ne!(a ^ b, 0);
        assert!((a ^ b).count_ones() > 8, "poor avalanche: {a:#x} vs {b:#x}");
    }
}
