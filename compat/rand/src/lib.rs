//! Offline, API-compatible subset of `rand` 0.8.
//!
//! The container this repository builds in has no crates.io access, so the
//! handful of `rand` APIs the workspace uses are vendored here. Fidelity
//! matters: campaigns are seeded and their archived results
//! (`docs/repro_output_n250.txt`, EXPERIMENTS.md) were produced with rand
//! 0.8's `SmallRng`, so this implements the same generator —
//! xoshiro256++ with SplitMix64 `seed_from_u64` — and the same Lemire
//! widening-multiply `gen_range` sampling, bit-for-bit.

/// Byte-level RNG core, mirroring `rand_core::RngCore`.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Seedable construction, mirroring `rand_core::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The fixed-size seed.
    type Seed: Default + AsMut<[u8]>;

    /// Construct from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Construct from a `u64`, expanding it over the full seed. The
    /// expansion function is generator-specific in rand 0.8 (xoshiro uses
    /// SplitMix64); implementors override accordingly.
    fn seed_from_u64(mut state: u64) -> Self {
        const PHI: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let n = chunk.len();
            chunk.copy_from_slice(&z.to_le_bytes()[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Sampling within a range — the subset of `rand::distributions::uniform`
/// the workspace uses (`gen_range` over `Range` / `RangeInclusive` of
/// unsigned integers).
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! uniform_impl {
    ($ty:ty, $wide:ty, $next:ident) => {
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "empty gen_range");
                let range = self.end.wrapping_sub(self.start);
                // Lemire widening-multiply rejection, exactly as rand 0.8's
                // `UniformInt::sample_single` computes its zone.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$next() as $ty;
                    let m = (v as $wide).wrapping_mul(range as $wide);
                    let lo = m as $ty;
                    let hi = (m >> <$ty>::BITS) as $ty;
                    if lo <= zone {
                        return self.start.wrapping_add(hi);
                    }
                }
            }
        }

        impl SampleRange<$ty> for core::ops::RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty gen_range");
                let range = end.wrapping_sub(start).wrapping_add(1);
                if range == 0 {
                    // Full-width range: every value is in range.
                    return rng.$next() as $ty;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$next() as $ty;
                    let m = (v as $wide).wrapping_mul(range as $wide);
                    let lo = m as $ty;
                    let hi = (m >> <$ty>::BITS) as $ty;
                    if lo <= zone {
                        return start.wrapping_add(hi);
                    }
                }
            }
        }
    };
}

uniform_impl!(u32, u64, next_u32);
uniform_impl!(u64, u128, next_u64);
uniform_impl!(usize, u128, next_u64);

/// User-facing RNG methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform draw from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// rand 0.8's `SmallRng` on 64-bit platforms: xoshiro256++.
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            // Upper bits: the low bits of xoshiro have linear dependencies.
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> SmallRng {
            if seed.iter().all(|&b| b == 0) {
                return SmallRng::seed_from_u64(0);
            }
            let mut s = [0u64; 4];
            for (i, w) in s.iter_mut().enumerate() {
                *w = u64::from_le_bytes(seed[i * 8..i * 8 + 8].try_into().unwrap());
            }
            SmallRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seed_from_u64_matches_rand08_xoshiro256pp() {
        // Reference values from rand 0.8.5's SmallRng (xoshiro256++,
        // SplitMix64 seeding) on x86_64.
        let mut r = SmallRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![5987356902031041503, 7051070477665621255, 6633766593972829180, 211316841551650330]
        );
    }

    #[test]
    fn gen_range_is_deterministic_and_in_bounds() {
        let mut r = SmallRng::seed_from_u64(0xCA2E);
        for _ in 0..10_000 {
            let a = r.gen_range(0u64..17);
            assert!(a < 17);
            let b = r.gen_range(1u64..=5);
            assert!((1..=5).contains(&b));
            let c = r.gen_range(0u32..64);
            assert!(c < 64);
        }
        let mut x = SmallRng::seed_from_u64(9);
        let mut y = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(x.gen_range(0u64..1000), y.gen_range(0u64..1000));
        }
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = SmallRng::seed_from_u64(3);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
