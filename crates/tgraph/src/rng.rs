//! A small, deterministic, dependency-free PRNG.
//!
//! The workspace builds in offline environments with no external crates, so
//! everything that needs randomness — the synthetic dataset generators, the
//! randomized property tests, and the schedule-perturbation race harness —
//! draws from this generator instead of the `rand` ecosystem. Determinism
//! is load-bearing: a `(seed, call sequence)` pair must produce the same
//! stream on every platform and in every build profile, because generated
//! graphs feed the paper's exact primitive-count identities.
//!
//! The core is splitmix64 (Steele et al., "Fast splittable pseudorandom
//! number generators", OOPSLA 2014): a 64-bit counter stepped by the golden
//! gamma and finalized with a two-round mix. It is statistically strong for
//! simulation workloads, trivially seedable, and — unlike lagged or vector
//! generators — has no warm-up or state-size concerns.

/// A deterministic 64-bit PRNG (splitmix64 stream).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`. Equal seeds yield equal
    /// streams on every platform.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution
    /// is exactly uniform (no modulo bias).
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bounded(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
            // Rejected sample from the biased tail; redraw.
        }
    }

    /// A uniform `i64` in the half-open range `[lo, hi)`.
    #[inline]
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo.wrapping_add(self.bounded(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// A uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.bounded(bound as u64) as usize
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform boolean.
    #[inline]
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// A fresh generator seeded from this one (splittable streams: give
    /// each worker or test case its own independent substream).
    #[must_use]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn known_vector() {
        // Pin the stream so a refactor cannot silently change generated
        // datasets: splitmix64(seed=0) begins with this value.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn bounded_is_in_range_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.bounded(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn signed_ranges() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let v = rng.range_i64(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = SplitMix64::new(11);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 0.5");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn split_streams_diverge() {
        let mut rng = SplitMix64::new(1);
        let mut a = rng.split();
        let mut b = rng.split();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
