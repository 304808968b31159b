//! Seeded input generation: the benchmark's own SplitMix64 stream, a Zipf
//! sampler, and the fingerprint that makes a changed generator visible as a
//! changed workload.

use tucker_core::crc32::Crc32;

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, full period.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for one named purpose of one seed.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = Crc32::new();
        h.update(purpose.as_bytes());
        let mut s = SplitMix64(seed ^ ((h.finish() as u64) << 32 | 0x9E37_79B9));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn centered(&mut self) -> f64 {
        self.unit() - 0.5
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Zipf(`skew`) over ranks `0..n`: `P(k) ∝ 1/(k+1)^skew`, sampled by
/// inverting the cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(skew);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn prob(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }
}

/// Scalars whose exact bit pattern can be read, for bitwise comparisons.
pub trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Bits for u64 {
    fn bits(self) -> u64 {
        self
    }
}

/// 64-bit digest of a slice's bit patterns and length. Two slices get the
/// same digest only if they are bitwise equal (up to a 2⁻⁶⁴ collision), and
/// it runs at memory speed, so every served answer can be checked inside the
/// benchmark loop.
pub fn digest<T: Bits>(data: &[T]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ data.len() as u64;
    for &v in data {
        h = (h ^ v.bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    h
}

/// Input fingerprint: folds the digests of everything a workload generated
/// (tensors, query trace, drift schedule) into one printed number.
#[derive(Default)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn add<T: Bits>(&mut self, data: &[T]) {
        self.0 = (self.0.rotate_left(17) ^ digest(data)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let draw = |seed, purpose| {
            let mut r = SplitMix64::stream(seed, purpose);
            [r.next_u64(), r.next_u64(), r.next_u64(), r.next_u64()]
        };
        let (a, b, c, d) = (draw(7, "q"), draw(7, "q"), draw(8, "q"), draw(7, "r"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn zipf_follows_its_distribution() {
        let z = Zipf::new(32, 1.0);
        let mut rng = SplitMix64::stream(7, "zipf");
        let n = 200_000;
        let mut hist = [0usize; 32];
        for _ in 0..n {
            hist[z.sample(&mut rng)] += 1;
        }
        for k in [0, 1, 7, 31] {
            let got = hist[k] as f64 / n as f64;
            assert!(
                (got - z.prob(k)).abs() < 0.02 * z.prob(k).max(0.05),
                "rank {k}: {got} vs {}",
                z.prob(k)
            );
        }
        let again: Vec<usize> = {
            let mut r = SplitMix64::stream(7, "zipf");
            (0..50).map(|_| z.sample(&mut r)).collect()
        };
        let mut r = SplitMix64::stream(7, "zipf");
        assert_eq!(again, (0..50).map(|_| z.sample(&mut r)).collect::<Vec<_>>());
    }

    #[test]
    fn digest_sees_every_bit_and_the_length() {
        let a = [1.0f64, 2.0, 3.0];
        let mut b = a;
        b[1] = f64::from_bits(2.0f64.to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..2]), digest(&a));
        assert_ne!(digest(&[0.0f64]), digest(&[-0.0f64]));
        let mut f = Fingerprint::default();
        f.add(&a);
        let mut g = Fingerprint::default();
        g.add(&b);
        assert_ne!(f.value(), g.value());
    }
}
