//! Seeded synthetic stores and request traces for serving benchmarks.
//!
//! Everything here is a pure function of the seed (SplitMix64), so the
//! `serve-bench` record is reproducible bit-for-bit across machines. The
//! query mix is deliberately skewed toward shapes that *share* mode-0
//! partials — hot slices and fibers over a few popular blocks — which is
//! the workload regime batching and caching exist for; the mix fractions
//! are configurable for colder traces.

use crate::engine::Request;
use crate::query::{ModeSel, Query};
use tucker_core::TuckerTensor;
use tucker_linalg::Matrix;
use tucker_tensor::io::IoScalar;
use tucker_tensor::Tensor;

/// SplitMix64: tiny, seedable, and plenty for workload shaping.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Shape of a synthetic serving workload.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Original tensor dimensions of the synthetic store.
    pub dims: Vec<usize>,
    /// Stored multilinear ranks.
    pub ranks: Vec<usize>,
    /// Number of requests in the trace.
    pub requests: usize,
    /// Mean arrival spacing in virtual seconds (exponential gaps).
    pub mean_gap: f64,
    /// RNG seed.
    pub seed: u64,
    /// Number of "hot" mode-0 blocks popular queries concentrate on.
    pub hot_blocks: usize,
    /// Fraction of requests hitting a hot block (the rest roam).
    pub hot_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            dims: vec![96, 80, 72],
            ranks: vec![24, 20, 18],
            requests: 400,
            mean_gap: 2.0e-4,
            seed: 0x5EED_7CC4,
            hot_blocks: 4,
            hot_fraction: 0.8,
        }
    }
}

/// Deterministic in-memory decomposition for benching: smooth trig factors
/// and core, no ST-HOSVD run needed. Serving never assumes orthonormality.
pub fn synthetic_store<T: IoScalar>(dims: &[usize], ranks: &[usize]) -> TuckerTensor<T> {
    let core = Tensor::from_fn(ranks, |idx| {
        let mut acc = 0.0f64;
        for (n, &i) in idx.iter().enumerate() {
            acc += ((i * (n + 2) + 1) as f64 * 0.61).sin();
        }
        T::from_f64(acc)
    });
    let factors = dims
        .iter()
        .zip(ranks)
        .enumerate()
        .map(|(n, (&d, &r))| {
            Matrix::from_fn(d, r, |i, j| T::from_f64(((i * r + j + 3 * n + 1) as f64 * 0.23).cos()))
        })
        .collect();
    TuckerTensor { core, factors }
}

/// Generate the seeded request trace: arrival times with exponential gaps,
/// queries drawn from a mix of slices, fibers, elements, hyperslabs, and
/// strided downsamples concentrated on a few hot mode-0 blocks.
pub fn synthetic_trace(cfg: &WorkloadConfig) -> Vec<Request> {
    assert!(!cfg.dims.is_empty(), "workload needs at least one mode");
    let mut rng = SplitMix64::new(cfg.seed);
    let nmodes = cfg.dims.len();
    let block = 32usize;
    let nblocks = cfg.dims[0].div_ceil(block).max(1);
    let hot: Vec<usize> =
        (0..cfg.hot_blocks.min(nblocks)).map(|_| rng.below(nblocks)).collect();

    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        // Exponential inter-arrival gap: -mean · ln(1 - u).
        t += -cfg.mean_gap * (1.0 - rng.f64()).ln();
        // Pick the mode-0 locality: a hot block or anywhere.
        let b = if !hot.is_empty() && rng.f64() < cfg.hot_fraction {
            hot[rng.below(hot.len())]
        } else {
            rng.below(nblocks)
        };
        let b0 = b * block;
        let bw = block.min(cfg.dims[0] - b0);
        let shape = rng.below(10);
        let mut sel = Vec::with_capacity(nmodes);
        match shape {
            // 0-3: mode-0 fiber through the hot block — the shape that
            // shares the block partial best (tail is a dot product).
            0..=3 => {
                sel.push(ModeSel::Strided { start: b0, step: 1, count: bw });
                for &d in &cfg.dims[1..] {
                    sel.push(ModeSel::Index(rng.below(d)));
                }
            }
            // 4-6: thin slab — the block in mode 0, narrow windows after.
            4..=6 => {
                sel.push(ModeSel::Strided { start: b0, step: 1, count: bw });
                for &d in &cfg.dims[1..] {
                    let w = (d / 8).max(1);
                    let start = rng.below(d - w + 1);
                    sel.push(ModeSel::Range(start, start + w));
                }
            }
            // 7: single element inside the block.
            7 => {
                sel.push(ModeSel::Index(b0 + rng.below(bw)));
                for &d in &cfg.dims[1..] {
                    sel.push(ModeSel::Index(rng.below(d)));
                }
            }
            // 8: strided downsample of the block × small ranges.
            8 => {
                let step = 1 + rng.below(3);
                sel.push(ModeSel::Strided { start: b0, step, count: bw.div_ceil(step) });
                for &d in &cfg.dims[1..] {
                    let w = (d / 4).max(1);
                    let start = rng.below(d - w + 1);
                    sel.push(ModeSel::Range(start, start + w));
                }
            }
            // 9: general hyperslab anywhere (the cold, unaligned tail).
            _ => {
                for &d in &cfg.dims {
                    let w = (d / 4).max(1);
                    let start = rng.below(d - w + 1);
                    sel.push(ModeSel::Range(start, start + w));
                }
            }
        }
        out.push(Request::new(t, Query { sel }));
    }
    out
}

/// Assign tenants and priorities to an existing trace in a second seeded
/// pass: tenant uniform over `tenants`, priority low with probability
/// `low_fraction`. A separate RNG keeps arrivals and queries bit-identical
/// to the plain [`synthetic_trace`] output, so multi-tenant runs stay
/// CRC-comparable with single-tenant ones.
pub fn assign_tenants(trace: &mut [Request], tenants: usize, low_fraction: f64, seed: u64) {
    assert!(tenants > 0, "need at least one tenant");
    let mut rng = SplitMix64::new(seed ^ 0x7E4A_4E75_0000_0001);
    for r in trace {
        r.tenant = rng.below(tenants);
        r.priority = if rng.f64() < low_fraction {
            crate::engine::Priority::Low
        } else {
            crate::engine::Priority::High
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_valid() {
        let cfg = WorkloadConfig { requests: 64, ..WorkloadConfig::default() };
        let a = synthetic_trace(&cfg);
        let b = synthetic_trace(&cfg);
        assert_eq!(a.len(), 64);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.query, y.query);
        }
        for r in &a {
            r.query.validate(&cfg.dims).expect("generated queries must be valid");
        }
        // Arrivals are sorted by construction.
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn different_seeds_differ() {
        let base = WorkloadConfig { requests: 32, ..WorkloadConfig::default() };
        let other = WorkloadConfig { seed: 99, ..base.clone() };
        let a = synthetic_trace(&base);
        let b = synthetic_trace(&other);
        assert!(a.iter().zip(&b).any(|(x, y)| x.query != y.query));
    }

    #[test]
    fn synthetic_store_matches_requested_shape() {
        let tk: TuckerTensor<f64> = synthetic_store(&[10, 8], &[4, 3]);
        assert_eq!(tk.original_dims(), vec![10, 8]);
        assert_eq!(tk.ranks(), vec![4, 3]);
    }
}
