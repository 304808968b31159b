//! The four (algorithm × precision) variants and the simulated-parallel
//! compression runner used by the application-dataset experiments.

use std::collections::BTreeMap;
use tucker_core::{sthosvd_parallel, SthosvdConfig};
use tucker_core::config::SvdMethod;
use tucker_dtensor::{DistTensor, ProcessorGrid};
use tucker_linalg::Scalar;
use tucker_mpisim::{Comm, CostModel, Simulator};
use tucker_tensor::Tensor;

/// Working precision of a variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// `f32` (ε ≈ 1.2e-7).
    Single,
    /// `f64` (ε ≈ 2.2e-16).
    Double,
}

impl Precision {
    /// "single" / "double".
    pub fn label(self) -> &'static str {
        match self {
            Precision::Single => "single",
            Precision::Double => "double",
        }
    }

    /// Bytes per scalar: 4 / 8.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }
}

/// One of the paper's four variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    /// SVD algorithm.
    pub method: SvdMethod,
    /// Working precision.
    pub precision: Precision,
}

impl Variant {
    /// All four variants in the paper's fastest-to-slowest order for loose
    /// tolerances: Gram single, QR single, Gram double, QR double.
    pub fn all() -> [Variant; 4] {
        [
            Variant { method: SvdMethod::Gram, precision: Precision::Single },
            Variant { method: SvdMethod::Qr, precision: Precision::Single },
            Variant { method: SvdMethod::Gram, precision: Precision::Double },
            Variant { method: SvdMethod::Qr, precision: Precision::Double },
        ]
    }

    /// Label like "QR single".
    pub fn label(&self) -> String {
        format!("{} {}", self.method.label(), self.precision.label())
    }
}

/// Result of one compression run.
#[derive(Clone, Debug)]
pub struct CompressionRow {
    /// Variant label.
    pub variant: String,
    /// Compression ratio (original / stored parameters).
    pub compression: f64,
    /// Exact relative reconstruction error (computed in `f64`).
    pub error: f64,
    /// Tail-based error estimate reported by ST-HOSVD.
    pub estimated_error: f64,
    /// Multilinear ranks.
    pub ranks: Vec<usize>,
    /// Modeled makespan, seconds (α-β-γ virtual clock).
    pub modeled_time: f64,
    /// Host wall time of the slowest simulated rank, seconds.
    pub wall_time: f64,
    /// Per-phase modeled seconds on the slowest rank (flat + per-mode keys).
    pub phases: BTreeMap<String, f64>,
    /// Per-mode singular values (normalized to σ₁ = 1), for the spectra
    /// figures.
    pub singular_values: Vec<Vec<f64>>,
}

/// Run one variant's parallel ST-HOSVD on a simulated machine and measure
/// everything the paper's tables report.
///
/// The reference tensor is always generated in `f64` and rounded to the
/// working precision, so all variants compress (roundings of) the same data;
/// the reconstruction error is evaluated against the `f64` reference.
pub fn run_compression<T: Scalar>(
    x64: &Tensor<f64>,
    grid_dims: &[usize],
    cfg: &SthosvdConfig,
    variant: Variant,
) -> CompressionRow {
    let x: Tensor<T> = x64.cast();
    let grid = ProcessorGrid::new(grid_dims);
    let p = grid.total();
    let sim = Simulator::new(p).with_cost(CostModel::andes());
    let cfg = cfg.clone().method(variant.method);
    let out = sim.run(|ctx| {
        let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
        let r = sthosvd_parallel(ctx, &dt, &cfg).expect("sthosvd failed");
        let mut world = Comm::world(ctx);
        let tk = r.to_tucker(ctx, &mut world);
        (tk, r.estimated_error.to_f64(), r.singular_values)
    });
    let b = out.breakdown();
    let (tk, est, sv) = out.results.into_iter().next().unwrap();
    // Exact error in f64 against the f64 reference.
    let recon64: Tensor<f64> = tk.reconstruct().cast();
    let error = x64.relative_error_to(&recon64);
    let sv64: Vec<Vec<f64>> = sv
        .iter()
        .map(|s| {
            let s0 = s.first().map(|v| v.to_f64()).unwrap_or(1.0).max(1e-300);
            s.iter().map(|v| v.to_f64() / s0).collect()
        })
        .collect();
    CompressionRow {
        variant: variant.label(),
        compression: tk.compression_ratio(),
        error,
        estimated_error: est,
        ranks: tk.ranks(),
        modeled_time: b.modeled_time,
        wall_time: b.wall_time,
        phases: b.phases.iter().map(|(k, v)| (k.clone(), v.modeled)).collect(),
        singular_values: sv64,
    }
}

/// Dispatch [`run_compression`] on the variant's precision.
pub fn run_variant(
    x64: &Tensor<f64>,
    grid_dims: &[usize],
    cfg: &SthosvdConfig,
    variant: Variant,
) -> CompressionRow {
    match variant.precision {
        Precision::Single => run_compression::<f32>(x64, grid_dims, cfg, variant),
        Precision::Double => run_compression::<f64>(x64, grid_dims, cfg, variant),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_variants_with_distinct_labels() {
        let all = Variant::all();
        assert_eq!(all.len(), 4);
        let labels: Vec<String> = all.iter().map(|v| v.label()).collect();
        assert_eq!(labels[0], "Gram single");
        assert_eq!(labels[3], "QR double");
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn runner_produces_consistent_row() {
        let x = tucker_data::superdiagonal_tensor::<f64>(
            &[8, 8, 8],
            &[1.0, 0.3, 0.1, 0.03, 0.01, 1e-4, 1e-6, 1e-8],
            Some(5),
        );
        let cfg = SthosvdConfig::with_tolerance(1e-2);
        let row = run_variant(&x, &[2, 2, 1], &cfg, Variant::all()[3]); // QR double
        assert!(row.error <= 1.05e-2, "err {}", row.error);
        assert!(row.compression > 1.0);
        assert_eq!(row.ranks.len(), 3);
        assert!(row.modeled_time > 0.0);
        assert!(row.phases.contains_key("LQ"));
        assert_eq!(row.singular_values.len(), 3);
        assert!((row.singular_values[0][0] - 1.0).abs() < 1e-12);
    }
}
