//! Parallel Gram matrix of a tensor unfolding — TuckerMPI's kernel for the
//! Gram-SVD path ([6, Alg. 4], paper §2.3 and §3.5 eq. 11).
//!
//! Local phase: if `P_n = 1` the local unfolding already spans all `J_n`
//! rows and the sequential driver's [`Unfolding::gram`] runs on it as is;
//! otherwise the fiber redistribution produces a column-major stripe for one
//! `syrk`. Then a world all-reduce of the `J_n²` Gram matrix.
//!
//! Cost per rank: `γ · J_n·J*/P*` flops for the local `syrk`, plus the fiber
//! redistribution (`β·J*/P*`, `α·P_n`) and the all-reduce.

use crate::dist::DistTensor;
use crate::guard::{check_finite, NumericalFault};
use crate::redistribute::redistribute;
use tucker_linalg::{syrk_lower_panels, Matrix, Scalar};
use tucker_mpisim::{Comm, Ctx};
use tucker_tensor::Unfolding;

/// Gram matrix `G = X_(n) X_(n)ᵀ` of the mode-`n` unfolding of a distributed
/// tensor, returned redundantly (identically) on every rank.
///
/// Guarded: non-finite values after the fiber redistribution or the world
/// all-reduce surface as a typed [`NumericalFault`] instead of flowing into
/// the eigendecomposition.
pub fn parallel_gram<T: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dt: &DistTensor<T>,
    n: usize,
) -> Result<Matrix<T>, NumericalFault> {
    gram_in(ctx, world, dt, n)
}

/// Mixed-precision parallel Gram (the paper's §5 future work): the local
/// `syrk` accumulates in `f64` over `T`-precision data and the all-reduce
/// carries the `f64` Gram matrix. Data movement during redistribution stays
/// at `T` width; only the small `J_n²` reduction pays double width.
pub fn parallel_gram_mixed<T: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dt: &DistTensor<T>,
    n: usize,
) -> Result<Matrix<f64>, NumericalFault> {
    gram_in(ctx, world, dt, n)
}

/// The parallel Gram in accumulator precision `A`, whose width the `syrk`
/// flops are charged at.
fn gram_in<T: Scalar, A: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dt: &DistTensor<T>,
    n: usize,
) -> Result<Matrix<A>, NumericalFault> {
    let m = dt.global_dims()[n];
    let p_n = dt.grid().dims()[n];

    let local_g = if p_n == 1 {
        let unf = Unfolding::new(dt.local(), n);
        ctx.charge_syrk_flops(m as f64 * m as f64 * unf.cols() as f64, A::BYTES);
        unf.gram()
    } else {
        let z = ctx.phase("Redistribute", |c| redistribute(c, dt, n, Some("Gram/redistribute")))?;
        ctx.charge_syrk_flops(m as f64 * m as f64 * z.cols() as f64, A::BYTES);
        syrk_lower_panels(m, &[z.as_ref()])
    };

    let summed =
        ctx.phase("Gram/allreduce", |c| world.allreduce_sum_vec(c, local_g.into_data()));
    check_finite(ctx.rank(), "Gram/allreduce", n, &summed)?;
    Ok(Matrix::from_col_major(m, m, summed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessorGrid;
    use tucker_linalg::syrk_lower;
    use tucker_mpisim::{CostModel, Simulator};
    use tucker_tensor::Tensor;

    fn test_tensor(dims: &[usize]) -> Tensor<f64> {
        Tensor::from_fn(dims, |i| {
            let mut v = 0.7;
            for (k, &x) in i.iter().enumerate() {
                v += ((x + 2) * (k + 1)) as f64 * 0.13;
            }
            v.cos()
        })
    }

    fn check(dims: &[usize], grid_dims: &[usize], n: usize) {
        let x = test_tensor(dims);
        let p: usize = grid_dims.iter().product();
        let out = Simulator::new(p).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(grid_dims), ctx.rank());
            let mut world = Comm::world(ctx);
            parallel_gram(ctx, &mut world, &dt, n).unwrap()
        });
        let want = syrk_lower(Unfolding::new(&x, n).to_matrix().as_ref());
        for g in out.results {
            assert!(g.max_abs_diff(&want) < 1e-11, "mode {n} grid {grid_dims:?}");
        }
    }

    #[test]
    fn all_modes_mixed_grid() {
        for n in 0..3 {
            check(&[4, 5, 6], &[2, 1, 2], n);
        }
    }

    #[test]
    fn fiber_of_one_everywhere() {
        // Sequential degenerate case: 1 rank.
        check(&[3, 4, 5], &[1, 1, 1], 1);
    }

    #[test]
    fn distributed_mode_with_uneven_rows() {
        check(&[7, 4, 3], &[4, 1, 1], 0);
    }

    #[test]
    fn four_mode_tensor() {
        for n in 0..4 {
            check(&[3, 4, 2, 5], &[2, 1, 1, 2], n);
        }
    }

    #[test]
    fn single_precision_gram() {
        let dims = [4, 5, 3];
        let x64 = test_tensor(&dims);
        let x32: Tensor<f32> = x64.cast();
        let out = Simulator::new(2).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x32, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
            let mut world = Comm::world(ctx);
            parallel_gram(ctx, &mut world, &dt, 0).unwrap()
        });
        let want = syrk_lower(Unfolding::new(&x32, 0).to_matrix().as_ref());
        for g in out.results {
            assert!(g.max_abs_diff(&want) < 1e-4);
        }
    }

    #[test]
    fn nan_input_is_detected_as_numerical_fault() {
        let dims = [4, 4, 4];
        let mut x = test_tensor(&dims);
        x.data_mut()[5] = f64::NAN;
        let err = Simulator::new(2)
            .with_cost(CostModel::zero())
            .run_result(|ctx| {
                let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
                let mut world = Comm::world(ctx);
                parallel_gram(ctx, &mut world, &dt, 0)
            })
            .unwrap_err();
        match err {
            tucker_mpisim::SimFailure::Rank { error, .. } => {
                // First guard to see the NaN wins: either boundary is fine.
                assert!(error.phase.starts_with("Gram/"), "{}", error.phase);
                assert!(error.to_string().contains("non-finite"), "{error}");
            }
            tucker_mpisim::SimFailure::Sim(e) => panic!("expected NumericalFault, got {e}"),
        }
    }

    #[test]
    fn flops_are_charged() {
        let dims = [4, 4, 4];
        let x = test_tensor(&dims);
        let out = Simulator::new(2).with_cost(CostModel::andes()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 1, 1]), ctx.rank());
            let mut world = Comm::world(ctx);
            let _ = parallel_gram(ctx, &mut world, &dt, 0).unwrap();
        });
        // Each rank's syrk charge: m*m*local_cols = 4*4*8 = 128 (plus reduce adds).
        for s in &out.stats {
            assert!(s.total.flops >= 128.0, "flops = {}", s.total.flops);
        }
    }
}
