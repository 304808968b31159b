//! Distributed randomized range-finder mode driver.
//!
//! The randomized driver forms the sketch `Y = X_(n)·Ω` directly from the
//! distributed unfolding, runs power iterations with redundant
//! re-orthonormalization, and solves the small projected problem on every
//! rank — the distributed counterpart of
//! [`tucker_linalg::randomized_svd_left_blocked`], designed to be
//! **bit-identical** to it (and therefore across task counts and grid
//! shapes) for a fixed seed:
//!
//! * The unfolding columns are redistributed into contiguous *slabs* of
//!   whole [`SKETCH_COL_BLOCK`]-column virtual blocks (one all-to-all over
//!   the world communicator), so every block's partial product is computed
//!   by exactly one rank from exactly the global columns the sequential
//!   driver uses.
//! * Ω is never communicated: the counter-based Gaussian fill
//!   ([`tucker_linalg::gaussian_block`]) lets each rank generate precisely
//!   its row slice of Ω in O(1) seek time.
//! * Per-block partials are *allgathered* and every rank folds all of them
//!   left-to-right in global block order ([`fold_partial`]) — the same
//!   floating-point additions in the same order as the sequential fold,
//!   regardless of which rank computed which block.
//! * The small QR (re-orthonormalization) and the `k x k` projected EVD are
//!   solved redundantly on every rank from identical inputs.
//!
//! All heavy flops in the driver are charged through explicit closed
//! forms (shared with `tucker-core`'s conformance checker via the
//! `sketch_*_flops` helpers and [`slab_exchange_counts`]), so
//! `--model-check` stays dead-reckoned and near-exact for this method.

use crate::dist::{block_owner, block_range, DistTensor};
use crate::grid::ProcessorGrid;
use crate::guard::{check_finite, NumericalFault};
use tucker_linalg::perf::svd_flops;
use tucker_linalg::randomized::{
    fold_partial, orthonormalize, power_block, projected_gram_block, sketch_block,
    sketch_block_count, sketch_block_range, solve_projected, RandomizedSvdConfig,
};
use tucker_linalg::{MatRef, Matrix, Scalar};
use tucker_mpisim::{Comm, Ctx};
use tucker_tensor::Unfolding;

/// Sketch width `k = min(rank + oversampling, min(I_n, I^*/I_n))`, shared
/// by the drivers, the metrics gauges, and the conformance model.
pub fn sketch_cols(rank: usize, oversampling: usize, m: usize, cols: usize) -> usize {
    (rank + oversampling).min(m.min(cols)).max(1)
}

/// Flops charged for one re-orthonormalization of an `m x k` sketch
/// (Householder QR + explicit Q formation).
pub fn sketch_qr_flops(m: f64, k: f64) -> f64 {
    4.0 * m * k * k
}

/// Global column range of the slab owned by world rank `r`: the union of
/// its contiguous virtual blocks (see [`slab_blocks`]).
pub fn slab_columns(cols: usize, world: usize, r: usize) -> std::ops::Range<usize> {
    let nv = sketch_block_count(cols);
    let vb = block_range(nv, world, r);
    let start = (vb.start * tucker_linalg::SKETCH_COL_BLOCK).min(cols);
    let end = (vb.end * tucker_linalg::SKETCH_COL_BLOCK).min(cols).max(start);
    start..end
}

/// Virtual blocks owned by world rank `r` (contiguous, possibly empty when
/// there are more ranks than blocks).
pub fn slab_blocks(cols: usize, world: usize, r: usize) -> std::ops::Range<usize> {
    block_range(sketch_block_count(cols), world, r)
}

/// Enumerates the *global* unfolding column index of each local column of a
/// rank's block, in local column order (modes ascending, mode `n` skipped,
/// lowest mode fastest — the unfolding's own order on both sides).
struct ColWalk {
    /// `(global_start, local_len, global_weight)` per mode `!= n`,
    /// ascending mode order.
    modes: Vec<(usize, usize, usize)>,
    idx: Vec<usize>,
    remaining: usize,
}

impl ColWalk {
    fn new(global_dims: &[usize], grid_dims: &[usize], coords: &[usize], n: usize) -> Self {
        let mut modes = Vec::with_capacity(global_dims.len().saturating_sub(1));
        let mut weight = 1usize;
        let mut total = 1usize;
        for m in 0..global_dims.len() {
            if m == n {
                continue;
            }
            let r = block_range(global_dims[m], grid_dims[m], coords[m]);
            modes.push((r.start, r.len(), weight));
            weight *= global_dims[m];
            total *= r.len();
        }
        ColWalk { idx: vec![0; modes.len()], remaining: total, modes }
    }

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let g = self
            .modes
            .iter()
            .zip(&self.idx)
            .map(|(&(start, _, weight), &i)| (start + i) * weight)
            .sum();
        for (d, &(_, len, _)) in self.idx.iter_mut().zip(&self.modes) {
            *d += 1;
            if *d < len {
                break;
            }
            *d = 0;
        }
        Some(g)
    }
}

/// Redistribute the mode-`n` unfolding into the canonical *slab* layout:
/// rank `r` receives all `I_n` rows of its [`slab_columns`] range, in
/// global column order, as a column-major matrix. One personalized
/// all-to-all over the world communicator.
pub fn redistribute_to_slab<T: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dt: &DistTensor<T>,
    n: usize,
) -> Result<Matrix<T>, NumericalFault> {
    let gd = dt.global_dims().to_vec();
    let m = gd[n];
    let cols: usize = gd.iter().product::<usize>() / m;
    let p = world.size();
    let me = world.rank();
    let unf = Unfolding::new(dt.local(), n);

    let z = if p == 1 {
        // Single rank: the local unfolding *is* the global slab.
        unf.to_matrix()
    } else {
        let nv = sketch_block_count(cols);
        let grid_dims = dt.grid().dims().to_vec();
        let rows_loc = unf.rows();
        let sends: Vec<Vec<T>> = ctx.phase("Redistribute/pack", |_c| {
            let mut sends: Vec<Vec<T>> = vec![Vec::new(); p];
            let mut walk = ColWalk::new(&gd, &grid_dims, dt.coords(), n);
            for c_loc in 0..unf.cols() {
                let g = walk.next().expect("walk covers all local columns");
                let dest = block_owner(nv, p, g / tucker_linalg::SKETCH_COL_BLOCK);
                let bucket = &mut sends[dest];
                for i in 0..rows_loc {
                    bucket.push(unf.get(i, c_loc));
                }
            }
            sends
        });
        let received = ctx.phase("Redistribute/exchange", |c| world.alltoallv(c, sends));
        ctx.phase("Redistribute/unpack", |_c| {
            let my_cols = slab_columns(cols, p, me);
            let mut z = Matrix::<T>::zeros(m, my_cols.len());
            let grid = ProcessorGrid::new(&grid_dims);
            for (s, buf) in received.iter().enumerate() {
                let scoords = grid.coords(world.world_rank(s));
                let srows = block_range(m, grid_dims[n], scoords[n]);
                let mut pos = 0;
                let mut walk = ColWalk::new(&gd, &grid_dims, &scoords, n);
                while let Some(g) = walk.next() {
                    if my_cols.contains(&g) {
                        let col = z.col_mut(g - my_cols.start);
                        col[srows.start..srows.end]
                            .copy_from_slice(&buf[pos..pos + srows.len()]);
                        pos += srows.len();
                    }
                }
                assert_eq!(pos, buf.len(), "slab redistribute: unexpected bucket size");
            }
            z
        })
    };
    check_finite(ctx.rank(), "Sketch/redistribute", n, z.data())?;
    Ok(z)
}

/// Exact machine-wide traffic of [`redistribute_to_slab`] for the given
/// geometry: `(words_sent, messages)`. Self-delivery is local (no bytes, no
/// message); the all-to-all sends to every other member even when the
/// bucket is empty. Pure geometry — shared with `tucker-core::conformance`
/// so `--model-check` predicts the slab exchange exactly.
pub fn slab_exchange_counts(dims: &[usize], grid: &[usize], n: usize) -> (f64, u64) {
    let p: usize = grid.iter().product();
    if p == 1 {
        return (0.0, 0);
    }
    let m = dims[n];
    let cols: usize = dims.iter().product::<usize>() / m;
    let nv = sketch_block_count(cols);
    let pg = ProcessorGrid::new(grid);
    let mut words = 0.0;
    for r in 0..p {
        let coords = pg.coords(r);
        let rows_loc = block_range(m, grid[n], coords[n]).len();
        let mut walk = ColWalk::new(dims, grid, &coords, n);
        while let Some(g) = walk.next() {
            if block_owner(nv, p, g / tucker_linalg::SKETCH_COL_BLOCK) != r {
                words += rows_loc as f64;
            }
        }
    }
    (words, (p * (p - 1)) as u64)
}

/// Allgather per-block partials (each a `rows x bcols` column-major matrix,
/// concatenated per rank in ascending block order) and fold **all** `nv`
/// blocks left-to-right on every rank. Because ranks own contiguous block
/// ranges and the gather returns per-origin buffers in rank order, the fold
/// visits blocks in exactly the sequential driver's order.
fn allgather_fold<T: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    mine: Vec<T>,
    rows: usize,
    bcols: usize,
    nv: usize,
    mode: usize,
) -> Result<Matrix<T>, NumericalFault> {
    let p = world.size();
    let gathered = ctx.phase("Sketch/allgather", |c| world.allgather(c, mine));
    let blen = rows * bcols;
    let mut acc: Option<Matrix<T>> = None;
    for (s, buf) in gathered.iter().enumerate() {
        let cnt = block_range(nv, p, s).len();
        assert_eq!(buf.len(), cnt * blen, "sketch allgather: unexpected partial size");
        for b in 0..cnt {
            let part =
                Matrix::from_col_major(rows, bcols, buf[b * blen..(b + 1) * blen].to_vec());
            fold_partial(&mut acc, part);
        }
    }
    // nv - 1 matrix additions of `blen` elements each, on every rank.
    ctx.charge_flops(((nv - 1) * blen) as f64, T::BYTES);
    let folded = acc.expect("at least one virtual block exists");
    check_finite(ctx.rank(), "Sketch/allgather", mode, folded.data())?;
    Ok(folded)
}

/// QR re-orthonormalization, redundant on every rank (inputs are already
/// replicated and identical).
fn orthonormalize_charged<T: Scalar>(ctx: &mut Ctx, y: Matrix<T>) -> Matrix<T> {
    ctx.charge_flops(sketch_qr_flops(y.rows() as f64, y.cols() as f64), T::BYTES);
    orthonormalize(y)
}

/// Distributed randomized range-finder SVD of the mode-`n` unfolding:
/// returns replicated `(U, sigma)` with `U` of size `I_n x k`,
/// bit-identical to [`tucker_linalg::randomized_svd_left_blocked`] on the
/// gathered tensor for any task count or grid shape — the same stage
/// functions, allgather-folded instead of folded in a loop.
pub fn parallel_sketch_svd<T: Scalar>(
    ctx: &mut Ctx,
    world: &mut Comm,
    dt: &DistTensor<T>,
    n: usize,
    rank: usize,
    cfg: &RandomizedSvdConfig,
) -> tucker_linalg::error::Result<(Matrix<T>, Vec<T>)> {
    let gd = dt.global_dims();
    let m = gd[n];
    let cols: usize = gd.iter().product::<usize>() / m;
    let p = world.size();
    let me = world.rank();
    let k = sketch_cols(rank, cfg.oversampling, m, cols);
    let nv = sketch_block_count(cols);

    let z = ctx.phase("Sketch/redistribute", |c| redistribute_to_slab(c, world, dt, n))?;
    let my_cols = slab_columns(cols, p, me);
    let zref = z.as_ref();

    // One stage: the partial of every virtual block in my slab (each charged
    // `flops_per_col` × its width), allgathered and folded into `rows x k`.
    let mut fold = |ctx: &mut Ctx,
                    rows: usize,
                    flops_per_col: &[usize],
                    stage: &dyn Fn(MatRef<'_, T>, usize) -> Matrix<T>| {
        let myv = slab_blocks(cols, p, me);
        let mut part: Vec<T> = Vec::with_capacity(myv.len() * rows * k);
        for v in myv {
            let r = sketch_block_range(cols, v);
            let av = zref.submatrix(0, r.start - my_cols.start, m, r.len());
            part.extend_from_slice(stage(av, r.start).data());
            for f in flops_per_col {
                ctx.charge_flops((f * r.len()) as f64, T::BYTES);
            }
        }
        allgather_fold(ctx, world, part, rows, k, nv, n)
    };

    // Sketch: Y = Σ_v A_v Ω_v, Ω_v generated in place (no broadcast).
    let mut y = fold(ctx, m, &[2 * m * k], &|av, start| sketch_block(av, cfg.seed, start, k))?;
    // Power iterations: Y ← Σ_v A_v (A_vᵀ Q(Y)), Q redundant per rank.
    for _ in 0..cfg.power_iterations {
        let q = orthonormalize_charged(ctx, y);
        y = fold(ctx, m, &[4 * m * k], &|av, _| power_block(av, &q))?;
    }
    let q = orthonormalize_charged(ctx, y);
    // Projected Gram H = Σ_v (Qᵀ A_v)(Qᵀ A_v)ᵀ — k x k, folded like Y: the
    // projection GEMM, then the syrk.
    let h = fold(ctx, k, &[2 * k * m, k * k], &|av, _| projected_gram_block(av, &q))?;

    // Small projected problem, solved redundantly; 2mk² is the lift.
    let out = solve_projected(&q, &h)?;
    ctx.charge_flops(svd_flops(k), T::BYTES);
    ctx.charge_flops(2.0 * (m * k * k) as f64, T::BYTES);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_mpisim::Simulator;
    use tucker_tensor::Tensor;

    fn tensor(dims: &[usize], seed: u64) -> Tensor<f64> {
        let total: usize = dims.iter().product();
        let data: Vec<f64> = (0..total)
            .map(|i| {
                let h = tucker_linalg::splitmix64_at(seed, i as u64, 17);
                (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        Tensor::from_data(dims, data)
    }

    fn run_slab(dims: &[usize], grid_dims: &[usize], n: usize) -> Vec<Matrix<f64>> {
        let x = tensor(dims, 3);
        let grid = ProcessorGrid::new(grid_dims);
        let p = grid.total();
        let out = Simulator::new(p)
            .run_result(|ctx| {
                let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
                let mut world = Comm::world(ctx);
                redistribute_to_slab(ctx, &mut world, &dt, n).map_err(|e| format!("{e:?}"))
            })
            .expect("slab redistribution must succeed");
        out.results
    }

    #[test]
    fn slab_redistribution_reassembles_the_global_unfolding() {
        for (dims, grid, n) in [
            (vec![6, 5, 4], vec![2, 1, 2], 0usize),
            (vec![6, 5, 4], vec![2, 2, 1], 1),
            (vec![6, 5, 4], vec![1, 2, 2], 2),
            (vec![7, 3, 5], vec![3, 1, 1], 1),
        ] {
            let x = tensor(&dims, 3);
            let whole = Unfolding::new(&x, n).to_matrix();
            let cols = whole.cols();
            let p: usize = grid.iter().product();
            let slabs = run_slab(&dims, &grid, n);
            for (r, slab) in slabs.iter().enumerate() {
                let range = slab_columns(cols, p, r);
                assert_eq!(slab.cols(), range.len());
                for (c, g) in range.enumerate() {
                    for i in 0..whole.rows() {
                        assert_eq!(
                            slab[(i, c)].to_bits(),
                            whole[(i, g)].to_bits(),
                            "mismatch at ({i}, {g}) for grid {grid:?} mode {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slab_exchange_counts_match_metered_traffic() {
        let dims = vec![6, 5, 4];
        let grid_dims = vec![2, 1, 2];
        let x = tensor(&dims, 3);
        let grid = ProcessorGrid::new(&grid_dims);
        let out = Simulator::new(grid.total())
            .run_result(|ctx| {
                let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
                let mut world = Comm::world(ctx);
                redistribute_to_slab(ctx, &mut world, &dt, 1).map_err(|e| format!("{e:?}"))?;
                Ok::<_, String>(())
            })
            .unwrap();
        let (words, msgs) = slab_exchange_counts(&dims, &grid_dims, 1);
        let sent: f64 = out.stats.iter().map(|s| s.total.bytes_sent as f64).sum();
        let sent_msgs: u64 = out.stats.iter().map(|s| s.total.msgs).sum();
        assert_eq!(sent, words * 8.0, "predicted words x 8 bytes");
        assert_eq!(sent_msgs, msgs);
    }

    #[test]
    fn distributed_sketch_is_bit_identical_to_sequential() {
        let dims = vec![12, 6, 5];
        let x = tensor(&dims, 5);
        let cfg = RandomizedSvdConfig { power_iterations: 1, ..Default::default() };
        for n in 0..3 {
            let whole = Unfolding::new(&x, n).to_matrix();
            let (u_seq, s_seq) =
                tucker_linalg::randomized_svd_left_blocked(whole.as_ref(), 3, &cfg).unwrap();
            for grid_dims in [vec![1, 1, 1], vec![2, 1, 2], vec![2, 3, 1]] {
                let grid = ProcessorGrid::new(&grid_dims);
                let out = Simulator::new(grid.total())
                    .run_result(|ctx| {
                        let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
                        let mut world = Comm::world(ctx);
                        parallel_sketch_svd(ctx, &mut world, &dt, n, 3, &cfg)
                            .map_err(|e| e.to_string())
                    })
                    .expect("parallel sketch must succeed");
                for (u, s) in &out.results {
                    assert_eq!(u, &u_seq, "U mismatch: grid {grid_dims:?} mode {n}");
                    assert_eq!(s, &s_seq, "sigma mismatch: grid {grid_dims:?} mode {n}");
                }
            }
        }
    }
}
