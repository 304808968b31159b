//! Block distribution of a tensor over a processor grid.

use crate::grid::ProcessorGrid;
use std::ops::Range;
use tucker_mpisim::{Comm, Ctx};
use tucker_linalg::Scalar;
use tucker_tensor::Tensor;

/// Index range owned by part `idx` of `parts` over a `global`-sized mode:
/// the first `global % parts` parts get `⌈global/parts⌉` indices, the rest
/// `⌊global/parts⌋` (paper §3.4, uneven division).
pub fn block_range(global: usize, parts: usize, idx: usize) -> Range<usize> {
    assert!(idx < parts);
    let base = global / parts;
    let extra = global % parts;
    let start = idx * base + idx.min(extra);
    let len = base + usize::from(idx < extra);
    start..start + len
}

/// Inverse of [`block_range`]: which of `parts` blocks owns global `index`.
/// The serving router uses this to map a query's mode-0 rows onto shards
/// without scanning every block's range.
pub fn block_owner(global: usize, parts: usize, index: usize) -> usize {
    assert!(index < global, "index {index} out of range for {global}");
    let base = global / parts;
    let extra = global % parts;
    // The first `extra` blocks are one longer and cover `extra·(base+1)`
    // leading indices; the remainder fall into `base`-sized blocks.
    let cut = extra * (base + 1);
    if index < cut {
        index / (base + 1)
    } else {
        extra + (index - cut) / base.max(1)
    }
}

/// The global index ranges of the block at grid coordinates `coords`.
fn block_ranges(
    global_dims: &[usize],
    grid: &ProcessorGrid,
    coords: &[usize],
) -> Vec<Range<usize>> {
    (0..grid.ndims()).map(|n| block_range(global_dims[n], grid.dims()[n], coords[n])).collect()
}

/// Walk the mode-0 fibers of the block `ranges` of a `global_dims` tensor
/// in local order: `f(local_offset, global_offset, len)` once per fiber, so
/// a block moves by contiguous runs of `len = ranges[0].len()` elements.
fn for_each_fiber(
    global_dims: &[usize],
    ranges: &[Range<usize>],
    mut f: impl FnMut(usize, usize, usize),
) {
    let len = ranges[0].len();
    let fibers: usize = ranges[1..].iter().map(|r| r.len()).product();
    if len == 0 || fibers == 0 {
        return;
    }
    let mut stride = vec![1usize; global_dims.len()];
    for k in 1..global_dims.len() {
        stride[k] = stride[k - 1] * global_dims[k - 1];
    }
    let mut g: usize = ranges.iter().zip(&stride).map(|(r, s)| r.start * s).sum();
    let mut idx = vec![0usize; ranges.len()];
    for j in 0..fibers {
        f(j * len, g, len);
        // Odometer over modes 1..: step the global offset with the index.
        for k in 1..ranges.len() {
            idx[k] += 1;
            g += stride[k];
            if idx[k] < ranges[k].len() {
                break;
            }
            idx[k] = 0;
            g -= ranges[k].len() * stride[k];
        }
    }
}

/// A block-distributed tensor: this rank's local block plus global metadata.
#[derive(Clone, Debug)]
pub struct DistTensor<T> {
    global_dims: Vec<usize>,
    grid: ProcessorGrid,
    coords: Vec<usize>,
    local: Tensor<T>,
}

impl<T: Scalar> DistTensor<T> {
    /// Build this rank's block by evaluating `f` at global multi-indices.
    ///
    /// This is how experiment drivers create distributed data without ever
    /// materializing the global tensor (the paper's datasets are read from
    /// parallel filesystems; synthetic surrogates are generated in place).
    pub fn from_fn(
        global_dims: &[usize],
        grid: &ProcessorGrid,
        rank: usize,
        mut f: impl FnMut(&[usize]) -> T,
    ) -> Self {
        assert_eq!(global_dims.len(), grid.ndims(), "grid/tensor mode count mismatch");
        let coords = grid.coords(rank);
        let ranges = block_ranges(global_dims, grid, &coords);
        let local_dims: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let mut gidx = vec![0usize; global_dims.len()];
        let local = Tensor::from_fn(&local_dims, |lidx| {
            for (g, (l, s)) in gidx.iter_mut().zip(lidx.iter().zip(&starts)) {
                *g = l + s;
            }
            f(&gidx)
        });
        DistTensor { global_dims: global_dims.to_vec(), grid: grid.clone(), coords, local }
    }

    /// Distribute an existing global tensor (test/verification path: every
    /// rank slices out its own block, one mode-0 fiber at a time).
    pub fn scatter_from(x: &Tensor<T>, grid: &ProcessorGrid, rank: usize) -> Self {
        assert_eq!(x.ndims(), grid.ndims(), "grid/tensor mode count mismatch");
        let coords = grid.coords(rank);
        let ranges = block_ranges(x.dims(), grid, &coords);
        let local_dims: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let mut data = Vec::with_capacity(local_dims.iter().product());
        for_each_fiber(x.dims(), &ranges, |_, g, len| {
            data.extend_from_slice(&x.data()[g..g + len]);
        });
        let local = Tensor::from_data(&local_dims, data);
        DistTensor { global_dims: x.dims().to_vec(), grid: grid.clone(), coords, local }
    }

    /// Global tensor dimensions.
    pub fn global_dims(&self) -> &[usize] {
        &self.global_dims
    }
    /// The processor grid.
    pub fn grid(&self) -> &ProcessorGrid {
        &self.grid
    }
    /// This rank's grid coordinates.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }
    /// This rank's local block.
    pub fn local(&self) -> &Tensor<T> {
        &self.local
    }
    /// Replace the local block (used by TTM, which shrinks a mode).
    pub fn with_local(&self, global_dims: Vec<usize>, local: Tensor<T>) -> Self {
        DistTensor { global_dims, grid: self.grid.clone(), coords: self.coords.clone(), local }
    }

    /// Global index range this rank owns in mode `n`.
    pub fn owned_range(&self, n: usize) -> Range<usize> {
        block_range(self.global_dims[n], self.grid.dims()[n], self.coords[n])
    }

    /// Norm of the global tensor: local sum of squares + all-reduce.
    pub fn norm(&self, ctx: &mut Ctx, world: &mut Comm) -> T {
        let local_sq = {
            let n = self.local.norm();
            n * n
        };
        ctx.charge_flops(2.0 * self.local.len() as f64, T::BYTES);
        let total = world.allreduce_sum_vec(ctx, vec![local_sq]);
        total[0].sqrt()
    }

    /// Reassemble the global tensor on every rank (all-gathers the full
    /// data): verification, and QR-SVD's thin modes, whose working tensor is
    /// smaller than the `I_n × I_n` square of its mode.
    pub fn gather(&self, ctx: &mut Ctx, world: &mut Comm) -> Tensor<T> {
        // Shared allgather: each rank reads every block through the
        // originator's allocation instead of deep-copying it out first.
        let datas = world.allgather_shared(ctx, self.local.data().to_vec());
        let mut out = Tensor::zeros(&self.global_dims);
        let whole = out.data_mut();
        for (rank, data) in datas.iter().enumerate() {
            let ranges = block_ranges(&self.global_dims, &self.grid, &self.grid.coords(rank));
            for_each_fiber(&self.global_dims, &ranges, |l, g, len| {
                whole[g..g + len].copy_from_slice(&data[l..l + len]);
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_mpisim::{CostModel, Simulator};

    #[test]
    fn block_range_even() {
        assert_eq!(block_range(12, 3, 0), 0..4);
        assert_eq!(block_range(12, 3, 1), 4..8);
        assert_eq!(block_range(12, 3, 2), 8..12);
    }

    #[test]
    fn block_owner_inverts_block_range() {
        for global in 1..=40usize {
            for parts in 1..=global {
                for idx in 0..parts {
                    for i in block_range(global, parts, idx) {
                        assert_eq!(
                            block_owner(global, parts, i),
                            idx,
                            "global={global} parts={parts} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_owner_rejects_out_of_range_index() {
        block_owner(10, 4, 10);
    }

    #[test]
    fn block_range_uneven_front_loads_ceil() {
        // 10 over 4: 3,3,2,2 per the paper's rule.
        assert_eq!(block_range(10, 4, 0), 0..3);
        assert_eq!(block_range(10, 4, 1), 3..6);
        assert_eq!(block_range(10, 4, 2), 6..8);
        assert_eq!(block_range(10, 4, 3), 8..10);
    }

    #[test]
    fn block_ranges_tile_exactly() {
        for global in [1, 5, 7, 16, 33] {
            for parts in 1..=8 {
                let mut next = 0;
                for idx in 0..parts {
                    let r = block_range(global, parts, idx);
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, global);
            }
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let x = Tensor::<f64>::from_fn(&[5, 4, 3], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let grid = ProcessorGrid::new(&[2, 2, 1]);
        let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let mut world = Comm::world(ctx);
            dt.gather(ctx, &mut world)
        });
        for g in out.results {
            assert_eq!(g, x);
        }
        let _ = grid;
    }

    /// Uneven splits in every mode, one of them of a single index per rank:
    /// the fiber copies of `scatter_from` agree with `from_fn` block by
    /// block, and `gather` puts every block back.
    #[test]
    fn uneven_four_mode_scatter_gather() {
        let dims = [5, 3, 7, 4];
        let x =
            Tensor::<f64>::from_fn(&dims, |i| (i[0] + 10 * i[1] + 100 * i[2] + 1000 * i[3]) as f64);
        let grid = ProcessorGrid::new(&[2, 3, 1, 3]);
        let out = Simulator::new(grid.total()).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &grid, ctx.rank());
            let want = DistTensor::from_fn(&dims, &grid, ctx.rank(), |g| x.get(g));
            assert_eq!(dt.local(), want.local(), "rank {}", ctx.rank());
            let mut world = Comm::world(ctx);
            dt.gather(ctx, &mut world)
        });
        for g in out.results {
            assert_eq!(g, x);
        }
    }

    #[test]
    fn from_fn_matches_scatter() {
        let x = Tensor::<f32>::from_fn(&[6, 5], |i| (i[0] + 7 * i[1]) as f32);
        let grid = ProcessorGrid::new(&[3, 2]);
        for rank in 0..6 {
            let a = DistTensor::scatter_from(&x, &grid, rank);
            let b = DistTensor::from_fn(&[6, 5], &grid, rank, |g| (g[0] + 7 * g[1]) as f32);
            assert_eq!(a.local(), b.local());
        }
    }

    #[test]
    fn distributed_norm_matches_global() {
        let x = Tensor::<f64>::from_fn(&[4, 6, 2], |i| ((i[0] + i[1] * 2 + i[2]) as f64).sin());
        let want = x.norm();
        let out = Simulator::new(4).with_cost(CostModel::zero()).run(|ctx| {
            let dt = DistTensor::scatter_from(&x, &ProcessorGrid::new(&[2, 2, 1]), ctx.rank());
            let mut world = Comm::world(ctx);
            dt.norm(ctx, &mut world)
        });
        for n in out.results {
            assert!((n - want).abs() < 1e-12);
        }
    }

    #[test]
    fn owned_ranges_respect_grid() {
        let grid = ProcessorGrid::new(&[2, 1]);
        let dt = DistTensor::from_fn(&[5, 3], &grid, 1, |g| (g[0]) as f64);
        assert_eq!(dt.owned_range(0), 3..5); // rank 1 gets the floor share
        assert_eq!(dt.owned_range(1), 0..3);
        assert_eq!(dt.local().dims(), &[2, 3]);
    }
}
