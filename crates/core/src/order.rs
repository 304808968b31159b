//! Mode-order optimization.
//!
//! "If all dimensions and reduced ranks are known at the start of the
//! algorithm, the modes can be ordered to minimize computation or other
//! metrics" (paper §4.2.3, citing [6]). When the ranks *are* known (fixed-
//! rank compression, or a rerun after a tolerance-driven pilot), this module
//! searches mode orderings against the §3.5 cost model and returns the
//! cheapest; the paper itself only compares forward/backward because its
//! ranks are tolerance-driven.

use crate::config::{ModeOrder, SvdMethod};
use crate::model::{predict, ModelConfig};
use tucker_mpisim::CostModel;

/// Search space for the optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderSearch {
    /// All `N!` permutations (fine for `N ≤ 6`).
    Exhaustive,
    /// Greedy: repeatedly pick the mode whose processing is cheapest given
    /// the current (partially truncated) dimensions.
    Greedy,
}

/// Find a good processing order for the given problem. Returns the order and
/// its modeled time.
pub fn optimize_mode_order(
    dims: &[usize],
    ranks: &[usize],
    grid: &[usize],
    method: SvdMethod,
    bytes: usize,
    cost: CostModel,
    search: OrderSearch,
) -> (ModeOrder, f64) {
    let n = dims.len();
    assert!(n >= 1 && ranks.len() == n && grid.len() == n);
    let eval = |order: &[usize]| {
        predict(&ModelConfig {
            dims: dims.to_vec(),
            ranks: ranks.to_vec(),
            grid: grid.to_vec(),
            order: order.to_vec(),
            method,
            bytes,
            cost,
        })
        .total
    };
    match search {
        OrderSearch::Exhaustive => {
            let mut best: Option<(Vec<usize>, f64)> = None;
            permute(&mut (0..n).collect::<Vec<_>>(), 0, &mut |perm| {
                let t = eval(perm);
                if best.as_ref().map(|(_, bt)| t < *bt).unwrap_or(true) {
                    best = Some((perm.to_vec(), t));
                }
            });
            let (order, t) = best.expect("at least one permutation");
            (ModeOrder::Custom(order), t)
        }
        OrderSearch::Greedy => {
            // Pick, at each step, the unprocessed mode with the largest
            // dimension reduction ratio I_n/R_n (cheapening all later modes
            // the most) — the standard heuristic from [6].
            let mut remaining: Vec<usize> = (0..n).collect();
            let mut order = Vec::with_capacity(n);
            while !remaining.is_empty() {
                let (pos, _) = remaining
                    .iter()
                    .enumerate()
                    .map(|(p, &m)| (p, dims[m] as f64 / ranks[m] as f64))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                order.push(remaining.remove(pos));
            }
            let t = eval(&order);
            (ModeOrder::Custom(order), t)
        }
    }
}

fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_prefers_heavy_truncation_first() {
        // Mode 2 truncates 100 -> 2: processing it first shrinks everything.
        let dims = [40, 40, 100];
        let ranks = [20, 20, 2];
        let (order, t) = optimize_mode_order(
            &dims,
            &ranks,
            &[1, 1, 1],
            SvdMethod::Qr,
            8,
            CostModel::andes(),
            OrderSearch::Exhaustive,
        );
        let ModeOrder::Custom(o) = &order else { panic!() };
        assert_eq!(o[0], 2, "expected mode 2 first, got {o:?}");
        assert!(t > 0.0);
    }

    #[test]
    fn greedy_matches_exhaustive_on_simple_cases() {
        let dims = [32, 64, 16];
        let ranks = [16, 4, 8];
        let (eo, et) = optimize_mode_order(
            &dims, &ranks, &[1, 1, 1], SvdMethod::Gram, 8, CostModel::andes(), OrderSearch::Exhaustive,
        );
        let (go, gt) = optimize_mode_order(
            &dims, &ranks, &[1, 1, 1], SvdMethod::Gram, 8, CostModel::andes(), OrderSearch::Greedy,
        );
        // Greedy is near-optimal here.
        assert!(gt <= et * 1.5, "greedy {gt} vs exhaustive {et} ({go:?} vs {eo:?})");
    }

    #[test]
    fn optimized_beats_worst_order() {
        let dims = [60, 20, 20, 20];
        let ranks = [2, 10, 10, 10];
        let eval = |order: Vec<usize>| {
            predict(&ModelConfig {
                dims: dims.to_vec(),
                ranks: ranks.to_vec(),
                grid: vec![1; 4],
                order,
                method: SvdMethod::Qr,
                bytes: 8,
                cost: CostModel::andes(),
            })
            .total
        };
        let (_, best) = optimize_mode_order(
            &dims, &ranks, &[1, 1, 1, 1], SvdMethod::Qr, 8, CostModel::andes(), OrderSearch::Exhaustive,
        );
        // Best must beat the worst permutation (and match the brute-force min).
        let mut worst = 0.0f64;
        let mut min = f64::MAX;
        let perms = [
            vec![0usize, 1, 2, 3], vec![1, 2, 3, 0], vec![3, 2, 1, 0], vec![0, 3, 1, 2],
            vec![2, 0, 3, 1], vec![1, 0, 2, 3],
        ];
        for p in perms {
            let t = eval(p);
            worst = worst.max(t);
            min = min.min(t);
        }
        assert!(best <= min * (1.0 + 1e-12), "optimizer best {best} worse than sampled min {min}");
        assert!(best < worst, "no spread found: best {best}, worst {worst}");
    }

    /// The stream's Full recompute shape: on [456, 64, 64] with ranks 12³
    /// the default fixed-rank order is no dearer than Forward under the
    /// model and processes the tall time mode last, where QR-SVD factors
    /// its 456 × 144 unfolding thin.
    #[test]
    fn auto_processes_the_long_mode_last_on_the_stream_shape() {
        use crate::config::SthosvdConfig;
        let dims = [456, 64, 64];
        let cfg = SthosvdConfig::with_ranks(vec![12; 3]);
        let auto = cfg.resolved_order(&dims, 8).unwrap();
        assert_eq!(auto.last(), Some(&0), "{auto:?}");
        let cost = |order: Vec<usize>| {
            predict(&ModelConfig {
                dims: dims.to_vec(),
                ranks: vec![12; 3],
                grid: vec![1; 3],
                order,
                method: SvdMethod::Qr,
                bytes: 8,
                cost: CostModel::andes(),
            })
            .total
        };
        let (auto_s, forward_s) = (cost(auto), cost(vec![0, 1, 2]));
        assert!(auto_s <= forward_s, "auto {auto_s} vs forward {forward_s}");
    }

    #[test]
    fn single_mode_trivial() {
        let (order, _) = optimize_mode_order(
            &[10], &[2], &[1], SvdMethod::Qr, 4, CostModel::andes(), OrderSearch::Exhaustive,
        );
        assert_eq!(order, ModeOrder::Custom(vec![0]));
    }
}
