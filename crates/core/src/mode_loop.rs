//! The ST-HOSVD mode loop (Alg. 1 of the paper), written once.
//!
//! Per mode, in the configured order: get `(U, σ)` of the current
//! unfolding, choose `R_n` from the singular value tail, truncate the
//! working tensor by `U_nᵀ`, record. Only the first and third steps depend
//! on how the working tensor is stored, so they sit behind [`ModeBackend`];
//! everything else — the truncation policy ([`RankRule`]), the per-mode
//! sequencing and the bookkeeping a checkpoint persists ([`LoopState`]) —
//! lives here and nowhere else. The dense, distributed and COO drivers are
//! "build a backend, run [`run`]"; classic HOSVD reuses [`factor_mode`]
//! under another schedule.

use crate::config::{check_ranks, SthosvdConfig, Truncation};
use crate::truncate::{choose_rank, estimated_error, mode_threshold};
use tucker_linalg::{LinalgError, Matrix, Result, Scalar};

/// What a working-tensor representation supplies to the loop.
pub trait ModeBackend<T: Scalar> {
    /// The working tensor: the input, then its partially truncated forms.
    type Tensor: Clone;

    /// `‖X‖` in working precision.
    fn norm(&mut self, x: &Self::Tensor) -> T;

    /// Global dimensions of a working tensor.
    fn dims<'a>(&'a self, y: &'a Self::Tensor) -> &'a [usize];

    /// Left singular vectors (`I_n × k`, `k ≤ I_n`) and the singular values
    /// (descending) of the mode-`n` unfolding of `y`, by `cfg.method`: `k`
    /// of them, or `I_n` with exact zeros past `k` where QR-SVD took a thin
    /// SVD of a tall unfolding ([`SthosvdConfig::thin_svd`]).
    fn mode_factor(
        &mut self,
        y: &Self::Tensor,
        n: usize,
        cfg: &SthosvdConfig,
    ) -> Result<(Matrix<T>, Vec<T>)>;

    /// The truncating TTM `y ×_n U_nᵀ`.
    fn truncate(&mut self, y: &Self::Tensor, n: usize, u_n: &Matrix<T>) -> Result<Self::Tensor>;

    /// Observe a finished mode (after its truncation) of a run whose input
    /// norm is `norm_x`. Defaults to nothing.
    fn record(&mut self, _mode: &ModeStep<T>, _norm_x: T, _cfg: &SthosvdConfig) {}
}

/// The truncation policy (Alg. 1 line 5), resolved against one input:
/// which `R_n` a singular value profile gets.
#[derive(Clone, Debug)]
pub struct RankRule<T> {
    truncation: Truncation,
    /// Per-mode tail budget `ε²‖X‖²/N`; zero for fixed ranks/no truncation.
    threshold: T,
}

impl<T: Scalar> RankRule<T> {
    /// Resolve `truncation` for a tensor of `nmodes` modes and norm `norm`.
    /// Fixed ranks must name every mode with a rank of at least one;
    /// [`SthosvdConfig::validate`] cannot see the mode count, so that check
    /// happens here, where a run first meets its tensor. A tolerance must be
    /// finite and non-negative: NaN fails every comparison in `choose_rank`
    /// and a negative one squares to a positive budget, so either would
    /// silently truncate to rank 1.
    pub fn new(truncation: &Truncation, norm: T, nmodes: usize) -> Result<Self> {
        let threshold = match truncation {
            Truncation::Tolerance(eps) if !(eps.is_finite() && *eps >= 0.0) => {
                return Err(LinalgError::InvalidConfig {
                    param: "tolerance",
                    value: eps.to_string(),
                    expected: "a finite tolerance ≥ 0",
                })
            }
            Truncation::Tolerance(eps) => mode_threshold(*eps, norm, nmodes),
            Truncation::Ranks(r) => {
                check_ranks(r, nmodes)?;
                T::ZERO
            }
            Truncation::None => T::ZERO,
        };
        Ok(RankRule { truncation: truncation.clone(), threshold })
    }

    /// `R_n` for mode `n` given the singular values its SVD driver exposed
    /// (`I_n` of them, fewer from a sketch): the smallest rank whose tail
    /// fits the budget, or the fixed rank capped at their count. At least
    /// one direction is always kept.
    pub fn rank(&self, sigma: &[T], n: usize) -> usize {
        let r = match &self.truncation {
            Truncation::Tolerance(_) => choose_rank(sigma, self.threshold),
            Truncation::Ranks(r) => r[n],
            Truncation::None => sigma.len(),
        };
        r.max(1).min(sigma.len())
    }
}

/// Lines 4–5 of Alg. 1 for one mode: the truncated factor and what was
/// discarded to get it.
pub struct ModeStep<T> {
    /// The mode processed.
    pub mode: usize,
    /// Unfolding width `I^*/I_n` of the working tensor the factor was
    /// computed from — the problem size the mode driver faced (the working
    /// tensor shrinks as modes complete, so this is not derivable from the
    /// input dims alone).
    pub cols: usize,
    /// `U_n`: the leading `R_n` columns of `U`.
    pub u_n: Matrix<T>,
    /// The full singular value profile (`I_n` values, or the sketch width).
    pub sigma: Vec<T>,
    /// Discarded tail energy `Σ_{i≥R_n} σ_i²`.
    pub tail_sq: T,
}

/// Width `I^*/I_n` of the mode-`n` unfolding of a tensor of `dims`.
pub fn unfolding_cols(dims: &[usize], n: usize) -> usize {
    dims.iter().enumerate().filter(|&(m, _)| m != n).map(|(_, &d)| d).product()
}

/// Factor the mode-`n` unfolding of `y`, pick `R_n`, cut `U` to it.
pub fn factor_mode<T: Scalar, B: ModeBackend<T>>(
    b: &mut B,
    y: &B::Tensor,
    n: usize,
    rule: &RankRule<T>,
    cfg: &SthosvdConfig,
) -> Result<ModeStep<T>> {
    let cols = unfolding_cols(b.dims(y), n);
    let (u, sigma) = b.mode_factor(y, n, cfg)?;
    let r_n = rule.rank(&sigma, n);
    let tail_sq = sigma[r_n..].iter().map(|&s| s * s).sum();
    Ok(ModeStep { mode: n, cols, u_n: u.truncate_cols(r_n), sigma, tail_sq })
}

/// In-flight state of an ST-HOSVD: everything needed to process the next
/// mode, and exactly what a checkpoint must persist to resume after a
/// crash ([`crate::checkpoint`]). The loop is `init → step × N → finish`.
#[derive(Debug)]
pub struct LoopState<T, Y> {
    /// Resolved mode-processing order (a permutation of `0..N`).
    pub order: Vec<usize>,
    /// Number of modes already truncated — the cursor into `order`.
    pub done: usize,
    /// `‖X‖` in working precision (fixed at init; restored bit-exactly on
    /// resume so rank decisions never drift).
    pub norm_x: T,
    /// The truncation policy. Deterministically recomputable from the
    /// config and `norm_x`, so it is *not* checkpointed.
    pub rule: RankRule<T>,
    /// The partially truncated tensor (modes `order[..done]` already
    /// shrunk). `None` until the first truncation: before it the working
    /// tensor *is* the input, which [`LoopState::step`] borrows — the loop
    /// never holds a copy of `x`.
    pub y: Option<Y>,
    /// Factor matrices of processed modes, indexed by mode.
    pub factors: Vec<Option<Matrix<T>>>,
    /// Singular value profiles of processed modes, indexed by mode — the
    /// quantity plotted in the paper's Figs. 5–7.
    pub singular_values: Vec<Vec<T>>,
    /// Discarded tail energies `Σ σ²`, in processing order.
    pub tails_sq: Vec<T>,
}

/// Result of a completed loop.
pub struct LoopOutput<T, Y> {
    /// Factor matrices, indexed by mode.
    pub factors: Vec<Matrix<T>>,
    /// The core tensor, stored like the input was.
    pub core: Y,
    /// Per-mode singular value profiles.
    pub singular_values: Vec<Vec<T>>,
    /// `‖X‖` in working precision.
    pub norm_x: T,
    /// Estimated relative error from the discarded tails (≤ ε in exact
    /// arithmetic; meaningless when the tail is numerical noise).
    pub estimated_error: T,
}

impl<T: Scalar, Y: Clone> LoopState<T, Y> {
    /// Validate the config against `x`, resolve the mode order
    /// ([`SthosvdConfig::resolved_order`]) and compute the input norm and the
    /// rank rule.
    pub fn init<B: ModeBackend<T, Tensor = Y>>(
        b: &mut B,
        x: &Y,
        cfg: &SthosvdConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        let dims = b.dims(x);
        let nmodes = dims.len();
        if dims.contains(&0) {
            return Err(LinalgError::InvalidConfig {
                param: "dims",
                value: format!("{dims:?}"),
                expected: "every extent at least 1 (an empty tensor has nothing to decompose)",
            });
        }
        let order = cfg.resolved_order(dims, T::BYTES)?;
        let norm_x = b.norm(x);
        Ok(LoopState {
            order,
            done: 0,
            norm_x,
            rule: RankRule::new(&cfg.truncation, norm_x, nmodes)?,
            // A tensor without modes is its own core.
            y: (nmodes == 0).then(|| x.clone()),
            factors: (0..nmodes).map(|_| None).collect(),
            singular_values: (0..nmodes).map(|_| Vec::new()).collect(),
            tails_sq: Vec::with_capacity(nmodes),
        })
    }

    /// Have all modes been processed?
    pub fn is_complete(&self) -> bool {
        self.done == self.order.len()
    }

    /// Process one mode of the run on `x` (the tensor given to
    /// [`LoopState::init`], read only while no mode has been truncated):
    /// SVD of the unfolding, rank choice, truncation. Advances `done` by one.
    pub fn step<B: ModeBackend<T, Tensor = Y>>(
        &mut self,
        b: &mut B,
        x: &Y,
        cfg: &SthosvdConfig,
    ) -> Result<()> {
        assert!(!self.is_complete(), "step called on a finished state");
        let n = self.order[self.done];
        let y = self.y.as_ref().unwrap_or(x);
        let mode = factor_mode(b, y, n, &self.rule, cfg)?;
        self.y = Some(b.truncate(y, n, &mode.u_n)?);
        b.record(&mode, self.norm_x, cfg);
        self.tails_sq.push(mode.tail_sq);
        self.factors[n] = Some(mode.u_n);
        self.singular_values[n] = mode.sigma;
        self.done += 1;
        Ok(())
    }

    /// Turn a completed state into the final output.
    pub fn finish(self) -> LoopOutput<T, Y> {
        assert!(self.is_complete(), "finish called before all modes were processed");
        LoopOutput {
            factors: self.factors.into_iter().map(|f| f.expect("every mode processed")).collect(),
            core: self.y.expect("a complete state owns its working tensor"),
            singular_values: self.singular_values,
            norm_x: self.norm_x,
            estimated_error: estimated_error(&self.tails_sq, self.norm_x),
        }
    }
}

/// The whole loop on `x`: `init`, every `step`, `finish`.
pub fn run<T: Scalar, B: ModeBackend<T>>(
    b: &mut B,
    x: &B::Tensor,
    cfg: &SthosvdConfig,
) -> Result<LoopOutput<T, B::Tensor>> {
    let mut state = LoopState::init(b, x, cfg)?;
    while !state.is_complete() {
        state.step(b, x, cfg)?;
    }
    Ok(state.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_must_be_finite_and_non_negative() {
        for eps in [f64::NAN, -1.0, -f64::MIN_POSITIVE, f64::INFINITY, f64::NEG_INFINITY] {
            let e = RankRule::<f64>::new(&Truncation::Tolerance(eps), 1.0, 3).err();
            assert!(
                matches!(e, Some(LinalgError::InvalidConfig { param: "tolerance", .. })),
                "{eps}: {e:?}"
            );
        }
        // Lossless (0) and everything-fits (> 1) tolerances stay legal.
        for eps in [0.0, 1e-4, 2.0] {
            let rule = RankRule::<f64>::new(&Truncation::Tolerance(eps), 1.0, 3).unwrap();
            assert!(rule.rank(&[3.0, 2.0, 1.0], 0) >= 1, "{eps}");
        }
    }
}
