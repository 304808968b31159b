//! Configuration of an ST-HOSVD run: SVD algorithm, mode ordering,
//! truncation criterion, and the tuning knobs of §4.2.

use tucker_dtensor::ReductionTree;
use tucker_linalg::randomized::RandomizedSvdConfig;
use tucker_linalg::tslq::TslqOptions;
use tucker_linalg::LinalgError;

/// Which SVD algorithm factors each unfolding (the paper's central choice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvdMethod {
    /// TuckerMPI's Gram-SVD: eigendecomposition of `X_(n) X_(n)ᵀ` (§2.3).
    /// Half the flops of QR, but singular values below `‖A‖·√ε` are noise.
    Gram,
    /// The paper's QR-SVD: LQ of the unfolding, SVD of the triangle (§3.1).
    /// Twice the flops of Gram, accurate down to `‖A‖·ε`.
    Qr,
    /// Randomized range-finder SVD (Halko et al.) — the competitor the
    /// paper's conclusion points at for loose tolerances (§5). Requires
    /// fixed ranks ([`Truncation::Ranks`]). Available in both the
    /// sequential and the distributed driver; for a fixed seed the
    /// distributed result is bit-identical across task counts and grid
    /// shapes (and to the sequential blocked driver).
    Randomized,
    /// Sketched approximate-matmul Gram: estimates `X_(n) X_(n)ᵀ` from a
    /// stratified row sample (`X Sᵀ S Xᵀ`), trading accuracy for a sample
    /// count that no longer scales with `I^*`. Tunable via
    /// `RandomizedSvdConfig::sketch_rows`; at full sampling it coincides
    /// with [`SvdMethod::Gram`].
    SketchedGram,
    /// Mixed-precision Gram-SVD (the paper's §5 future work): data and TTMs
    /// stay in the working precision, the Gram accumulation and
    /// eigendecomposition run in `f64`. Accuracy floor ~`ε_s·‖A‖` (like
    /// QR-single) at Gram-like structure.
    GramMixed,
}

impl SvdMethod {
    /// Label used in experiment output ("Gram" / "QR", as in the paper).
    pub fn label(self) -> &'static str {
        match self {
            SvdMethod::Gram => "Gram",
            SvdMethod::Qr => "QR",
            SvdMethod::Randomized => "Randomized",
            SvdMethod::SketchedGram => "Sketched Gram",
            SvdMethod::GramMixed => "Gram mixed",
        }
    }
}

/// Order in which ST-HOSVD processes the modes (§4.2.3: the paper considers
/// the forward and backward orderings of the storage order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModeOrder {
    /// `0, 1, ..., N-1`.
    Forward,
    /// `N-1, ..., 1, 0`.
    Backward,
    /// Explicit permutation of `0..N`.
    Custom(Vec<usize>),
}

impl ModeOrder {
    /// Does this order name each of the modes `0..n` exactly once?
    /// (`Forward` and `Backward` do for every `n`.)
    pub fn is_permutation_of(&self, n: usize) -> bool {
        let ModeOrder::Custom(p) = self else { return true };
        let mut seen = vec![false; n];
        p.len() == n && p.iter().all(|&m| m < n && !std::mem::replace(&mut seen[m], true))
    }

    /// Resolve to an explicit permutation for `n` modes. Panics unless
    /// [`ModeOrder::is_permutation_of`] holds; the drivers check that first
    /// and return a typed error.
    pub fn resolve(&self, n: usize) -> Vec<usize> {
        assert!(self.is_permutation_of(n), "mode order {self:?} must be a permutation of 0..{n}");
        match self {
            ModeOrder::Forward => (0..n).collect(),
            ModeOrder::Backward => (0..n).rev().collect(),
            ModeOrder::Custom(p) => p.clone(),
        }
    }
}

/// Truncation criterion (Alg. 1 line 5, or fixed ranks as in the paper's
/// Video experiment).
#[derive(Clone, Debug, PartialEq)]
pub enum Truncation {
    /// Relative error tolerance ε: per-mode tail threshold `ε²‖X‖²/N`.
    Tolerance(f64),
    /// Fixed per-mode ranks (capped at the mode dimension).
    Ranks(Vec<usize>),
    /// No truncation: full HOSVD factors (used to read off the per-mode
    /// singular value profiles, Figs. 5–7).
    None,
}

/// Full configuration of an ST-HOSVD run.
#[derive(Clone, Debug)]
pub struct SthosvdConfig {
    /// SVD algorithm for the unfoldings.
    pub method: SvdMethod,
    /// Mode processing order.
    pub mode_order: ModeOrder,
    /// Truncation criterion.
    pub truncation: Truncation,
    /// Flat-tree LQ options (sequential QR path).
    pub tslq: TslqOptions,
    /// TSQR reduction tree (parallel QR path).
    pub tree: ReductionTree,
    /// Parameters of the randomized method (used only when
    /// `method == SvdMethod::Randomized`).
    pub randomized: RandomizedSvdConfig,
}

impl SthosvdConfig {
    /// Tolerance-driven config with defaults (QR-SVD, forward order).
    pub fn with_tolerance(eps: f64) -> Self {
        SthosvdConfig {
            method: SvdMethod::Qr,
            mode_order: ModeOrder::Forward,
            truncation: Truncation::Tolerance(eps),
            tslq: TslqOptions::default(),
            tree: ReductionTree::Butterfly,
            randomized: RandomizedSvdConfig::default(),
        }
    }

    /// Fixed-rank config with defaults.
    pub fn with_ranks(ranks: Vec<usize>) -> Self {
        SthosvdConfig { truncation: Truncation::Ranks(ranks), ..Self::with_tolerance(0.0) }
    }

    /// No-truncation config (full HOSVD; singular-value probes).
    pub fn no_truncation() -> Self {
        SthosvdConfig { truncation: Truncation::None, ..Self::with_tolerance(0.0) }
    }

    /// Set the SVD method.
    pub fn method(mut self, m: SvdMethod) -> Self {
        self.method = m;
        self
    }

    /// Set the mode order.
    pub fn order(mut self, o: ModeOrder) -> Self {
        self.mode_order = o;
        self
    }

    /// Set the TSQR reduction tree.
    pub fn tree(mut self, t: ReductionTree) -> Self {
        self.tree = t;
        self
    }

    /// Set flat-tree LQ coalescing.
    pub fn tslq(mut self, t: TslqOptions) -> Self {
        self.tslq = t;
        self
    }

    /// Set the randomized-SVD parameters.
    pub fn randomized(mut self, r: RandomizedSvdConfig) -> Self {
        self.randomized = r;
        self
    }

    /// The fixed per-mode ranks — the randomized range finder sketches
    /// `R_n + oversampling` columns, so it needs them before any singular
    /// value exists — or the typed error for every other truncation.
    pub fn fixed_ranks(&self) -> Result<&[usize], LinalgError> {
        match &self.truncation {
            Truncation::Ranks(r) => Ok(r),
            other => Err(LinalgError::InvalidConfig {
                param: "truncation",
                value: format!("{other:?}"),
                expected: "fixed ranks (--ranks) when method is randomized",
            }),
        }
    }

    /// Validate the sketch-related knobs with typed errors instead of
    /// silently clamping out-of-range values. Called by the mode loop's
    /// `init` (and the checkpointed driver's resume) before any work starts.
    ///
    /// Per-mode *algorithmic* caps (sketch width at `min(I_n, I^*/I_n)`,
    /// sample count at the unfolding's column count) are not configuration
    /// errors and are still applied inside the drivers.
    pub fn validate(&self) -> Result<(), LinalgError> {
        let r = &self.randomized;
        let uses_sketch =
            matches!(self.method, SvdMethod::Randomized | SvdMethod::SketchedGram);
        if !uses_sketch {
            return Ok(());
        }
        if self.method == SvdMethod::Randomized {
            self.fixed_ranks()?;
        }
        if r.oversampling == 0 || r.oversampling > 512 {
            return Err(LinalgError::InvalidConfig {
                param: "oversampling",
                value: r.oversampling.to_string(),
                expected: "1..=512 extra sketch columns",
            });
        }
        if r.power_iterations > 10 {
            return Err(LinalgError::InvalidConfig {
                param: "power_iterations",
                value: r.power_iterations.to_string(),
                expected: "0..=10 iterations (more only burns flops)",
            });
        }
        if self.method == SvdMethod::SketchedGram && r.sketch_rows != 0 && r.sketch_rows < 4 {
            return Err(LinalgError::InvalidConfig {
                param: "sketch_rows",
                value: r.sketch_rows.to_string(),
                expected: "0 (auto) or at least 4 sampled rows",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_resolution() {
        assert_eq!(ModeOrder::Forward.resolve(4), vec![0, 1, 2, 3]);
        assert_eq!(ModeOrder::Backward.resolve(4), vec![3, 2, 1, 0]);
    }

    #[test]
    fn custom_permutation_accepted() {
        assert_eq!(ModeOrder::Custom(vec![2, 0, 1]).resolve(3), vec![2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_mode_rejected() {
        ModeOrder::Custom(vec![0, 0, 1]).resolve(3);
    }

    #[test]
    fn builder_chain() {
        let cfg = SthosvdConfig::with_tolerance(1e-4)
            .method(SvdMethod::Gram)
            .order(ModeOrder::Backward);
        assert_eq!(cfg.method, SvdMethod::Gram);
        assert_eq!(cfg.mode_order, ModeOrder::Backward);
        assert_eq!(cfg.truncation, Truncation::Tolerance(1e-4));
    }

    #[test]
    fn labels() {
        assert_eq!(SvdMethod::Gram.label(), "Gram");
        assert_eq!(SvdMethod::Qr.label(), "QR");
        assert_eq!(SvdMethod::SketchedGram.label(), "Sketched Gram");
    }

    #[test]
    fn validate_accepts_defaults_and_ignores_non_sketch_methods() {
        assert!(SthosvdConfig::with_ranks(vec![2, 2]).method(SvdMethod::Randomized)
            .validate()
            .is_ok());
        // Out-of-range knobs are irrelevant to deterministic methods.
        let cfg = SthosvdConfig::with_tolerance(1e-3)
            .randomized(RandomizedSvdConfig { oversampling: 0, ..Default::default() });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_knobs_with_typed_errors() {
        let base = SthosvdConfig::with_ranks(vec![2, 2]).method(SvdMethod::Randomized);
        let bad = |r: RandomizedSvdConfig| base.clone().randomized(r).validate().unwrap_err();
        let e = bad(RandomizedSvdConfig { oversampling: 0, ..Default::default() });
        assert!(matches!(e, LinalgError::InvalidConfig { param: "oversampling", .. }), "{e}");
        let e = bad(RandomizedSvdConfig { oversampling: 513, ..Default::default() });
        assert!(matches!(e, LinalgError::InvalidConfig { param: "oversampling", .. }), "{e}");
        let e = bad(RandomizedSvdConfig { power_iterations: 11, ..Default::default() });
        assert!(matches!(e, LinalgError::InvalidConfig { param: "power_iterations", .. }), "{e}");
        let e = SthosvdConfig::with_tolerance(1e-3)
            .method(SvdMethod::SketchedGram)
            .randomized(RandomizedSvdConfig { sketch_rows: 2, ..Default::default() })
            .validate()
            .unwrap_err();
        assert!(matches!(e, LinalgError::InvalidConfig { param: "sketch_rows", .. }), "{e}");
    }

    #[test]
    fn validate_requires_ranks_for_randomized() {
        let e = SthosvdConfig::with_tolerance(1e-3)
            .method(SvdMethod::Randomized)
            .validate()
            .unwrap_err();
        assert!(matches!(e, LinalgError::InvalidConfig { param: "truncation", .. }), "{e}");
        // SketchedGram is tolerance-capable: it exposes the full spectrum
        // estimate like Gram does.
        assert!(SthosvdConfig::with_tolerance(1e-3)
            .method(SvdMethod::SketchedGram)
            .validate()
            .is_ok());
    }
}
