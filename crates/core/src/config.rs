//! Configuration of an ST-HOSVD run: SVD algorithm, mode ordering,
//! truncation criterion, and the tuning knobs of §4.2.

use crate::order::{optimize_mode_order, OrderSearch};
use tucker_dtensor::ReductionTree;
use tucker_linalg::randomized::RandomizedSvdConfig;
use tucker_linalg::tslq::TslqOptions;
use tucker_linalg::LinalgError;
use tucker_mpisim::CostModel;

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
            SvdMethod::GramMixed => "Gram mixed",
        }
    }
}

/// Order in which ST-HOSVD processes the modes (§4.2.3: the paper considers
/// the forward and backward orderings of the storage order, and ordering by
/// cost whenever the ranks are known).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModeOrder {
    /// `0, 1, ..., N-1`.
    Forward,
    /// `N-1, ..., 1, 0`.
    Backward,
    /// Explicit permutation of `0..N`.
    Custom(Vec<usize>),
    /// The cheapest order under the cost model when the ranks are fixed,
    /// `Forward` otherwise; see [`SthosvdConfig::resolved_order`].
    Auto,
}

impl ModeOrder {
    /// Does this order name each of the modes `0..n` exactly once?
    /// (`Forward` and `Backward` do for every `n`.)
    pub fn is_permutation_of(&self, n: usize) -> bool {
        let ModeOrder::Custom(p) = self else { return true };
        let mut seen = vec![false; n];
        p.len() == n && p.iter().all(|&m| m < n && !std::mem::replace(&mut seen[m], true))
    }

    /// Resolve an explicit order to its permutation of `n` modes. Panics
    /// unless [`ModeOrder::is_permutation_of`] holds, and on `Auto`, which
    /// needs the tensor and the ranks: a run's order comes from
    /// [`SthosvdConfig::resolved_order`], which returns typed errors.
    pub fn resolve(&self, n: usize) -> Vec<usize> {
        assert!(self.is_permutation_of(n), "mode order {self:?} must be a permutation of 0..{n}");
        match self {
            ModeOrder::Forward => (0..n).collect(),
            ModeOrder::Backward => (0..n).rev().collect(),
            ModeOrder::Custom(p) => p.clone(),
            ModeOrder::Auto => unreachable!("Auto is resolved against dims and ranks"),
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
    /// Flat-tree LQ options (none: the type is what `lq_of_unfolding` and
    /// `parallel_tensor_lq` take).
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
            tslq: TslqOptions,
            tree: ReductionTree::Butterfly,
            randomized: RandomizedSvdConfig::default(),
        }
    }

    /// Fixed-rank config with defaults: QR-SVD, and the mode order the cost
    /// model picks for these ranks ([`ModeOrder::Auto`]).
    pub fn with_ranks(ranks: Vec<usize>) -> Self {
        SthosvdConfig {
            mode_order: ModeOrder::Auto,
            truncation: Truncation::Ranks(ranks),
            ..Self::with_tolerance(0.0)
        }
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

    /// The mode-processing order of a run on a tensor of `dims` in a
    /// `bytes`-wide scalar: the configured permutation, or for
    /// [`ModeOrder::Auto`] with fixed ranks the cheapest order under the cost
    /// model (exhaustive up to 6 modes, greedy beyond) on `min(R_n, I_n)`, a
    /// 1×…×1 grid, the method and `bytes`. The grid is fixed so that one
    /// input and one config give one order — and one set of bits — on every
    /// grid. `Auto` without fixed ranks is `Forward`. The mode loop, the
    /// checkpoint reader and the CLI all resolve through here.
    pub fn resolved_order(&self, dims: &[usize], bytes: usize) -> Result<Vec<usize>, LinalgError> {
        let n = dims.len();
        if !self.mode_order.is_permutation_of(n) {
            return Err(LinalgError::InvalidConfig {
                param: "mode_order",
                value: format!("{:?} for a {n}-mode tensor", self.mode_order),
                expected: "each mode exactly once",
            });
        }
        match (&self.mode_order, &self.truncation) {
            (ModeOrder::Auto, Truncation::Ranks(r)) if n > 0 => {
                check_ranks(r, n)?;
                let ranks: Vec<usize> = r.iter().zip(dims).map(|(&r, &d)| r.min(d)).collect();
                let search = if n <= 6 { OrderSearch::Exhaustive } else { OrderSearch::Greedy };
                let (order, _) = optimize_mode_order(
                    dims,
                    &ranks,
                    &vec![1; n],
                    self.method,
                    bytes,
                    CostModel::andes(),
                    search,
                );
                Ok(order.resolve(n))
            }
            (ModeOrder::Auto, _) => Ok(ModeOrder::Forward.resolve(n)),
            (order, _) => Ok(order.resolve(n)),
        }
    }

    /// Does the QR method take mode `n`'s singular vectors from a thin SVD
    /// of its `rows × cols` unfolding instead of an LQ padded to a
    /// `rows × rows` triangle? Only when the unfolding is tall
    /// (`cols < rows`) and the rank rule cannot need more than `cols`
    /// columns: a tolerance, or a fixed `min(R_n, rows) ≤ cols`. The
    /// singular values past `cols` are exact zeros either way.
    pub fn thin_svd(&self, n: usize, rows: usize, cols: usize) -> bool {
        // The columns the rank rule needs the SVD to offer: none in
        // particular for a tolerance (it cuts whatever profile it gets), a
        // fixed rank its cap, every row without truncation.
        let need = match &self.truncation {
            Truncation::Tolerance(_) => 0,
            Truncation::Ranks(r) => r.get(n).map_or(rows, |&r| r.min(rows)),
            Truncation::None => rows,
        };
        thin_qr(self.method, rows, cols, need)
    }

    /// Validate the knobs of the configured method — the randomized
    /// method's, the only one that has any — with typed errors
    /// instead of silently clamping out-of-range values or panicking in a
    /// kernel. Called by the mode loop's `init` (and the checkpointed
    /// driver's resume) before any work starts.
    ///
    /// The per-mode *algorithmic* cap (sketch width at `min(I_n, I^*/I_n)`)
    /// is not a configuration error and is still applied inside the drivers.
    pub fn validate(&self) -> Result<(), LinalgError> {
        let r = &self.randomized;
        if self.method != SvdMethod::Randomized {
            return Ok(());
        }
        self.fixed_ranks()?;
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
        Ok(())
    }
}

/// Does a mode of `rows × cols` unfolding whose rank rule keeps at most
/// `rank` columns take QR-SVD's thin path? Only QR-SVD, only a tall
/// unfolding, and only a rank that fits in `cols`. The one copy of the
/// rule: [`SthosvdConfig::thin_svd`] asks it before the SVD, and the model
/// and `--model-check` ask it with the rank the run kept, which is the same
/// decision.
pub fn thin_qr(method: SvdMethod, rows: usize, cols: usize, rank: usize) -> bool {
    method == SvdMethod::Qr && cols < rows && rank <= cols
}

/// Fixed ranks must name every one of `nmodes` modes with a rank of at
/// least one.
pub(crate) fn check_ranks(r: &[usize], nmodes: usize) -> Result<(), LinalgError> {
    if r.len() != nmodes || r.contains(&0) {
        return Err(LinalgError::InvalidConfig {
            param: "ranks",
            value: format!("{r:?} for a {nmodes}-mode tensor"),
            expected: "one rank of at least 1 per mode",
        });
    }
    Ok(())
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
    fn auto_is_the_fixed_rank_default_and_resolves_once() {
        let ranks = SthosvdConfig::with_ranks(vec![20, 20, 2]);
        assert_eq!(ranks.mode_order, ModeOrder::Auto);
        assert_eq!(SthosvdConfig::with_tolerance(1e-3).mode_order, ModeOrder::Forward);
        assert_eq!(SthosvdConfig::no_truncation().mode_order, ModeOrder::Forward);
        // Mode 2 truncates 100 → 2: the cost model processes it first.
        let order = ranks.clone().resolved_order(&[40, 40, 100], 8).unwrap();
        assert_eq!(order[0], 2, "{order:?}");
        // Ranks past a dimension are capped before the search.
        let at = SthosvdConfig::with_ranks(vec![40, 20, 2]).resolved_order(&[40, 40, 100], 8);
        let past = SthosvdConfig::with_ranks(vec![99, 20, 2]).resolved_order(&[40, 40, 100], 8);
        assert_eq!(at.unwrap(), past.unwrap());
        // Without fixed ranks Auto is Forward, and an explicit order is kept.
        let tol = SthosvdConfig::with_tolerance(1e-3).order(ModeOrder::Auto);
        assert_eq!(tol.resolved_order(&[40, 40, 100], 8).unwrap(), [0, 1, 2]);
        let back = ranks.order(ModeOrder::Backward);
        assert_eq!(back.resolved_order(&[40, 40, 100], 8).unwrap(), [2, 1, 0]);
    }

    #[test]
    fn thin_svd_only_where_the_rank_rule_fits_the_columns() {
        // A 40 × 30 unfolding is tall; a 30 × 40 one is not.
        let qr = |t: Truncation| SthosvdConfig { truncation: t, ..SthosvdConfig::no_truncation() };
        assert!(qr(Truncation::Tolerance(1e-3)).thin_svd(0, 40, 30));
        assert!(!qr(Truncation::Tolerance(1e-3)).thin_svd(0, 30, 40));
        assert!(qr(Truncation::Ranks(vec![30, 1])).thin_svd(0, 40, 30));
        assert!(!qr(Truncation::Ranks(vec![31, 1])).thin_svd(0, 40, 30));
        assert!(!qr(Truncation::None).thin_svd(0, 40, 30));
        let gram = qr(Truncation::Tolerance(1e-3)).method(SvdMethod::Gram);
        assert!(!gram.thin_svd(0, 40, 30), "only QR-SVD factors thin");
    }

    #[test]
    fn labels() {
        assert_eq!(SvdMethod::Gram.label(), "Gram");
        assert_eq!(SvdMethod::Qr.label(), "QR");
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
    }

    #[test]
    fn validate_requires_ranks_for_randomized() {
        let e = SthosvdConfig::with_tolerance(1e-3)
            .method(SvdMethod::Randomized)
            .validate()
            .unwrap_err();
        assert!(matches!(e, LinalgError::InvalidConfig { param: "truncation", .. }), "{e}");
    }
}
