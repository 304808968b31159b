//! Incremental ST-HOSVD updates when a time-like mode grows.
//!
//! [`StreamState`] holds a live Tucker decomposition whose designated
//! *time mode* receives appended slabs. Each append projects the slab onto
//! the current factors; the **relative drift** — the fraction of slab
//! energy outside the current subspaces,
//! `√(‖S‖² − ‖S ×ₙ UₙUₙᵀ‖²)/‖S‖` — picks one of three paths:
//!
//! * **Fast** (`drift ≤ fast_drift`): the non-time subspaces still cover
//!   the slab. Stack the projected slab under the core along the time mode
//!   and SVD the stacked unfolding; the time factor lifts through the
//!   rotation (`U_t' = [U_t·W_top; W_bot]`), other factors are untouched.
//! * **Refresh** (`drift ≤ full_drift`): augment each non-time factor with
//!   a randomized range basis of the slab's residual `(I − UₙUₙᵀ)S_(n)`
//!   (PR8's blocked range finder), redo the stacked time-mode SVD against
//!   the padded core, then re-truncate the non-time modes from the core's
//!   own unfolding SVDs so ranks stay bounded.
//! * **Full** (`drift > full_drift`): the basis has genuinely rotated;
//!   recompress the retained history from scratch. Without history this is
//!   a typed error, never a silent quality cliff.
//!
//! [`StreamState::append_extend`] is the serving-oriented variant: it only
//! *extends the time factor's rows* (least-squares against the core
//! unfolding), leaving core and all old factor rows bit-identical — so
//! queries that do not touch the appended range reproduce exactly.

use crate::error::{StreamError, StreamResult};
use tucker_core::mode_loop::RankRule;
use tucker_core::{
    read_tucker, read_tucker_header, sthosvd, write_tucker_atomic, SthosvdConfig, TuckerTensor,
};
use tucker_linalg::{
    gemm_into, randomized_svd_left_blocked, svd_left, syev, Matrix, Scalar, Trans,
};
use tucker_tensor::io::IoScalar;
use tucker_tensor::{prod_before, ttm, Tensor, Unfolding};

/// Configuration of the streaming update policy.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// The mode that grows (e.g. time in a sensor stream).
    pub time_mode: usize,
    /// Drift at or below which the cheap stacked-SVD path is taken.
    pub fast_drift: f64,
    /// Drift above which incremental repair is abandoned for a full
    /// recompute of the retained history.
    pub full_drift: f64,
    /// Extra directions the refresh path adds per non-time mode before
    /// re-truncation.
    pub refresh_boost: usize,
    /// Retain the raw (densified) history so the Full path and
    /// recompute-from-scratch baselines are available.
    pub keep_history: bool,
    /// Truncation target and SVD method for recompute and re-truncation.
    pub svd: SthosvdConfig,
}

impl StreamConfig {
    /// Policy with default thresholds (fast ≤ 0.05, full > 0.5, boost 2,
    /// history retained).
    pub fn new(time_mode: usize, svd: SthosvdConfig) -> Self {
        StreamConfig {
            time_mode,
            fast_drift: 0.05,
            full_drift: 0.5,
            refresh_boost: 2,
            keep_history: true,
            svd,
        }
    }

    /// Set the fast-path drift bound.
    pub fn fast_drift(mut self, d: f64) -> Self {
        self.fast_drift = d;
        self
    }

    /// Set the full-recompute drift bound.
    pub fn full_drift(mut self, d: f64) -> Self {
        self.full_drift = d;
        self
    }

    /// Set the refresh-path rank boost.
    pub fn refresh_boost(mut self, b: usize) -> Self {
        self.refresh_boost = b;
        self
    }

    /// Enable or disable raw-history retention.
    pub fn history(mut self, keep: bool) -> Self {
        self.keep_history = keep;
        self
    }
}

/// Which update path an append took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePath {
    /// Row-extension only; old outputs bit-identical.
    Extend,
    /// Stacked time-mode SVD, non-time factors untouched.
    Fast,
    /// Residual range-finder augmentation + re-truncation.
    Refresh,
    /// Full recompute of the retained history.
    Full,
}

impl UpdatePath {
    /// Stable label for logs and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            UpdatePath::Extend => "extend",
            UpdatePath::Fast => "fast",
            UpdatePath::Refresh => "refresh",
            UpdatePath::Full => "full",
        }
    }
}

/// What an append did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The path taken.
    pub path: UpdatePath,
    /// Observed relative drift of the appended slab.
    pub drift: f64,
    /// Rows appended to the time mode.
    pub appended: usize,
    /// Generation after the update.
    pub generation: u64,
    /// Multilinear ranks after the update.
    pub ranks: Vec<usize>,
}

/// A live, incrementally maintained Tucker decomposition.
pub struct StreamState<T> {
    cfg: StreamConfig,
    tucker: TuckerTensor<T>,
    generation: u64,
    history: Option<Tensor<T>>,
    /// Set once `append_extend` has run: the time factor is no longer
    /// orthonormal, so subsequent incremental paths are invalid.
    extended: bool,
}

impl<T: Scalar> StreamState<T> {
    /// Compress the initial tensor and start streaming from generation 0.
    pub fn from_initial(x: &Tensor<T>, cfg: StreamConfig) -> StreamResult<Self> {
        check_config::<T>(&cfg, x.ndims())?;
        let tucker = sthosvd(x, &cfg.svd)?;
        let history = cfg.keep_history.then(|| x.clone());
        Ok(StreamState { cfg, tucker, generation: 0, history, extended: false })
    }

    /// Adopt an existing decomposition (e.g. read from a store) at the
    /// given generation. Without history the Full path is unavailable.
    pub fn from_parts(
        tucker: TuckerTensor<T>,
        generation: u64,
        cfg: StreamConfig,
        history: Option<Tensor<T>>,
    ) -> StreamResult<Self> {
        check_config::<T>(&cfg, tucker.factors.len())?;
        if let Some(h) = &history {
            if h.dims() != tucker.original_dims().as_slice() {
                return Err(StreamError::ShapeMismatch {
                    what: "history tensor",
                    details: format!(
                        "history dims {:?} vs decomposition dims {:?}",
                        h.dims(),
                        tucker.original_dims()
                    ),
                });
            }
        }
        Ok(StreamState { cfg, tucker, generation, history, extended: false })
    }

    /// The current decomposition.
    pub fn tucker(&self) -> &TuckerTensor<T> {
        &self.tucker
    }

    /// Take the decomposition out, consuming the state.
    pub fn into_tucker(self) -> TuckerTensor<T> {
        self.tucker
    }

    /// Monotone generation number, bumped by every append.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current full-tensor dimensions (time mode included).
    pub fn dims(&self) -> Vec<usize> {
        self.tucker.original_dims()
    }

    /// The retained raw history, if any.
    pub fn history(&self) -> Option<&Tensor<T>> {
        self.history.as_ref()
    }

    fn check_slab(&self, slab: &Tensor<T>) -> StreamResult<()> {
        let dims = self.dims();
        let t = self.cfg.time_mode;
        let ok = slab.ndims() == dims.len()
            && slab.dims().iter().enumerate().all(|(m, &d)| if m == t { d > 0 } else { d == dims[m] });
        if !ok {
            return Err(StreamError::ShapeMismatch {
                what: "appended slab",
                details: format!(
                    "slab dims {:?} vs stream dims {:?} (time mode {t} free, not empty)",
                    slab.dims(),
                    dims
                ),
            });
        }
        Ok(())
    }

    /// Project the slab onto the current non-time factors.
    fn project_non_time(&self, slab: &Tensor<T>) -> Tensor<T> {
        let mut p = slab.clone();
        for (m, u) in self.tucker.factors.iter().enumerate() {
            if m != self.cfg.time_mode {
                p = ttm(&p, m, u.as_ref(), true);
            }
        }
        p
    }

    /// Project the slab onto the non-time factors and measure the relative
    /// energy it leaves outside them.
    fn project(&self, slab: &Tensor<T>) -> (Tensor<T>, f64) {
        let p = self.project_non_time(slab);
        let ns = slab.norm().to_f64();
        let np = p.norm().to_f64();
        let drift = if ns > 0.0 { ((ns * ns - np * np).max(0.0)).sqrt() / ns } else { 0.0 };
        (p, drift)
    }

    fn absorb_history(&mut self, slab: &Tensor<T>) {
        if self.cfg.keep_history {
            if let Some(h) = &self.history {
                self.history = Some(append_dense(h, slab, self.cfg.time_mode));
            }
        }
    }

    /// Append a slab along the time mode, choosing Fast / Refresh / Full by
    /// the observed drift. Returns what was done.
    pub fn append(&mut self, slab: &Tensor<T>) -> StreamResult<UpdateReport> {
        self.check_slab(slab)?;
        let (p, drift) = self.project(slab);
        self.absorb_history(slab);
        let appended = slab.dims()[self.cfg.time_mode];

        let path = if !self.extended && drift <= self.cfg.fast_drift {
            self.stack_time_mode(self.tucker.core.clone(), p)?;
            UpdatePath::Fast
        } else if !self.extended && drift <= self.cfg.full_drift {
            self.refresh(slab)?;
            UpdatePath::Refresh
        } else {
            match &self.history {
                Some(h) => {
                    self.tucker = sthosvd(h, &self.cfg.svd)?;
                    self.extended = false;
                    UpdatePath::Full
                }
                None => {
                    return Err(StreamError::DriftExceedsBound {
                        drift,
                        bound: self.cfg.full_drift,
                    })
                }
            }
        };

        Ok(self.commit(path, drift, appended))
    }

    /// Bump the generation and describe the append that just landed.
    fn commit(&mut self, path: UpdatePath, drift: f64, appended: usize) -> UpdateReport {
        self.generation += 1;
        UpdateReport {
            path,
            drift,
            appended,
            generation: self.generation,
            ranks: self.tucker.ranks(),
        }
    }

    /// Stack `p`'s time-mode unfolding under `core`'s, SVD, and lift the
    /// time factor through the rotation. `core` and `p` must agree on all
    /// non-time (rank-space) dimensions.
    fn stack_time_mode(&mut self, core: Tensor<T>, p: Tensor<T>) -> StreamResult<()> {
        let t = self.cfg.time_mode;
        let g_t = Unfolding::new(&core, t).to_matrix();
        let p_t = Unfolding::new(&p, t).to_matrix();
        debug_assert_eq!(g_t.cols(), p_t.cols(), "stacked unfoldings must share columns");
        let k = vstack(&g_t, &p_t);
        let (w, sigma) = svd_left(k.as_ref())?;
        let r_new = self.pick_rank(&sigma, t, k.as_ref().frob_norm())?;
        let w = w.truncate_cols(r_new);

        // New core: W'ᵀ K folded back with the time rank replaced.
        let c = gemm_into(w.as_ref(), Trans::Yes, k.as_ref(), Trans::No);
        let mut new_rank_dims = core.dims().to_vec();
        new_rank_dims[t] = r_new;
        let new_core = fold_matrix(&c, &new_rank_dims, t);

        // Lift: rows of W split between the old core rows and the slab rows.
        let r_old = g_t.rows();
        let w_top = Matrix::from_fn(r_old, r_new, |i, j| w[(i, j)]);
        let w_bot = Matrix::from_fn(p_t.rows(), r_new, |i, j| w[(r_old + i, j)]);
        let u_t = &self.tucker.factors[t];
        let top = gemm_into(u_t.as_ref(), Trans::No, w_top.as_ref(), Trans::No);
        self.tucker.factors[t] = vstack(&top, &w_bot);
        self.tucker.core = new_core;
        Ok(())
    }

    /// The refresh path: augment non-time factors with the slab residual's
    /// range, redo the stacked time-mode SVD against the zero-padded core,
    /// then re-truncate the non-time modes.
    fn refresh(&mut self, slab: &Tensor<T>) -> StreamResult<()> {
        let t = self.cfg.time_mode;
        let nmodes = self.tucker.factors.len();

        // 1. Augment each non-time factor with the residual range.
        for n in 0..nmodes {
            if n == t {
                continue;
            }
            let u_n = self.tucker.factors[n].clone();
            let a_n = Unfolding::new(slab, n).to_matrix();
            // Residual (I − UUᵀ)A.
            let ut_a = gemm_into(u_n.as_ref(), Trans::Yes, a_n.as_ref(), Trans::No);
            let back = gemm_into(u_n.as_ref(), Trans::No, ut_a.as_ref(), Trans::No);
            let resid = Matrix::from_fn(a_n.rows(), a_n.cols(), |i, j| a_n[(i, j)] - back[(i, j)]);
            let scale = a_n.as_ref().frob_norm().to_f64();
            if scale <= 0.0 || resid.as_ref().frob_norm().to_f64() <= 1e-12 * scale {
                continue;
            }
            let room = u_n.rows().saturating_sub(u_n.cols());
            let q = self.cfg.refresh_boost.min(room).min(resid.cols());
            if q == 0 {
                continue;
            }
            let (qr, _) = randomized_svd_left_blocked(resid.as_ref(), q, &self.cfg.svd.randomized)?;
            // Deflate against U once more (the residual is orthogonal to U
            // only up to roundoff) and re-orthonormalize, dropping numerically
            // dead directions.
            let ut_q = gemm_into(u_n.as_ref(), Trans::Yes, qr.as_ref(), Trans::No);
            let uq = gemm_into(u_n.as_ref(), Trans::No, ut_q.as_ref(), Trans::No);
            let defl = Matrix::from_fn(qr.rows(), qr.cols(), |i, j| qr[(i, j)] - uq[(i, j)]);
            let (qq, ss) = svd_left(defl.as_ref())?;
            let lead = ss.first().map_or(0.0, |s| s.to_f64());
            let keep = ss.iter().take_while(|s| s.to_f64() > 1e-10 * lead.max(1e-300)).count();
            if keep == 0 {
                continue;
            }
            self.tucker.factors[n] = hstack(&u_n, &qq.truncate_cols(keep));
        }

        // 2. Zero-pad the core into the augmented rank space (the first
        // r_n columns of each augmented factor are the old U_n, so the old
        // core occupies the leading block) and stack the slab's projection.
        let old_core = self.tucker.core.clone();
        let aug_ranks: Vec<usize> = self.tucker.factors.iter().map(|u| u.cols()).collect();
        let mut padded = Tensor::zeros(&aug_ranks);
        embed_leading_block(&old_core, &mut padded);
        self.stack_time_mode(padded, self.project_non_time(slab))?;

        // 3. Re-truncate the non-time modes from the core's own unfoldings
        // so refresh cannot grow ranks without bound.
        for n in 0..nmodes {
            if n == t {
                continue;
            }
            let g_n = Unfolding::new(&self.tucker.core, n).to_matrix();
            let (v, sigma) = svd_left(g_n.as_ref())?;
            let r_keep = self.pick_rank(&sigma, n, self.tucker.core.norm())?;
            if r_keep >= g_n.rows() {
                continue;
            }
            let v = v.truncate_cols(r_keep);
            self.tucker.factors[n] =
                gemm_into(self.tucker.factors[n].as_ref(), Trans::No, v.as_ref(), Trans::No);
            self.tucker.core = ttm(&self.tucker.core, n, v.as_ref(), true);
        }
        Ok(())
    }

    /// The batch driver's rank rule on a full SVD's `sigma`, with
    /// tolerances budgeting the discarded tail against the given norm.
    fn pick_rank(&self, sigma: &[T], n: usize, norm: T) -> StreamResult<usize> {
        let rule = RankRule::new(&self.cfg.svd.truncation, norm, self.tucker.factors.len())?;
        Ok(rule.rank(sigma, n))
    }

    /// Append by *pure row extension*: solve the least-squares coordinates
    /// of the slab in the current core row space and append them as new
    /// time-factor rows. Core, non-time factors, and **all existing
    /// time-factor rows are bit-identical afterwards**, so any query that
    /// does not touch the appended range reproduces exactly. The time
    /// factor loses orthonormality; later appends fall back to the Full
    /// path.
    pub fn append_extend(&mut self, slab: &Tensor<T>) -> StreamResult<UpdateReport> {
        self.check_slab(slab)?;
        let t = self.cfg.time_mode;
        let (p, drift) = self.project(slab);
        self.absorb_history(slab);

        let g_t = Unfolding::new(&self.tucker.core, t).to_matrix();
        let p_t = Unfolding::new(&p, t).to_matrix();
        // C = P Gᵀ (G Gᵀ)⁺ — the minimum-norm rows reproducing the slab's
        // projection through the unchanged core.
        let pg = gemm_into(p_t.as_ref(), Trans::No, g_t.as_ref(), Trans::Yes);
        let m = gemm_into(g_t.as_ref(), Trans::No, g_t.as_ref(), Trans::Yes);
        let eig = syev(&m)?;
        let lmax = eig.values.iter().map(|l| l.to_f64().abs()).fold(0.0, f64::max);
        let cut = T::from_f64(lmax * 1e-12);
        // (G Gᵀ)⁺ = Q Λ⁺ Qᵀ with small eigenvalues zeroed.
        let r = m.rows();
        let mut pinv = Matrix::zeros(r, r);
        for k in 0..r {
            let lk = eig.values[k];
            if lk.to_f64().abs() <= cut.to_f64() {
                continue;
            }
            let inv = T::ONE / lk;
            for i in 0..r {
                for j in 0..r {
                    pinv[(i, j)] += eig.vectors[(i, k)] * inv * eig.vectors[(j, k)];
                }
            }
        }
        let c = gemm_into(pg.as_ref(), Trans::No, pinv.as_ref(), Trans::No);
        self.tucker.factors[t] = vstack(&self.tucker.factors[t], &c);
        self.extended = true;
        Ok(self.commit(UpdatePath::Extend, drift, slab.dims()[t]))
    }

    /// Recompute the decomposition of the retained history from scratch —
    /// the baseline the incremental paths are benchmarked against.
    pub fn recompute(&self) -> StreamResult<TuckerTensor<T>> {
        match &self.history {
            Some(h) => Ok(sthosvd(h, &self.cfg.svd)?),
            None => Err(StreamError::ShapeMismatch {
                what: "recompute",
                details: "no raw history retained (StreamConfig::history(false))".into(),
            }),
        }
    }
}

impl<T: Scalar + IoScalar> StreamState<T> {
    /// Adopt a decomposition from a TUCK store (generation from the v3
    /// header; 0 for older stores). No history: the Full path is
    /// unavailable until re-seeded.
    pub fn open(path: impl AsRef<std::path::Path>, cfg: StreamConfig) -> StreamResult<Self> {
        let header = read_tucker_header(&path)?;
        let tucker = read_tucker::<T>(&path)?;
        Self::from_parts(tucker, header.generation, cfg, None)
    }

    /// Atomically publish the current decomposition and generation as a v3
    /// TUCK store (temp + rename; readers never observe a torn file).
    pub fn publish(&self, path: impl AsRef<std::path::Path>) -> StreamResult<()> {
        write_tucker_atomic(path, &self.tucker, self.generation)?;
        Ok(())
    }
}

/// Check a [`StreamConfig`] against a tensor of `nmodes` modes before any
/// append can mutate the state: the time mode exists, and the rank rule
/// resolves (the norm only enters per append).
fn check_config<T: Scalar>(cfg: &StreamConfig, nmodes: usize) -> StreamResult<()> {
    if cfg.time_mode >= nmodes {
        return Err(StreamError::ShapeMismatch {
            what: "time mode",
            details: format!("mode {} out of range for {nmodes} modes", cfg.time_mode),
        });
    }
    RankRule::new(&cfg.svd.truncation, T::ZERO, nmodes)?;
    Ok(())
}

/// Concatenate two tensors along mode `n` (all other dims must agree).
pub fn append_dense<T: Scalar>(x: &Tensor<T>, y: &Tensor<T>, n: usize) -> Tensor<T> {
    assert_eq!(x.ndims(), y.ndims(), "append_dense: rank mismatch");
    for m in 0..x.ndims() {
        if m != n {
            assert_eq!(x.dims()[m], y.dims()[m], "append_dense: dim mismatch in mode {m}");
        }
    }
    let mut dims = x.dims().to_vec();
    dims[n] += y.dims()[n];
    let before = prod_before(x.dims(), n);
    let bx = before * x.dims()[n];
    let by = before * y.dims()[n];
    let after = x.data().len() / bx;
    let mut data = Vec::with_capacity(x.data().len() + y.data().len());
    for a in 0..after {
        data.extend_from_slice(&x.data()[a * bx..(a + 1) * bx]);
        data.extend_from_slice(&y.data()[a * by..(a + 1) * by]);
    }
    Tensor::from_data(&dims, data)
}

/// Fold a mode-`n` unfolding back into a tensor of the given dims (the
/// inverse of [`Unfolding::to_matrix`] under the first-mode-fastest
/// layout).
pub fn fold_matrix<T: Scalar>(m: &Matrix<T>, dims: &[usize], n: usize) -> Tensor<T> {
    let before = prod_before(dims, n);
    assert_eq!(m.rows(), dims[n], "fold_matrix: row count must be dims[n]");
    assert_eq!(
        m.rows() * m.cols(),
        dims.iter().product::<usize>(),
        "fold_matrix: element count mismatch"
    );
    let mut x = Tensor::zeros(dims);
    let data = x.data_mut();
    for c in 0..m.cols() {
        let b = c % before;
        let a = c / before;
        for i in 0..m.rows() {
            data[b + before * (i + dims[n] * a)] = m[(i, c)];
        }
    }
    x
}

/// Copy `src` into the leading (all-zero-offset) block of `dst`.
fn embed_leading_block<T: Scalar>(src: &Tensor<T>, dst: &mut Tensor<T>) {
    let sd = src.dims().to_vec();
    let dd = dst.dims().to_vec();
    let out = dst.data_mut();
    for (lin, &v) in src.data().iter().enumerate() {
        let idx = tucker_tensor::multi_index(&sd, lin);
        out[tucker_tensor::linear_index(&dd, &idx)] = v;
    }
}

fn vstack<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.cols(), b.cols(), "vstack: column mismatch");
    Matrix::from_fn(a.rows() + b.rows(), a.cols(), |i, j| {
        if i < a.rows() {
            a[(i, j)]
        } else {
            b[(i - a.rows(), j)]
        }
    })
}

fn hstack<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(a.rows(), b.rows(), "hstack: row mismatch");
    Matrix::from_fn(a.rows(), a.cols() + b.cols(), |i, j| {
        if j < a.cols() {
            a[(i, j)]
        } else {
            b[(i, j - a.cols())]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_core::SvdMethod;
    use tucker_linalg::LinalgError;

    /// Smooth time-evolving low-rank tensor: same spatial subspaces at
    /// every time step, so appends are subspace-preserving.
    fn smooth_tensor(dims: &[usize; 3], t0: usize) -> Tensor<T64> {
        Tensor::from_fn(dims, |idx| {
            let (i, j, t) = (idx[0], idx[1], idx[2] + t0);
            (0.5 * i as f64).sin() * (0.3 * j as f64).cos() * (0.05 * t as f64).cos()
                + 0.5 * (0.2 * i as f64).cos() * (0.7 * j as f64).sin() * (0.04 * t as f64).sin()
        })
    }
    type T64 = f64;

    fn cfg3() -> StreamConfig {
        StreamConfig::new(2, SthosvdConfig::with_ranks(vec![4, 4, 4]).method(SvdMethod::Gram))
    }

    #[test]
    fn append_dense_concatenates_every_mode() {
        let x = Tensor::from_fn(&[2, 3, 2], |idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64);
        for n in 0..3 {
            let y = Tensor::from_fn(&[2, 3, 2], |idx| -((idx[0] + idx[1] + idx[2]) as f64));
            let z = append_dense(&x, &y, n);
            assert_eq!(z.dims()[n], x.dims()[n] * 2);
            // Old block intact, new block follows.
            let mut idx = [1, 2, 1];
            assert_eq!(z.get(&idx), x.get(&[1, 2, 1]));
            idx[n] += x.dims()[n];
            assert_eq!(z.get(&idx), y.get(&[1, 2, 1]));
        }
    }

    #[test]
    fn fold_matrix_inverts_unfolding() {
        let x = Tensor::from_fn(&[3, 4, 2], |idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64);
        for n in 0..3 {
            let m = Unfolding::new(&x, n).to_matrix();
            let back = fold_matrix(&m, x.dims(), n);
            assert_eq!(back.data(), x.data());
        }
    }

    #[test]
    fn fast_path_tracks_subspace_preserving_appends() {
        let x = smooth_tensor(&[12, 10, 16], 0);
        let mut st = StreamState::from_initial(&x, cfg3()).unwrap();
        assert_eq!(st.generation(), 0);
        let slab = smooth_tensor(&[12, 10, 4], 16);
        let rep = st.append(&slab).unwrap();
        assert_eq!(rep.path, UpdatePath::Fast, "drift {:.3e}", rep.drift);
        assert_eq!(rep.generation, 1);
        assert_eq!(st.dims(), vec![12, 10, 20]);
        // Quality: close to a from-scratch recompute of the full history.
        let full = append_dense(&x, &slab, 2);
        let inc_err = st.tucker().relative_error(&full).to_f64();
        let scratch = sthosvd(&full, &cfg3().svd).unwrap();
        let scratch_err = scratch.relative_error(&full).to_f64();
        assert!(
            inc_err <= scratch_err * 1.1 + 1e-8,
            "incremental {inc_err} vs scratch {scratch_err}"
        );
    }

    #[test]
    fn novel_subspace_triggers_refresh_and_recovers() {
        let x = smooth_tensor(&[12, 10, 16], 0);
        let cfg = StreamConfig::new(
            2,
            SthosvdConfig::with_ranks(vec![5, 5, 5]).method(SvdMethod::Gram),
        )
        .fast_drift(0.02)
        .full_drift(0.9)
        .refresh_boost(3);
        let mut st = StreamState::from_initial(&x, cfg.clone()).unwrap();
        // A slab mixing the ongoing signal with a comparable-energy novel
        // direction: too much drift for Fast, not enough for Full.
        let base = smooth_tensor(&[12, 10, 4], 16);
        let slab = Tensor::from_fn(&[12, 10, 4], |idx| {
            let (i, j, t) = (idx[0], idx[1], idx[2]);
            base.get(&[i, j, t])
                + 0.7 * ((2.3 * i as f64).sin() * (1.9 * j as f64).cos()) * (1.0 + 0.1 * t as f64)
        });
        let rep = st.append(&slab).unwrap();
        assert_eq!(rep.path, UpdatePath::Refresh, "drift {:.3e}", rep.drift);
        // Ranks stay at the configured bound.
        assert!(rep.ranks.iter().zip([5, 5, 5]).all(|(&r, b)| r <= b), "{:?}", rep.ranks);
        let full = append_dense(&x, &slab, 2);
        let err = st.tucker().relative_error(&full).to_f64();
        let scratch = sthosvd(&full, &cfg.svd).unwrap().relative_error(&full).to_f64();
        assert!(err <= scratch * 1.5 + 0.05, "refresh {err} vs scratch {scratch}");
    }

    #[test]
    fn wild_drift_falls_back_to_full_recompute() {
        let x = smooth_tensor(&[10, 8, 12], 0);
        let cfg = cfg3().fast_drift(1e-6).full_drift(1e-3);
        let mut st = StreamState::from_initial(&x, cfg).unwrap();
        let slab = Tensor::from_fn(&[10, 8, 3], |idx| {
            ((idx[0] * 7 + idx[1] * 3 + idx[2]) as f64 * 2.17).sin()
        });
        let rep = st.append(&slab).unwrap();
        assert_eq!(rep.path, UpdatePath::Full, "drift {:.3e}", rep.drift);
        let full = append_dense(&x, &slab, 2);
        let err = st.tucker().relative_error(&full).to_f64();
        let scratch = sthosvd(&full, &cfg3().svd).unwrap().relative_error(&full).to_f64();
        assert!((err - scratch).abs() < 1e-10, "full path must equal scratch");
    }

    #[test]
    fn wild_drift_without_history_is_a_typed_error() {
        let x = smooth_tensor(&[10, 8, 12], 0);
        let cfg = cfg3().fast_drift(1e-6).full_drift(1e-3).history(false);
        let mut st = StreamState::from_initial(&x, cfg).unwrap();
        let slab = Tensor::from_fn(&[10, 8, 3], |idx| {
            ((idx[0] * 7 + idx[1] * 3 + idx[2]) as f64 * 2.17).sin()
        });
        let e = st.append(&slab).unwrap_err();
        assert!(matches!(e, StreamError::DriftExceedsBound { .. }), "{e}");
        // State unchanged: generation still 0 and dims untouched.
        assert_eq!(st.generation(), 0);
        assert_eq!(st.dims(), vec![10, 8, 12]);
    }

    #[test]
    fn extend_keeps_old_rows_bit_identical() {
        let x = smooth_tensor(&[12, 10, 16], 0);
        let mut st = StreamState::from_initial(&x, cfg3()).unwrap();
        let before = st.tucker().clone();
        let slab = smooth_tensor(&[12, 10, 4], 16);
        let rep = st.append_extend(&slab).unwrap();
        assert_eq!(rep.path, UpdatePath::Extend);
        let after = st.tucker();
        assert_eq!(after.core.data(), before.core.data(), "core must not move");
        for n in 0..2 {
            assert_eq!(after.factors[n].data(), before.factors[n].data());
        }
        // Old time rows are a strict bit-identical prefix.
        let (old, new) = (&before.factors[2], &after.factors[2]);
        assert_eq!(new.shape(), (old.rows() + 4, old.cols()));
        for j in 0..old.cols() {
            assert_eq!(&new.col(j)[..old.rows()], old.col(j));
        }
        // The appended rows approximate the slab.
        let recon = after.reconstruct();
        let full = append_dense(&x, &slab, 2);
        let err = recon.relative_error_to(&full).to_f64();
        assert!(err < 0.1, "extend reconstruction err {err}");
    }

    #[test]
    fn append_after_extend_goes_full() {
        let x = smooth_tensor(&[10, 8, 12], 0);
        let mut st = StreamState::from_initial(&x, cfg3()).unwrap();
        st.append_extend(&smooth_tensor(&[10, 8, 2], 12)).unwrap();
        let rep = st.append(&smooth_tensor(&[10, 8, 2], 14)).unwrap();
        assert_eq!(rep.path, UpdatePath::Full, "extend breaks orthonormality");
        assert_eq!(rep.generation, 2);
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let x = smooth_tensor(&[10, 8, 12], 0);
        let mut st = StreamState::from_initial(&x, cfg3()).unwrap();
        let bad = Tensor::<f64>::zeros(&[9, 8, 2]);
        assert!(matches!(
            st.append(&bad),
            Err(StreamError::ShapeMismatch { what: "appended slab", .. })
        ));
    }

    #[test]
    fn ranks_of_the_wrong_length_or_zero_are_typed_errors() {
        let x = smooth_tensor(&[10, 8, 12], 0);
        let tucker = sthosvd(&x, &cfg3().svd).unwrap();
        for ranks in [vec![4, 4], vec![4, 4, 4, 4], vec![4, 0, 4]] {
            let cfg = StreamConfig::new(2, SthosvdConfig::with_ranks(ranks.clone()));
            let adopted = StreamState::from_parts(tucker.clone(), 0, cfg.clone(), None).err();
            for e in [StreamState::from_initial(&x, cfg).err(), adopted] {
                let typed = matches!(
                    e,
                    Some(StreamError::Linalg(LinalgError::InvalidConfig { param: "ranks", .. }))
                );
                assert!(typed, "{ranks:?}: {e:?}");
            }
        }
    }

    #[test]
    fn publish_and_open_round_trip_generation() {
        let x = smooth_tensor(&[10, 8, 12], 0);
        let mut st = StreamState::from_initial(&x, cfg3()).unwrap();
        st.append(&smooth_tensor(&[10, 8, 2], 12)).unwrap();
        let mut p = std::env::temp_dir();
        p.push(format!("tucker_stream_pub_{}.tuck", std::process::id()));
        st.publish(&p).unwrap();
        let back = StreamState::<f64>::open(&p, cfg3()).unwrap();
        assert_eq!(back.generation(), 1);
        assert_eq!(back.tucker().core.data(), st.tucker().core.data());
        std::fs::remove_file(p).ok();
    }
}
