//! Read-only Tucker stores with a pre-packed core operand.
//!
//! A [`TuckerStore`] wraps a checksummed TUCK file (or an in-memory
//! [`TuckerTensor`]) for query serving. At open time the mode-0 unfolding of
//! the core is packed once ([`PackedA`]) and reused by every query's first
//! contraction — the dominant GEMM of a partial reconstruction — instead of
//! being re-packed per call.
//!
//! ## Bit-identity of the packed mode-0 contraction
//!
//! `reconstruct()` computes the mode-0 TTM as `C = U_0 · G_(0)` (column-major
//! output). The store instead computes `Cᵀ = G_(0)ᵀ · U_0ᵀ` against the
//! cached pack and transpose-copies the result. Per the kernel determinism
//! contract (`tucker_linalg::kernel`), an output element's accumulation
//! order depends only on the inner-dimension blocking — identical in both
//! forms — and IEEE multiplication commutes, so `Cᵀ[j,i]` carries exactly
//! the bits of `C[i,j]`. Row selection is equally safe: packing only the
//! selected rows of `U_0` never changes any kept element's k-loop. The
//! equivalence proptests in this crate pin both properties.

use crate::error::ServeError;
use tucker_core::tucker_io::{read_tucker, read_tucker_header, TuckerIoError};
use tucker_core::TuckerTensor;
use tucker_linalg::{gemm_prepacked, MatRef, Matrix, PackedA};
use tucker_tensor::io::IoScalar;
use tucker_tensor::{SlabSel, Tensor};

/// A Tucker decomposition opened for serving, with the transposed core
/// unfolding `G_(0)ᵀ` packed once for reuse across queries.
pub struct TuckerStore<T: IoScalar> {
    tucker: TuckerTensor<T>,
    packed_core_t: PackedA<T>,
    dims: Vec<usize>,
    ranks: Vec<usize>,
    generation: u64,
}

impl<T: IoScalar> TuckerStore<T> {
    /// Open a TUCK file read-only, verifying every section checksum. The
    /// store carries the file's generation number (0 for v1/v2 containers).
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ServeError> {
        let generation = read_tucker_header(&path).map_err(ServeError::Io)?.generation;
        Ok(Self::from_tucker_generation(read_tucker::<T>(path)?, generation))
    }

    /// Serve an in-memory decomposition (tests, benches); generation 0.
    pub fn from_tucker(tucker: TuckerTensor<T>) -> Self {
        Self::from_tucker_generation(tucker, 0)
    }

    /// Serve an in-memory decomposition tagged with an explicit update
    /// generation — what a hot-swap installs.
    pub fn from_tucker_generation(tucker: TuckerTensor<T>, generation: u64) -> Self {
        let ranks = tucker.ranks();
        let dims = tucker.original_dims();
        let r0 = ranks.first().copied().unwrap_or(1);
        let rest: usize = ranks.iter().skip(1).product();
        // G_(0) is the col-major (R_0 × rest) view of the core buffer; its
        // transpose view is packed once here.
        let g0 = MatRef::col_major(tucker.core.data(), r0, rest);
        let packed_core_t = PackedA::new(g0.t());
        TuckerStore { tucker, packed_core_t, dims, ranks, generation }
    }

    /// The update generation this store was published as (0 when the
    /// source container predates generation numbering).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Original tensor dimensions `I_n`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Stored multilinear ranks `R_n`.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The underlying decomposition.
    pub fn tucker(&self) -> &TuckerTensor<T> {
        &self.tucker
    }

    /// Bytes of one stored scalar.
    pub fn scalar_bytes(&self) -> usize {
        T::TAG as usize
    }

    /// Selected rows of factor `n` as a zero-copy strided view:
    /// `(start, step, count)` rows of the col-major `I_n × R_n` matrix.
    pub fn factor_rows(&self, n: usize, sel: SlabSel) -> MatRef<'_, T> {
        let u = &self.tucker.factors[n];
        let (start, step, count) = sel;
        MatRef::strided(&u.data()[start..], count, u.cols(), step, u.rows())
    }

    /// Contract mode 0 with the selected factor rows through the cached
    /// packed core — one [`gemm_prepacked`] call on the calling thread:
    /// returns `G ×_0 U_0[sel]`, dims `[count, R_1, …]`. Bit-identical to
    /// the same rows of `ttm(core, 0, U_0, false)`. A batch of queries
    /// shares a partial by making this call once per distinct selection.
    pub fn contract_mode0(&self, sel: SlabSel) -> Tensor<T> {
        let count = sel.2;
        let rest: usize = self.ranks.iter().skip(1).product();
        let mut ct = Matrix::zeros(rest, count);
        gemm_prepacked(T::ONE, &self.packed_core_t, self.factor_rows(0, sel).t(), &mut ct.as_mut());
        // Transpose-copy Cᵀ (rest × count, col-major) into tensor layout
        // [count, R_1, …] — a pure permutation of bits.
        let mut ydims = self.ranks.clone();
        if ydims.is_empty() {
            ydims = vec![count];
        } else {
            ydims[0] = count;
        }
        let src = ct.data();
        let mut data = Vec::with_capacity(count * rest);
        for j in 0..rest {
            for i in 0..count {
                data.push(src[j + rest * i]);
            }
        }
        Tensor::from_data(&ydims, data)
    }

    /// Approximate resident bytes of the store (decomposition + pack).
    pub fn resident_bytes(&self) -> usize {
        let params = self.tucker.num_parameters();
        let r0 = self.ranks.first().copied().unwrap_or(1);
        let rest: usize = self.ranks.iter().skip(1).product();
        (params + rest * r0) * self.scalar_bytes()
    }
}

/// A store opened at whichever precision the file holds.
pub enum AnyStore {
    /// Single precision.
    F32(TuckerStore<f32>),
    /// Double precision.
    F64(TuckerStore<f64>),
}

/// Open a store, dispatching on the file's stored scalar width.
pub fn open_any(path: impl AsRef<std::path::Path>) -> Result<AnyStore, ServeError> {
    let header = read_tucker_header(&path).map_err(ServeError::Io)?;
    match header.scalar {
        4 => Ok(AnyStore::F32(TuckerStore::open(path)?)),
        8 => Ok(AnyStore::F64(TuckerStore::open(path)?)),
        w => Err(ServeError::Io(TuckerIoError::Format(format!("unknown scalar width {w}")))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_tensor::{hyperslab, ttm};

    fn sample_store() -> TuckerStore<f64> {
        // Deterministic non-orthogonal factors are fine: serving only
        // contracts, it never assumes orthonormality.
        let ranks = [4usize, 3, 5];
        let dims = [9usize, 7, 8];
        let core = Tensor::from_fn(&ranks, |i| ((i[0] * 15 + i[1] * 5 + i[2]) as f64 * 0.37).sin());
        let factors = dims
            .iter()
            .zip(&ranks)
            .enumerate()
            .map(|(n, (&d, &r))| {
                Matrix::from_fn(d, r, |i, j| ((i * r + j + n) as f64 * 0.21).cos())
            })
            .collect();
        TuckerStore::from_tucker(TuckerTensor { core, factors })
    }

    #[test]
    fn packed_mode0_matches_ttm_bitwise() {
        let st = sample_store();
        let full = ttm(&st.tucker().core, 0, st.tucker().factors[0].as_ref(), false);
        // Full selection.
        let all = st.contract_mode0((0, 1, 9));
        assert_eq!(all.dims(), full.dims());
        assert_eq!(all.data(), full.data(), "full mode-0 contraction must be bit-identical");
        // Strided row selection = the same rows of the full result.
        let sel = st.contract_mode0((1, 3, 3));
        let want = hyperslab(&full, &[(1, 3, 3), (0, 1, 3), (0, 1, 5)]);
        assert_eq!(sel.data(), want.data());
    }

    #[test]
    fn factor_rows_views_are_exact() {
        let st = sample_store();
        let v = st.factor_rows(1, (2, 2, 3));
        let u = &st.tucker().factors[1];
        for i in 0..3 {
            for j in 0..u.cols() {
                assert_eq!(v.get(i, j), u[(2 + 2 * i, j)]);
            }
        }
    }
}
