//! Sparse COO tensors with deterministic event-stream ingestion.
//!
//! A [`CooTensor`] holds `(index, value)` events in the order they arrived.
//! [`CooTensor::coalesce`] sorts by linear index (first-mode-fastest, the
//! repo-wide dense layout) and **accumulates duplicates in arrival order**,
//! so the same event stream always produces bit-identical state regardless
//! of how it was batched. Mode-`n` Gram matrices — the input the existing
//! Gram-SVD driver factors — are accumulated directly from
//! the events ([`CooTensor::mode_gram`]), and a mode is contracted against
//! a factor transpose ([`CooTensor::ttm_t`]) without ever materializing the
//! dense tensor: densification happens only *after* the first truncation,
//! when the working tensor has already shrunk to `R_n × I^*/I_n`.

use crate::error::{StreamError, StreamResult};
use std::path::Path;
use tucker_linalg::{Matrix, Scalar};
use tucker_tensor::{linear_index, multi_index, prod_before, Tensor};

/// A sparse tensor in coordinate (COO) format.
#[derive(Clone, Debug)]
pub struct CooTensor<T> {
    dims: Vec<usize>,
    idx: Vec<u64>,
    val: Vec<T>,
    coalesced: bool,
}

impl<T: Scalar> CooTensor<T> {
    /// An empty sparse tensor of the given dimensions.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d > 0), "COO dims must be positive");
        CooTensor { dims: dims.to_vec(), idx: Vec::new(), val: Vec::new(), coalesced: true }
    }

    /// Ingest an event stream: `(multi-index, value)` pairs, validated and
    /// coalesced (duplicates accumulated in arrival order).
    pub fn from_events<I>(dims: &[usize], events: I) -> StreamResult<Self>
    where
        I: IntoIterator<Item = (Vec<usize>, f64)>,
    {
        let mut coo = CooTensor::new(dims);
        for (index, v) in events {
            coo.push(&index, T::from_f64(v))?;
        }
        coo.coalesce();
        Ok(coo)
    }

    /// Tensor dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Stored entries (duplicates counted until [`CooTensor::coalesce`]).
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Whether the entries are sorted and duplicate-free.
    pub fn is_coalesced(&self) -> bool {
        self.coalesced
    }

    /// Append one event. Out-of-range indices are a typed error, not a
    /// panic — event streams are external input.
    pub fn push(&mut self, index: &[usize], v: T) -> StreamResult<()> {
        if index.len() != self.dims.len()
            || index.iter().zip(&self.dims).any(|(&i, &d)| i >= d)
        {
            return Err(StreamError::ShapeMismatch {
                what: "event index",
                details: format!("index {index:?} outside dims {:?}", self.dims),
            });
        }
        self.idx.push(linear_index(&self.dims, index) as u64);
        self.val.push(v);
        self.coalesced = false;
        Ok(())
    }

    /// Sort entries by linear index and accumulate duplicates. The sort is
    /// stable and the accumulation runs in arrival order within each index,
    /// so the result is a pure function of the event stream.
    pub fn coalesce(&mut self) {
        if self.coalesced {
            return;
        }
        let mut perm: Vec<usize> = (0..self.idx.len()).collect();
        perm.sort_by_key(|&k| self.idx[k]);
        let mut idx = Vec::with_capacity(self.idx.len());
        let mut val: Vec<T> = Vec::with_capacity(self.val.len());
        for &k in &perm {
            if idx.last() == Some(&self.idx[k]) {
                let last = val.last_mut().expect("non-empty alongside idx");
                *last += self.val[k];
            } else {
                idx.push(self.idx[k]);
                val.push(self.val[k]);
            }
        }
        self.idx = idx;
        self.val = val;
        self.coalesced = true;
    }

    /// Frobenius norm of the coalesced entries.
    pub fn norm(&self) -> T {
        assert!(self.coalesced, "norm of an uncoalesced COO double-counts duplicates");
        let mut acc = T::ZERO;
        for &v in &self.val {
            acc += v * v;
        }
        acc.sqrt()
    }

    /// Materialize the dense tensor ("the last step").
    pub fn densify(&self) -> Tensor<T> {
        let mut x = Tensor::zeros(&self.dims);
        let data = x.data_mut();
        for (&i, &v) in self.idx.iter().zip(&self.val) {
            data[i as usize] += v;
        }
        x
    }

    /// Decompose a linear index into the mode-`n` unfolding coordinate
    /// `(row, col)` under the first-mode-fastest layout.
    fn unfold_coord(&self, lin: u64, n: usize, before: usize) -> (usize, usize) {
        let lin = lin as usize;
        let b = lin % before;
        let rest = lin / before;
        let i = rest % self.dims[n];
        let a = rest / self.dims[n];
        (i, b + before * a)
    }

    /// The mode-`n` Gram matrix `X_(n) X_(n)ᵀ` accumulated straight from
    /// the sparse entries — the input of the existing Gram-SVD driver,
    /// computed without densifying. Entries are grouped by unfolding column
    /// and each column's outer product is accumulated in ascending
    /// `(column, row)` order, so the result is deterministic.
    pub fn mode_gram(&self, n: usize) -> Matrix<T> {
        assert!(n < self.dims.len(), "mode {n} out of range");
        assert!(self.coalesced, "mode_gram requires a coalesced COO");
        let before = prod_before(&self.dims, n);
        let i_n = self.dims[n];
        // (col, row, val), sorted by (col, row). Coalesced entries make the
        // pairs unique, so the order — and hence the accumulation — is a
        // pure function of the contents.
        let mut cells: Vec<(usize, usize, T)> = self
            .idx
            .iter()
            .zip(&self.val)
            .map(|(&lin, &v)| {
                let (i, c) = self.unfold_coord(lin, n, before);
                (c, i, v)
            })
            .collect();
        cells.sort_by_key(|&(c, i, _)| (c, i));
        let mut g = Matrix::zeros(i_n, i_n);
        let mut start = 0usize;
        while start < cells.len() {
            let col = cells[start].0;
            let mut end = start;
            while end < cells.len() && cells[end].0 == col {
                end += 1;
            }
            for a in start..end {
                let (_, i, vi) = cells[a];
                for &(_, j, vj) in &cells[start..=a] {
                    g[(i, j)] += vi * vj;
                }
            }
            start = end;
        }
        // Mirror the accumulated lower triangle.
        for i in 0..i_n {
            for j in i + 1..i_n {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Contract mode `n` with `uᵀ` (`u` is `I_n × R`): the sparse TTM
    /// `Y = X ×_n Uᵀ`, returning the *dense* reduced tensor with
    /// `dims[n] → R`. Entries are visited in coalesced order, so the
    /// accumulation — and the result — is deterministic.
    pub fn ttm_t(&self, n: usize, u: &Matrix<T>) -> Tensor<T> {
        assert!(self.coalesced, "ttm_t requires a coalesced COO");
        assert_eq!(u.rows(), self.dims[n], "ttm_t: factor rows must match mode dim");
        let r = u.cols();
        let before = prod_before(&self.dims, n);
        let mut ydims = self.dims.clone();
        ydims[n] = r;
        let mut y = Tensor::zeros(&ydims);
        let data = y.data_mut();
        for (&lin, &v) in self.idx.iter().zip(&self.val) {
            let lin = lin as usize;
            let b = lin % before;
            let rest = lin / before;
            let i = rest % self.dims[n];
            let a = rest / self.dims[n];
            for k in 0..r {
                let out = b + before * (k + r * a);
                data[out] += u[(i, k)] * v;
            }
        }
        y
    }

    /// Entries whose mode-`n` index falls in `range`, re-indexed to the
    /// restricted (local) coordinates — slab extraction for time-windowed
    /// event streams.
    pub fn restrict_mode(&self, n: usize, range: std::ops::Range<usize>) -> CooTensor<T> {
        assert!(range.end <= self.dims[n], "restriction outside mode {n}");
        let mut dims = self.dims.clone();
        dims[n] = range.len().max(1);
        let mut out = CooTensor::new(&dims);
        for (&lin, &v) in self.idx.iter().zip(&self.val) {
            let mut index = multi_index(&self.dims, lin as usize);
            if range.contains(&index[n]) {
                index[n] -= range.start;
                out.idx.push(linear_index(&dims, &index) as u64);
                out.val.push(v);
            }
        }
        out.coalesced = false;
        out.coalesce();
        out
    }

    /// Parse a deterministic text event stream:
    ///
    /// ```text
    /// # comment
    /// dims 8x7x6
    /// 0 3 2 1.25
    /// 5 1 0 -0.5
    /// ```
    ///
    /// One event per line (`i_0 … i_{N-1} value`), accumulated in file
    /// order; blank lines and `#` comments are skipped.
    pub fn parse_events(text: &str) -> StreamResult<Self> {
        let mut coo: Option<CooTensor<T>> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = lineno + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(spec) = line.strip_prefix("dims ") {
                if coo.is_some() {
                    return Err(StreamError::BadEvent {
                        line: lineno,
                        details: "duplicate dims line".into(),
                    });
                }
                let dims: Result<Vec<usize>, _> =
                    spec.trim().split(['x', 'X', ',']).map(|p| p.trim().parse()).collect();
                let dims = dims.map_err(|_| StreamError::BadEvent {
                    line: lineno,
                    details: format!("bad dims spec '{spec}'"),
                })?;
                if dims.is_empty() || dims.contains(&0) {
                    return Err(StreamError::BadEvent {
                        line: lineno,
                        details: "dims must be positive".into(),
                    });
                }
                coo = Some(CooTensor::new(&dims));
                continue;
            }
            let coo = coo.as_mut().ok_or(StreamError::BadEvent {
                line: lineno,
                details: "events before the dims line".into(),
            })?;
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != coo.dims.len() + 1 {
                return Err(StreamError::BadEvent {
                    line: lineno,
                    details: format!(
                        "expected {} indices and a value, got {} tokens",
                        coo.dims.len(),
                        toks.len()
                    ),
                });
            }
            let mut index = Vec::with_capacity(coo.dims.len());
            for t in &toks[..toks.len() - 1] {
                index.push(t.parse::<usize>().map_err(|_| StreamError::BadEvent {
                    line: lineno,
                    details: format!("bad index '{t}'"),
                })?);
            }
            let v: f64 = toks[toks.len() - 1].parse().map_err(|_| StreamError::BadEvent {
                line: lineno,
                details: format!("bad value '{}'", toks[toks.len() - 1]),
            })?;
            coo.push(&index, T::from_f64(v)).map_err(|e| match e {
                StreamError::ShapeMismatch { details, .. } => {
                    StreamError::BadEvent { line: lineno, details }
                }
                other => other,
            })?;
        }
        let mut coo = coo.ok_or(StreamError::BadEvent {
            line: 0,
            details: "empty event stream (no dims line)".into(),
        })?;
        coo.coalesce();
        Ok(coo)
    }

    /// Read and coalesce a text event stream from disk.
    pub fn read_events(path: impl AsRef<Path>) -> StreamResult<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse_events(&text)
    }

    /// Write the entries as a text event stream readable by
    /// [`CooTensor::read_events`].
    pub fn write_events(&self, path: impl AsRef<Path>) -> StreamResult<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let dims: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        writeln!(w, "dims {}", dims.join("x")).map_err(StreamError::from)?;
        for (&lin, &v) in self.idx.iter().zip(&self.val) {
            let index = multi_index(&self.dims, lin as usize);
            let idx: Vec<String> = index.iter().map(|i| i.to_string()).collect();
            writeln!(w, "{} {}", idx.join(" "), v.to_f64()).map_err(StreamError::from)?;
        }
        w.flush().map_err(StreamError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_linalg::gemm_into;
    use tucker_linalg::Trans;
    use tucker_tensor::{ttm, Unfolding};

    fn sample_coo() -> CooTensor<f64> {
        let dims = [5usize, 4, 3];
        let mut coo = CooTensor::new(&dims);
        let mut k = 0u64;
        for i in 0..5 {
            for j in 0..4 {
                for l in 0..3 {
                    // ~40% fill, deterministic.
                    k = k.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if k >> 62 == 0 || (i + j + l) % 3 == 0 {
                        let v = ((i * 12 + j * 3 + l) as f64 * 0.7).sin();
                        coo.push(&[i, j, l], v).unwrap();
                    }
                }
            }
        }
        coo.coalesce();
        coo
    }

    #[test]
    fn coalesce_accumulates_duplicates_in_arrival_order() {
        let mut a = CooTensor::<f64>::new(&[3, 3]);
        a.push(&[1, 2], 0.1).unwrap();
        a.push(&[0, 0], 1.0).unwrap();
        a.push(&[1, 2], 0.2).unwrap();
        a.push(&[1, 2], 0.3).unwrap();
        a.coalesce();
        assert_eq!(a.nnz(), 2);
        let x = a.densify();
        assert_eq!(x.get(&[1, 2]).to_bits(), ((0.1f64 + 0.2) + 0.3).to_bits());
        // Same events, different batching: same bits.
        let b = CooTensor::<f64>::from_events(
            &[3, 3],
            vec![(vec![1, 2], 0.1), (vec![0, 0], 1.0), (vec![1, 2], 0.2), (vec![1, 2], 0.3)],
        )
        .unwrap();
        assert_eq!(b.densify().data(), x.data());
    }

    #[test]
    fn out_of_range_event_is_typed() {
        let mut a = CooTensor::<f64>::new(&[2, 2]);
        assert!(matches!(
            a.push(&[2, 0], 1.0),
            Err(StreamError::ShapeMismatch { what: "event index", .. })
        ));
        assert!(a.push(&[0, 1, 0], 1.0).is_err());
    }

    #[test]
    fn mode_gram_matches_dense_unfolding_gram() {
        let coo = sample_coo();
        let x = coo.densify();
        for n in 0..3 {
            let sparse = coo.mode_gram(n);
            let a = Unfolding::new(&x, n).to_matrix();
            let dense = gemm_into(a.as_ref(), Trans::No, a.as_ref(), Trans::Yes);
            assert_eq!(sparse.shape(), dense.shape());
            let scale = dense.max_abs().max(1.0);
            assert!(
                sparse.max_abs_diff(&dense) / scale < 1e-14,
                "mode {n}: sparse Gram diverges from dense"
            );
        }
    }

    #[test]
    fn sparse_ttm_matches_dense_ttm() {
        let coo = sample_coo();
        let x = coo.densify();
        for n in 0..3 {
            let u = Matrix::from_fn(coo.dims()[n], 2, |i, j| ((i * 2 + j + n) as f64 * 0.3).cos());
            let sparse = coo.ttm_t(n, &u);
            let dense = ttm(&x, n, u.as_ref(), true);
            assert_eq!(sparse.dims(), dense.dims());
            let err: f64 = sparse
                .data()
                .iter()
                .zip(dense.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-13, "mode {n}: sparse TTM diverges ({err})");
        }
    }

    #[test]
    fn restrict_mode_extracts_the_slab() {
        let coo = sample_coo();
        let x = coo.densify();
        let slab = coo.restrict_mode(2, 1..3);
        assert_eq!(slab.dims(), &[5, 4, 2]);
        let want = tucker_tensor::hyperslab(&x, &[(0, 1, 5), (0, 1, 4), (1, 1, 2)]);
        assert_eq!(slab.densify().data(), want.data());
    }

    #[test]
    fn event_text_round_trips() {
        let coo = sample_coo();
        let mut p = std::env::temp_dir();
        p.push(format!("tucker_stream_events_{}.txt", std::process::id()));
        coo.write_events(&p).unwrap();
        let back = CooTensor::<f64>::read_events(&p).unwrap();
        assert_eq!(back.dims(), coo.dims());
        assert_eq!(back.densify().data(), coo.densify().data());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn bad_event_lines_are_typed_with_line_numbers() {
        let e = CooTensor::<f64>::parse_events("dims 2x2\n0 0 1.0\n9 0 1.0\n").unwrap_err();
        assert!(matches!(e, StreamError::BadEvent { line: 3, .. }), "{e}");
        let e = CooTensor::<f64>::parse_events("0 0 1.0\n").unwrap_err();
        assert!(matches!(e, StreamError::BadEvent { line: 1, .. }), "{e}");
        let e = CooTensor::<f64>::parse_events("dims 2x2\n0 nope 1.0\n").unwrap_err();
        assert!(matches!(e, StreamError::BadEvent { line: 2, .. }), "{e}");
        assert!(CooTensor::<f64>::parse_events("# only comments\n").is_err());
    }
}
