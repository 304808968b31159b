//! Reconstruction queries: one index selection per tensor mode.
//!
//! The selection model is HDF5's hyperslab triplet `(start, step, count)`,
//! which uniformly covers the five query shapes the engine serves — single
//! element, fiber, slice, general hyperslab, and strided downsample. The
//! CLI spells a query as a comma-separated per-mode spec:
//!
//! ```text
//! 3, 0:8, 2:10:2, *
//!  │   │     │    └ all of mode 3
//!  │   │     └ indices 2,4,6,8 of mode 2 (start:end:step, end exclusive)
//!  │   └ indices 0..8 of mode 1
//!  └ index 3 of mode 0
//! ```

use crate::error::ServeError;
use tucker_tensor::SlabSel;

/// Selection along one mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeSel {
    /// Every index.
    All,
    /// A single index.
    Index(usize),
    /// Contiguous `start..end` (end exclusive, non-empty).
    Range(usize, usize),
    /// `count` indices `start, start+step, …` (step ≥ 1).
    Strided {
        /// First index.
        start: usize,
        /// Stride between kept indices.
        step: usize,
        /// Number of indices.
        count: usize,
    },
}

/// Coarse query shape, used for workload labeling and metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// Every mode a single index.
    Element,
    /// Exactly one mode non-singleton.
    Fiber,
    /// Exactly one mode a single index, the rest full.
    Slice,
    /// Any mode with step > 1.
    Strided,
    /// Everything else.
    Hyperslab,
}

/// A per-mode selection against a Tucker store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// One selection per mode of the stored tensor.
    pub sel: Vec<ModeSel>,
}

impl Query {
    /// Parse the CLI slab spec: comma-separated per-mode selections, each
    /// `*`, `i`, `a:b`, or `a:b:s` (end exclusive).
    pub fn parse(spec: &str) -> Result<Query, ServeError> {
        let bad = |msg: String| ServeError::BadQuery(msg);
        let mut sel = Vec::new();
        for (n, part) in spec.split(',').enumerate() {
            let part = part.trim();
            if part == "*" {
                sel.push(ModeSel::All);
                continue;
            }
            let fields: Vec<&str> = part.split(':').collect();
            let num = |s: &str| -> Result<usize, ServeError> {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| bad(format!("mode {n}: '{s}' is not an index")))
            };
            match fields.as_slice() {
                [i] => sel.push(ModeSel::Index(num(i)?)),
                [a, b] => {
                    let (a, b) = (num(a)?, num(b)?);
                    if b <= a {
                        return Err(bad(format!("mode {n}: empty range {a}:{b}")));
                    }
                    sel.push(ModeSel::Range(a, b));
                }
                [a, b, s] => {
                    let (a, b, s) = (num(a)?, num(b)?, num(s)?);
                    if s == 0 {
                        return Err(bad(format!("mode {n}: zero step")));
                    }
                    if b <= a {
                        return Err(bad(format!("mode {n}: empty range {a}:{b}:{s}")));
                    }
                    sel.push(ModeSel::Strided { start: a, step: s, count: (b - a).div_ceil(s) });
                }
                _ => return Err(bad(format!("mode {n}: '{part}' has too many ':' fields"))),
            }
        }
        Ok(Query { sel })
    }

    /// Check the query against the store's original dimensions.
    pub fn validate(&self, dims: &[usize]) -> Result<(), ServeError> {
        if self.sel.len() != dims.len() {
            return Err(ServeError::BadQuery(format!(
                "query selects {} modes but the store has {}",
                self.sel.len(),
                dims.len()
            )));
        }
        for (n, (s, &d)) in self.sel.iter().zip(dims).enumerate() {
            let (start, step, count) = s.triplet(d);
            if count == 0 {
                return Err(ServeError::BadQuery(format!("mode {n}: empty selection")));
            }
            // Checked: `Strided` fields come straight from the caller, and a
            // wrapped `last` would pass the bounds test in a release build.
            let last = (count - 1).checked_mul(step).and_then(|span| start.checked_add(span));
            if last.is_none_or(|last| last >= d) {
                let last = last.map_or("past usize::MAX".to_string(), |last| last.to_string());
                return Err(ServeError::BadQuery(format!(
                    "mode {n}: index {last} out of bounds for dimension {d}"
                )));
            }
        }
        Ok(())
    }

    /// Normalize to per-mode `(start, step, count)` triples (must be valid).
    pub fn normalized(&self, dims: &[usize]) -> Vec<SlabSel> {
        self.sel.iter().zip(dims).map(|(s, &d)| s.triplet(d)).collect()
    }

    /// Output dimensions of the query result.
    pub fn out_dims(&self, dims: &[usize]) -> Vec<usize> {
        self.sel.iter().zip(dims).map(|(s, &d)| s.triplet(d).2).collect()
    }

    /// Number of reconstructed elements.
    pub fn num_elems(&self, dims: &[usize]) -> usize {
        self.out_dims(dims).iter().product()
    }

    /// Coarse shape classification.
    pub fn kind(&self, dims: &[usize]) -> QueryKind {
        if self.sel.iter().zip(dims).any(|(s, &d)| s.triplet(d).1 > 1) {
            return QueryKind::Strided;
        }
        let singles = self.sel.iter().zip(dims).filter(|(s, &d)| s.triplet(d).2 == 1).count();
        let fulls = self
            .sel
            .iter()
            .zip(dims)
            .filter(|(s, &d)| {
                let (start, _, count) = s.triplet(d);
                start == 0 && count == d
            })
            .count();
        let n = dims.len();
        if singles == n {
            QueryKind::Element
        } else if singles == n - 1 {
            QueryKind::Fiber
        } else if fulls == n - 1 && singles == 1 {
            QueryKind::Slice
        } else {
            QueryKind::Hyperslab
        }
    }
}

impl ModeSel {
    /// `(start, step, count)` against a mode of extent `d`. (`All` needs the
    /// extent; the others ignore it.)
    pub fn triplet(&self, d: usize) -> SlabSel {
        match *self {
            ModeSel::All => (0, 1, d),
            ModeSel::Index(i) => (i, 1, 1),
            ModeSel::Range(a, b) => (a, 1, b.saturating_sub(a)),
            ModeSel::Strided { start, step, count } => (start, step, count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_selector_form() {
        let q = Query::parse("3, 0:8, 2:10:2, *").unwrap();
        assert_eq!(
            q.sel,
            vec![
                ModeSel::Index(3),
                ModeSel::Range(0, 8),
                ModeSel::Strided { start: 2, step: 2, count: 4 },
                ModeSel::All,
            ]
        );
        assert_eq!(q.out_dims(&[10, 12, 14, 5]), vec![1, 8, 4, 5]);
        assert_eq!(q.num_elems(&[10, 12, 14, 5]), 160);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["x", "1:0", "1:5:0", "1:2:3:4", ""] {
            assert!(
                matches!(Query::parse(bad), Err(ServeError::BadQuery(_))),
                "'{bad}' should be rejected"
            );
        }
    }

    #[test]
    fn validate_checks_rank_and_bounds() {
        let q = Query::parse("3,0:8").unwrap();
        assert!(q.validate(&[4, 10]).is_ok());
        assert!(q.validate(&[4, 10, 2]).is_err(), "rank mismatch");
        assert!(q.validate(&[3, 10]).is_err(), "index 3 of 3");
        assert!(q.validate(&[4, 7]).is_err(), "range end past extent");
        // Arithmetic that wraps must be a typed error in debug and release.
        for (start, step) in [(1, 1 << 63), (usize::MAX - 1, 1), (usize::MAX, usize::MAX)] {
            let q = Query { sel: vec![ModeSel::Strided { start, step, count: 3 }, ModeSel::All] };
            assert!(
                matches!(q.validate(&[10, 10]), Err(ServeError::BadQuery(_))),
                "start {start} step {step} must not wrap into bounds"
            );
        }
    }

    #[test]
    fn strided_count_is_ceiling() {
        // 2:9:3 keeps 2, 5, 8.
        let q = Query::parse("2:9:3").unwrap();
        assert_eq!(q.normalized(&[10]), vec![(2, 3, 3)]);
        assert!(q.validate(&[10]).is_ok());
        assert!(q.validate(&[8]).is_err(), "last index 8 out of bounds for 8");
    }

    #[test]
    fn kind_classification() {
        let dims = &[8, 9, 10];
        assert_eq!(Query::parse("1,2,3").unwrap().kind(dims), QueryKind::Element);
        assert_eq!(Query::parse("*,2,3").unwrap().kind(dims), QueryKind::Fiber);
        assert_eq!(Query::parse("*,2,*").unwrap().kind(dims), QueryKind::Slice);
        assert_eq!(Query::parse("0:8:2,2,3").unwrap().kind(dims), QueryKind::Strided);
        assert_eq!(Query::parse("0:4,2:5,3").unwrap().kind(dims), QueryKind::Hyperslab);
    }
}
