//! Rank selection from a singular value profile (Alg. 1 line 5):
//! `R_n = min { R : Σ_{i>R} σ_i² ≤ ε²‖X‖²/N }`.
//!
//! This is where the numerical quality of the SVD bites: if the computed
//! tail singular values are roundoff noise at level `‖A‖·√ε` (Gram) or
//! `‖A‖·ε` (QR), the tail sum never drops below a tighter threshold and the
//! algorithm returns full rank — the "fails to compress at all" behaviour of
//! Gram-single at `ε = 10⁻⁴` in the paper's Tab. 2.

use tucker_linalg::Scalar;

/// Smallest `R` such that the tail `Σ_{i≥R} σ_i²` is at most `threshold_sq`.
///
/// `sigma` must be sorted descending (as returned by both SVD paths).
/// Returns a value in `1..=sigma.len()` — at least one direction is always
/// kept, matching TuckerMPI.
pub fn choose_rank<T: Scalar>(sigma: &[T], threshold_sq: T) -> usize {
    let n = sigma.len();
    if n == 0 {
        return 0;
    }
    // Walk from the tail, accumulating σ_i² until the budget is exceeded.
    let mut tail = T::ZERO;
    for r in (1..=n).rev() {
        let s = sigma[r - 1];
        let next = tail + s * s;
        if next > threshold_sq {
            return r.min(n);
        }
        tail = next;
    }
    1
}

/// Per-mode threshold for relative tolerance `eps`: `ε²‖X‖²/N`.
pub fn mode_threshold<T: Scalar>(eps: f64, norm_x: T, num_modes: usize) -> T {
    let e = T::from_f64(eps);
    e * e * norm_x * norm_x / T::from_usize(num_modes)
}

/// Estimated relative approximation error from the per-mode discarded tails:
/// `√(Σ_n Σ_{i≥R_n} σ_{n,i}²) / ‖X‖` — the error estimate ST-HOSVD reports
/// without reconstructing (guaranteed ≤ ε in exact arithmetic). A zero
/// tensor is reproduced exactly by any decomposition: its error is 0, not
/// `0 / 0`.
pub fn estimated_error<T: Scalar>(tails_sq: &[T], norm_x: T) -> T {
    if norm_x == T::ZERO {
        return T::ZERO;
    }
    let total: T = tails_sq.iter().copied().sum();
    total.max(T::ZERO).sqrt() / norm_x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_everything_when_threshold_zero() {
        let s = [3.0f64, 2.0, 1.0];
        assert_eq!(choose_rank(&s, 0.0), 3);
    }

    #[test]
    fn drops_exact_zero_tail_at_zero_threshold() {
        let s = [3.0f64, 2.0, 0.0, 0.0];
        assert_eq!(choose_rank(&s, 0.0), 2);
    }

    #[test]
    fn truncates_small_tail() {
        let s = [10.0f64, 1.0, 0.1, 0.01];
        // Tail budget 0.02: keeps dropping 0.01² (=1e-4) and 0.1² (=1e-2),
        // total 0.0101 ≤ 0.02; dropping 1² too would exceed.
        assert_eq!(choose_rank(&s, 0.02), 2);
    }

    #[test]
    fn keeps_at_least_one() {
        let s = [1.0f64, 0.5];
        assert_eq!(choose_rank(&s, 1e9), 1);
    }

    #[test]
    fn exact_boundary_is_inclusive() {
        let s = [2.0f64, 1.0];
        // threshold == 1.0 = σ_2² exactly: dropping σ_2 is allowed.
        assert_eq!(choose_rank(&s, 1.0), 1);
    }

    #[test]
    fn noise_floor_blocks_compression() {
        // Simulates Gram-single: true tail decays but computed values sit at
        // a noise floor of 1e-4 — a 1e-8 tolerance finds no valid cut.
        let mut s = vec![1.0f64];
        s.extend(std::iter::repeat_n(1e-4, 49));
        let r = choose_rank(&s, 1e-16);
        assert_eq!(r, 50, "noise floor must force full rank");
    }

    #[test]
    fn mode_threshold_formula() {
        let t = mode_threshold::<f64>(1e-2, 10.0, 4);
        assert!((t - 1e-4 * 100.0 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn estimated_error_combines_tails() {
        let e = estimated_error(&[0.04f64, 0.05], 10.0);
        assert!((e - 0.3 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_norm_input_has_zero_error() {
        assert_eq!(estimated_error(&[0.0f64, 0.0], 0.0), 0.0);
        assert_eq!(estimated_error::<f32>(&[], 0.0), 0.0);
    }

    #[test]
    fn single_precision_rank_choice() {
        let s = [1.0f32, 1e-3, 1e-6];
        // Budget 1e-5 covers both tail values (1e-6 + 1e-12).
        assert_eq!(choose_rank(&s, 1e-5), 1);
        // Budget 1e-7 covers only σ₃² = 1e-12.
        assert_eq!(choose_rank(&s, 1e-7), 2);
        assert_eq!(choose_rank(&s, 1e-13), 3);
    }
}
