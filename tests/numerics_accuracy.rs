//! The paper's numerical claims (Theorems 1 & 2, Fig. 1) verified at the
//! library level: each (algorithm × precision) variant computes singular
//! values accurately down to its floor and degenerates into noise below it.

use tucker_rs::data::{fig1_matrix, geometric_profile};
use tucker_rs::linalg::random::matrix_with_singular_values_seeded;
use tucker_rs::linalg::{gram_svd, qr_svd, Matrix, Scalar};

/// The paper's 80 x 80 Fig. 1 matrix: 80 rows, so its LQ is compact-WY.
fn fig1<T: Scalar>() -> (Vec<f64>, Matrix<T>) {
    (geometric_profile(80, 0.0, -18.0), fig1_matrix::<T>(17))
}

/// The same spectrum on the shape the HCCI workloads factor: 48 x 4096 is
/// short-fat, so its LQ is the flat tree (a head and four folds of the
/// blocked `tplqt`) and its Gram one `syrk` over a long inner dimension.
fn short_fat<T: Scalar>() -> (Vec<f64>, Matrix<T>) {
    let truth = geometric_profile(48, 0.0, -18.0);
    let a = matrix_with_singular_values_seeded::<T>(&truth, 4096, 17);
    (truth, a)
}

fn series<T: Scalar>(a: &Matrix<T>, qr: bool) -> Vec<f64> {
    let (_, s) = if qr { qr_svd(a.as_ref()).unwrap() } else { gram_svd(a.as_ref()).unwrap() };
    s.iter().map(|v| v.to_f64()).collect()
}

/// First true singular value at which the computed series loses order-of-
/// magnitude accuracy (relative error > 1).
fn accuracy_floor(computed: &[f64], truth: &[f64]) -> f64 {
    for (t, g) in truth.iter().zip(computed) {
        if (g - t).abs() / t > 1.0 {
            return *t;
        }
    }
    0.0
}

fn check_floors_are_ordered(truth: &[f64], single: &Matrix<f32>, double: &Matrix<f64>) {
    let f_qr_d = accuracy_floor(&series(double, true), truth);
    let f_qr_s = accuracy_floor(&series(single, true), truth);
    let f_gram_d = accuracy_floor(&series(double, false), truth);
    let f_gram_s = accuracy_floor(&series(single, false), truth);

    // Ordering: Gram single loses first, then QR single / Gram double,
    // QR double last (Fig. 1).
    assert!(f_gram_s > f_qr_s, "Gram-s floor {f_gram_s} vs QR-s {f_qr_s}");
    assert!(f_qr_s >= f_gram_d, "QR-s floor {f_qr_s} vs Gram-d {f_gram_d}");
    assert!(f_gram_d > f_qr_d, "Gram-d floor {f_gram_d} vs QR-d {f_qr_d}");

    // Magnitudes near the theoretical floors (within ~1.5 orders).
    let near = |got: f64, want: f64| (got.log10() - want.log10()).abs() < 1.5;
    assert!(near(f_gram_s, 3.4e-4), "Gram single floor {f_gram_s:.1e} !~ sqrt(eps_s)");
    assert!(near(f_gram_d, 1.5e-8), "Gram double floor {f_gram_d:.1e} !~ sqrt(eps_d)");
    assert!(f_qr_s <= 1e-6, "QR single floor {f_qr_s:.1e} should be <= ~eps_s");
    assert!(f_qr_d <= 1e-14, "QR double floor {f_qr_d:.1e} should be near eps_d");
}

fn check_values_above_floor(truth: &[f64], single: &Matrix<f32>, double: &Matrix<f64>) {
    for (s, floor) in [
        (series(single, false), 1e-3),
        (series(single, true), 1e-6),
        (series(double, false), 1e-7),
        (series(double, true), 1e-14),
    ] {
        for (t, g) in truth.iter().zip(&s) {
            if *t > floor {
                let rel = (g - t).abs() / t;
                assert!(rel < 1.0, "sigma {t:.1e} computed as {g:.1e}");
            }
        }
    }
}

#[test]
fn fig1_floors_are_ordered_as_theory_predicts() {
    let (truth, double) = fig1::<f64>();
    check_floors_are_ordered(&truth, &fig1::<f32>().1, &double);
}

#[test]
fn values_above_floor_are_order_of_magnitude_accurate() {
    let (truth, double) = fig1::<f64>();
    check_values_above_floor(&truth, &fig1::<f32>().1, &double);
}

#[test]
fn short_fat_floors_are_ordered_as_theory_predicts() {
    let (truth, double) = short_fat::<f64>();
    check_floors_are_ordered(&truth, &short_fat::<f32>().1, &double);
}

#[test]
fn short_fat_values_above_floor_are_order_of_magnitude_accurate() {
    let (truth, double) = short_fat::<f64>();
    check_values_above_floor(&truth, &short_fat::<f32>().1, &double);
}

#[test]
fn gram_noise_is_absolute_not_relative() {
    // Below the floor, Gram-computed values plateau near sqrt(eps)*||A||
    // rather than continuing to decay — the signature of Thm 2.
    let (truth, a) = fig1::<f32>();
    let s = series(&a, false);
    let tail: Vec<f64> =
        truth.iter().zip(&s).filter(|(t, _)| **t < 1e-8).map(|(_, g)| *g).collect();
    assert!(tail.len() > 20);
    let min = tail.iter().cloned().fold(f64::MAX, f64::min);
    let max = tail.iter().cloned().fold(0.0f64, f64::max);
    // The plateau sits within a few orders of sqrt(eps_s) ~ 3e-4 and does not
    // follow the true 10-order decay of that range.
    assert!(max / min < 1e3, "tail should plateau, spans {:.1}x", max / min);
    assert!(min > 1e-7, "plateau {min:.1e} far below the expected noise level");
}

#[test]
fn both_algorithms_agree_above_all_floors() {
    // On a well-conditioned matrix every variant gives the same answer.
    let truth = geometric_profile(30, 0.0, -3.0);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let a = tucker_rs::linalg::matrix_with_singular_values::<f64, _>(&truth, 60, &mut rng);
    let a32 = Matrix::<f32>::from_fn(30, 60, |i, j| a[(i, j)] as f32);
    let (_, qr64) = qr_svd(a.as_ref()).unwrap();
    let (_, gram64) = gram_svd(a.as_ref()).unwrap();
    let (_, qr32) = qr_svd(a32.as_ref()).unwrap();
    let (_, gram32) = gram_svd(a32.as_ref()).unwrap();
    for i in 0..30 {
        let t = truth[i];
        assert!((qr64[i] - t).abs() / t < 1e-10);
        assert!((gram64[i] - t).abs() / t < 1e-8);
        assert!(((qr32[i] as f64) - t).abs() / t < 1e-3);
        assert!(((gram32[i] as f64) - t).abs() / t < 1e-2);
    }
}
