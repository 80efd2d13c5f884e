//! Pearson correlation (paper Eq. 1) and correlation matrices.
//!
//! The paper uses Pearson correlation between latency profiles to recover
//! physical placement (Observation #4, Fig. 6), and between timing traces and
//! key hypotheses in the AES attack (Fig. 18).

/// Pearson correlation coefficient of two equal-length sample vectors.
///
/// Returns 0.0 if either vector has zero variance (the correlation is
/// undefined there; 0 is the conventional "no information" answer for the
/// attack and clustering use cases).
///
/// # Panics
///
/// Panics if the vectors have different lengths or are empty.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal-length vectors");
    assert!(!x.is_empty(), "pearson of empty vectors");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// One row of a correlation matrix, centred once: its deviations from the
/// mean and the square root of their sum of squares, each computed by
/// exactly the operations, in the order, that [`pearson`] uses.
struct Centred {
    dev: Vec<f64>,
    norm: f64,
}

/// Centres every row of `profiles`.
///
/// # Panics
///
/// Panics if the rows are empty or have inconsistent lengths.
fn centre_rows(profiles: &[Vec<f64>]) -> Vec<Centred> {
    let len = profiles.first().map_or(0, Vec::len);
    profiles
        .iter()
        .map(|row| {
            assert!(len > 0, "correlation_matrix of empty rows");
            assert_eq!(
                row.len(),
                len,
                "correlation_matrix requires equal-length rows"
            );
            let mean = row.iter().sum::<f64>() / len as f64;
            let dev: Vec<f64> = row.iter().map(|a| a - mean).collect();
            let mut ss = 0.0;
            for d in &dev {
                ss += d * d;
            }
            Centred {
                dev,
                norm: ss.sqrt(),
            }
        })
        .collect()
}

/// Entries `j = i..n` of row `i` of the correlation matrix: [`pearson`]'s
/// covariance sum in index order, its zero-variance answer and its
/// quotient, so every entry is bit-identical to `pearson(rows[i], rows[j])`.
fn upper_row(rows: &[Centred], i: usize) -> Vec<f64> {
    let x = &rows[i];
    rows[i..]
        .iter()
        .map(|y| {
            if x.norm == 0.0 || y.norm == 0.0 {
                return 0.0;
            }
            let mut cov = 0.0;
            for (a, b) in x.dev.iter().zip(&y.dev) {
                cov += a * b;
            }
            cov / (x.norm * y.norm)
        })
        .collect()
}

/// Mirrors the upper-triangle rows from [`upper_row`] into a full matrix.
fn mirror(upper: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let n = upper.len();
    let mut m = vec![vec![0.0; n]; n];
    for (i, tail) in upper.into_iter().enumerate() {
        for (off, r) in tail.into_iter().enumerate() {
            let j = i + off;
            m[i][j] = r;
            m[j][i] = r;
        }
    }
    m
}

/// Symmetric Pearson-correlation matrix between the rows of `profiles`.
///
/// Entry `(i, j)` is bit-identical to `pearson(profiles[i], profiles[j])`;
/// the diagonal is 1 (or 0 for zero-variance rows). Each row is centred
/// once, so a pair costs one dot product. This is the Fig. 6 heatmap
/// computation.
///
/// # Panics
///
/// Panics if the rows are empty or have inconsistent lengths.
pub fn correlation_matrix(profiles: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let rows = centre_rows(profiles);
    mirror((0..rows.len()).map(|i| upper_row(&rows, i)).collect())
}

/// Parallel [`correlation_matrix`]: upper-triangle rows are computed across
/// the pool's workers, then mirrored. Bit-identical to the serial version for
/// any worker count because each `(i, j)` entry is an independent pure
/// function of the two centred rows — no accumulation order changes.
///
/// # Panics
///
/// Panics if the rows are empty or have inconsistent lengths.
pub fn correlation_matrix_par(profiles: &[Vec<f64>], pool: &gnoc_par::WorkerPool) -> Vec<Vec<f64>> {
    let rows = centre_rows(profiles);
    let idx: Vec<usize> = (0..rows.len()).collect();
    mirror(pool.par_map(&idx, |&i| upper_row(&rows, i)))
}

/// Spearman rank correlation: Pearson correlation of the ranks, robust to
/// monotone nonlinearity and outliers. Ties receive their average rank.
///
/// # Panics
///
/// Panics if the vectors differ in length or are empty.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite samples"));
        let mut out = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            // Group ties and assign the average rank (1-based).
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                out[k] = avg;
            }
            i = j + 1;
        }
        out
    }
    pearson(&ranks(x), &ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_correlate_perfectly() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_vectors_anti_correlate() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![3.0, 2.0, 1.0];
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn affine_transforms_preserve_correlation() {
        let x = vec![1.0, 5.0, 2.0, 8.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 7.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_yields_zero() {
        let x = vec![2.0, 2.0, 2.0];
        let y = vec![1.0, 2.0, 3.0];
        assert_eq!(pearson(&x, &y), 0.0);
    }

    #[test]
    fn uncorrelated_vectors_near_zero() {
        let x = vec![1.0, 2.0, 1.0, 2.0];
        let y = vec![1.0, 1.0, 2.0, 2.0];
        assert!(pearson(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let rows = vec![
            vec![1.0, 2.0, 3.0],
            vec![3.0, 2.0, 1.0],
            vec![1.0, 3.0, 2.0],
        ];
        let m = correlation_matrix(&rows);
        for (i, row) in m.iter().enumerate() {
            assert!((row[i] - 1.0).abs() < 1e-12);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert!((m[0][1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..17).map(|j| ((i * 31 + j * 7) % 13) as f64).collect())
            .collect();
        let serial = correlation_matrix(&rows);
        for jobs in [1, 2, 7] {
            let pool = gnoc_par::WorkerPool::new(jobs);
            assert_eq!(correlation_matrix_par(&rows, &pool), serial);
        }
    }

    #[test]
    fn matrix_entries_are_bit_identical_to_pearson() {
        let mut rng = gnoc_telemetry::hash::SplitMix64::new(0xc0e5);
        for len in [1, 2, 3, 17, 80] {
            let mut rows: Vec<Vec<f64>> = (0..9)
                .map(|i| {
                    let scale = [1e-3, 1.0, 250.0, 1e9][i % 4];
                    (0..len)
                        .map(|_| 175.0 + scale * (rng.next_f64() - 0.5))
                        .collect()
                })
                .collect();
            // A constant row (zero variance) and a duplicated row.
            rows.push(vec![212.5; len]);
            rows.push(rows[3].clone());
            let pool = gnoc_par::WorkerPool::new(2);
            for m in [
                correlation_matrix(&rows),
                correlation_matrix_par(&rows, &pool),
            ] {
                for (i, row) in m.iter().enumerate() {
                    for (j, v) in row.iter().enumerate() {
                        let want = pearson(&rows[i], &rows[j]);
                        assert_eq!(v.to_bits(), want.to_bits(), "len {len}, ({i}, {j})");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn matrix_rejects_ragged_rows() {
        let _ = correlation_matrix(&[vec![1.0, 2.0], vec![1.0, 2.0, 3.0]]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn parallel_matrix_rejects_ragged_rows() {
        let pool = gnoc_par::WorkerPool::new(2);
        let _ = correlation_matrix_par(&[vec![1.0, 2.0], vec![1.0]], &pool);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn matrix_rejects_empty_rows() {
        let _ = correlation_matrix(&[vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_lengths_are_rejected() {
        let _ = pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn spearman_is_one_for_any_monotone_map() {
        let x: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        let y_dec: Vec<f64> = x.iter().map(|v| -v * v).collect();
        assert!((spearman(&x, &y_dec) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_with_average_ranks() {
        let x = vec![1.0, 1.0, 2.0];
        let y = vec![5.0, 5.0, 9.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_robust_to_an_outlier() {
        let x: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = x.clone();
        y[4] = 1e9; // huge outlier preserves rank order
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y) < 0.95, "pearson should be distorted");
    }
}
