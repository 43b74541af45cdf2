//! Dense linear algebra: matrix multiply, LU decomposition, Jacobi.
//!
//! The "nested loops" kernels of project 3. Parallelisations follow
//! the standard OpenMP patterns: matmul and Jacobi parallelise the
//! outer row loop; LU parallelises the trailing-submatrix update of
//! each elimination step.

use pyjama::{MaxRed, Schedule, Team};

/// Row-major dense matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Deterministic random matrix in `[-1, 1)`.
    #[must_use]
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = parc_util::rng::Xoshiro256::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.next_f64() * 2.0 - 1.0)
            .collect();
        Self { rows, cols, data }
    }

    /// Diagonally dominant random matrix (guarantees Jacobi
    /// convergence and a stable LU).
    #[must_use]
    pub fn random_diag_dominant(n: usize, seed: u64) -> Self {
        let mut m = Self::random(n, n, seed);
        for i in 0..n {
            let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = row_sum + 1.0;
        }
        m
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One row as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Max absolute element-wise difference.
    #[must_use]
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Sequential matrix multiply (i-k-j loop order for cache behaviour).
#[must_use]
pub fn matmul_seq(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "dimension mismatch");
    let mut c = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            let c_row = &mut c.data[i * c.cols..(i + 1) * c.cols];
            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
    c
}

/// Pyjama-parallel matrix multiply: worksharing over output rows.
#[must_use]
pub fn matmul_par(team: &Team, a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "dimension mismatch");
    let rows = a.rows;
    let cols = b.cols;
    let mut out = vec![0.0f64; rows * cols];
    {
        let out_rows: Vec<parking_lot::Mutex<&mut [f64]>> =
            out.chunks_mut(cols).map(parking_lot::Mutex::new).collect();
        team.for_each(0..rows, Schedule::Dynamic(4), |i| {
            let mut row = out_rows[i].lock();
            for k in 0..a.cols {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for (cj, bj) in row.iter_mut().zip(b.row(k)) {
                    *cj += aik * bj;
                }
            }
        });
    }
    Matrix {
        rows,
        cols,
        data: out,
    }
}

/// Partask-parallel matrix multiply: one task per block of rows (the
/// "standard concurrency library" comparator).
#[must_use]
pub fn matmul_partask(rt: &partask::TaskRuntime, a: &Matrix, b: &Matrix, tasks: usize) -> Matrix {
    assert_eq!(a.cols, b.rows, "dimension mismatch");
    let tasks = tasks.max(1);
    let a = std::sync::Arc::new(a.clone());
    let b = std::sync::Arc::new(b.clone());
    let rows = a.rows;
    let cols = b.cols;
    let multi = rt.spawn_batch(tasks, move |t| {
        let lo = rows * t / tasks;
        let hi = rows * (t + 1) / tasks;
        let mut block = vec![0.0f64; (hi - lo) * cols];
        for (bi, i) in (lo..hi).enumerate() {
            for k in 0..a.cols {
                let aik = a[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let row = &mut block[bi * cols..(bi + 1) * cols];
                for (cj, bj) in row.iter_mut().zip(b.row(k)) {
                    *cj += aik * bj;
                }
            }
        }
        (lo, block)
    });
    let mut data = vec![0.0f64; rows * cols];
    let blocks = multi.join().into_iter().collect::<Result<Vec<_>, _>>();
    for (lo, block) in blocks.expect("matmul tasks") {
        data[lo * cols..lo * cols + block.len()].copy_from_slice(&block);
    }
    Matrix { rows, cols, data }
}

/// LU decomposition with partial pivoting (Doolittle). Returns the
/// packed LU matrix and the permutation vector; panics on singular
/// input.
#[must_use]
pub fn lu_decompose(a: &Matrix) -> (Matrix, Vec<usize>) {
    assert_eq!(a.rows, a.cols, "LU needs a square matrix");
    let n = a.rows;
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for k in 0..n {
        // Pivot: largest |value| in column k at/below the diagonal.
        let (pivot_row, pivot_val) = (k..n)
            .map(|i| (i, lu[(i, k)].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("no NaN"))
            .expect("non-empty");
        assert!(pivot_val > 1e-12, "matrix is singular");
        if pivot_row != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            perm.swap(k, pivot_row);
        }
        for i in k + 1..n {
            let factor = lu[(i, k)] / lu[(k, k)];
            lu[(i, k)] = factor;
            for j in k + 1..n {
                lu[(i, j)] -= factor * lu[(k, j)];
            }
        }
    }
    (lu, perm)
}

/// Parallel LU: the trailing-submatrix update of each elimination
/// step is a worksharing loop over rows.
#[must_use]
pub fn lu_decompose_par(team: &Team, a: &Matrix) -> (Matrix, Vec<usize>) {
    assert_eq!(a.rows, a.cols, "LU needs a square matrix");
    let n = a.rows;
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    struct RowsPtr(*mut f64, usize);
    unsafe impl Sync for RowsPtr {}
    for k in 0..n {
        let (pivot_row, pivot_val) = (k..n)
            .map(|i| (i, lu[(i, k)].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("no NaN"))
            .expect("non-empty");
        assert!(pivot_val > 1e-12, "matrix is singular");
        if pivot_row != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            perm.swap(k, pivot_row);
        }
        let ptr = RowsPtr(lu.data.as_mut_ptr(), n);
        let ptr_ref = &ptr;
        // Copy of the pivot row segment so readers don't alias writers.
        let pivot_seg: Vec<f64> = (k..n).map(|j| lu[(k, j)]).collect();
        let pivot_seg = &pivot_seg;
        team.for_each(k + 1..n, Schedule::Static, move |i| {
            // SAFETY: each thread updates a distinct row i.
            unsafe {
                let row = std::slice::from_raw_parts_mut(ptr_ref.0.add(i * ptr_ref.1), ptr_ref.1);
                let factor = row[k] / pivot_seg[0];
                row[k] = factor;
                for j in k + 1..ptr_ref.1 {
                    row[j] -= factor * pivot_seg[j - k];
                }
            }
        });
    }
    (lu, perm)
}

/// Solve `Ax = b` given the packed LU and permutation from
/// [`lu_decompose`].
#[must_use]
pub fn lu_solve(lu: &Matrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.rows;
    assert_eq!(b.len(), n);
    // Forward substitution with permuted b (L has implicit unit diag).
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[perm[i]];
        for j in 0..i {
            sum -= lu[(i, j)] * y[j];
        }
        y[i] = sum;
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for j in i + 1..n {
            sum -= lu[(i, j)] * x[j];
        }
        x[i] = sum / lu[(i, i)];
    }
    x
}

/// Jacobi iteration for `Ax = b` (sequential). Returns `(x, iters)`;
/// converges for diagonally dominant systems.
#[must_use]
pub fn jacobi_seq(a: &Matrix, b: &[f64], tol: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = a.rows;
    let mut x = vec![0.0; n];
    let mut next = vec![0.0; n];
    for iter in 0..max_iters {
        let mut max_delta = 0.0f64;
        for i in 0..n {
            let mut sum = b[i];
            let row = a.row(i);
            for (j, &aij) in row.iter().enumerate() {
                if j != i {
                    sum -= aij * x[j];
                }
            }
            next[i] = sum / a[(i, i)];
            max_delta = max_delta.max((next[i] - x[i]).abs());
        }
        std::mem::swap(&mut x, &mut next);
        if max_delta < tol {
            return (x, iter + 1);
        }
    }
    (x, max_iters)
}

/// Jacobi iteration parallelised with pyjama: the row update is a
/// worksharing loop, the convergence check a max-reduction.
#[must_use]
pub fn jacobi_par(
    team: &Team,
    a: &Matrix,
    b: &[f64],
    tol: f64,
    max_iters: usize,
) -> (Vec<f64>, usize) {
    let n = a.rows;
    let mut x = vec![0.0; n];
    let mut next = vec![0.0; n];
    for iter in 0..max_iters {
        let x_ref = &x;
        struct OutPtr(*mut f64);
        unsafe impl Sync for OutPtr {}
        let out = OutPtr(next.as_mut_ptr());
        let out_ref = &out;
        let max_delta = team.par_reduce(0..n, Schedule::Static, &MaxRed, move |i| {
            let mut sum = b[i];
            let row = a.row(i);
            for (j, &aij) in row.iter().enumerate() {
                if j != i {
                    sum -= aij * x_ref[j];
                }
            }
            let xi = sum / a[(i, i)];
            // SAFETY: each i is written by exactly one thread.
            unsafe {
                *out_ref.0.add(i) = xi;
            }
            (xi - x_ref[i]).abs()
        });
        std::mem::swap(&mut x, &mut next);
        if max_delta < tol {
            return (x, iter + 1);
        }
    }
    (x, max_iters)
}

/// Residual ∞-norm `‖Ax − b‖∞`, the standard verification metric.
#[must_use]
pub fn residual_inf(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    (0..a.rows)
        .map(|i| {
            let ax: f64 = a.row(i).iter().zip(x).map(|(aij, xj)| aij * xj).sum();
            (ax - b[i]).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let a = Matrix::random(8, 8, 1);
        let c = matmul_seq(&a, &Matrix::identity(8));
        assert!(c.max_diff(&a) < 1e-12);
    }

    #[test]
    fn known_2x2_product() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 + 1.0); // [1 2; 3 4]
        let b = Matrix::from_fn(2, 2, |i, j| ((i + j) % 2) as f64); // [0 1; 1 0]
        let c = matmul_seq(&a, &b);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 1.0);
        assert_eq!(c[(1, 0)], 4.0);
        assert_eq!(c[(1, 1)], 3.0);
    }

    #[test]
    fn rectangular_product_dimensions() {
        let a = Matrix::random(3, 5, 2);
        let b = Matrix::random(5, 7, 3);
        let c = matmul_seq(&a, &b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 7);
    }

    #[test]
    fn parallel_matmuls_match_sequential() {
        let team = Team::new(3);
        let rt = partask::TaskRuntime::builder().workers(2).build();
        let a = Matrix::random(33, 41, 4);
        let b = Matrix::random(41, 29, 5);
        let seq = matmul_seq(&a, &b);
        let par = matmul_par(&team, &a, &b);
        let pt = matmul_partask(&rt, &a, &b, 5);
        assert!(par.max_diff(&seq) < 1e-12);
        assert!(pt.max_diff(&seq) < 1e-12);
        rt.shutdown();
    }

    #[test]
    fn lu_reconstructs_and_solves() {
        let a = Matrix::random_diag_dominant(20, 6);
        let (lu, perm) = lu_decompose(&a);
        // Solve against a known x.
        let x_true: Vec<f64> = (0..20).map(|i| (i as f64 - 10.0) / 3.0).collect();
        let b: Vec<f64> = (0..20)
            .map(|i| a.row(i).iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
            .collect();
        let x = lu_solve(&lu, &perm, &b);
        for (xa, xb) in x.iter().zip(&x_true) {
            assert!((xa - xb).abs() < 1e-8);
        }
    }

    #[test]
    fn lu_par_matches_seq() {
        let team = Team::new(2);
        let a = Matrix::random_diag_dominant(24, 7);
        let (lu_s, perm_s) = lu_decompose(&a);
        let (lu_p, perm_p) = lu_decompose_par(&team, &a);
        assert_eq!(perm_s, perm_p);
        assert!(lu_s.max_diff(&lu_p) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn lu_rejects_singular() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        // Row 2 all zeros -> singular.
        let _ = lu_decompose(&a);
    }

    #[test]
    fn jacobi_converges_on_diag_dominant() {
        let a = Matrix::random_diag_dominant(30, 8);
        let x_true: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..30)
            .map(|i| a.row(i).iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
            .collect();
        let (x, iters) = jacobi_seq(&a, &b, 1e-12, 500);
        assert!(iters < 500, "did not converge");
        assert!(residual_inf(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn jacobi_par_matches_seq() {
        let team = Team::new(3);
        let a = Matrix::random_diag_dominant(25, 9);
        let b: Vec<f64> = (0..25).map(|i| i as f64 * 0.5 - 3.0).collect();
        let (xs, is) = jacobi_seq(&a, &b, 1e-11, 300);
        let (xp, ip) = jacobi_par(&team, &a, &b, 1e-11, 300);
        assert_eq!(is, ip, "same iteration count");
        for (a0, b0) in xs.iter().zip(&xp) {
            assert!((a0 - b0).abs() < 1e-10);
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = Matrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert!(residual_inf(&a, &x, &x) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul_seq(&a, &b);
    }
}
