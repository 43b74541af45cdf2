//! Sparse linear algebra: CSR sparse matrix–vector multiply.
//!
//! SpMV is the archetypal *irregular* parallel loop — per-row cost is
//! proportional to the row's nonzero count — which makes it the
//! kernel where schedule choice (static vs dynamic vs guided) shows
//! up most clearly in experiment A2.

use pyjama::{Schedule, Team};

/// A sparse matrix in compressed-sparse-row form.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets; duplicates are summed.
    #[must_use]
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut sorted: Vec<(u32, u32, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut dedup: Vec<(u32, u32, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match dedup.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => dedup.push((r, c, v)),
            }
        }
        let mut offsets = vec![0usize; rows + 1];
        for &(r, _, _) in &dedup {
            offsets[r as usize + 1] += 1;
        }
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        Self {
            rows,
            cols,
            offsets,
            col_idx: dedup.iter().map(|t| t.1).collect(),
            values: dedup.iter().map(|t| t.2).collect(),
        }
    }

    /// A deterministic random matrix with a power-law-ish skew: row
    /// `i` gets roughly `base * (1 + skew·i/rows)` nonzeros, giving
    /// the load imbalance the schedule comparison needs.
    #[must_use]
    pub fn random_skewed(rows: usize, cols: usize, base_nnz: usize, skew: f64, seed: u64) -> Self {
        let mut rng = parc_util::rng::Xoshiro256::seed_from_u64(seed);
        let mut triplets = Vec::new();
        for r in 0..rows {
            let nnz = ((base_nnz as f64) * (1.0 + skew * r as f64 / rows as f64)) as usize;
            for _ in 0..nnz.max(1) {
                triplets.push((
                    r as u32,
                    rng.next_below(cols as u64) as u32,
                    rng.next_f64() * 2.0 - 1.0,
                ));
            }
        }
        Self::from_triplets(rows, cols, &triplets)
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

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Dot product of row `r` with `x`.
    #[must_use]
    pub fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let lo = self.offsets[r];
        let hi = self.offsets[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| v * x[c as usize])
            .sum()
    }
}

/// Sequential SpMV: `y = Ax`.
#[must_use]
pub fn spmv_seq(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols, "dimension mismatch");
    (0..a.rows).map(|r| a.row_dot(r, x)).collect()
}

/// Parallel SpMV with a chosen schedule (rows are write-disjoint).
#[must_use]
pub fn spmv_par(team: &Team, a: &CsrMatrix, x: &[f64], schedule: Schedule) -> Vec<f64> {
    assert_eq!(x.len(), a.cols, "dimension mismatch");
    let mut y = vec![0.0f64; a.rows];
    struct OutPtr(*mut f64);
    unsafe impl Sync for OutPtr {}
    let out = OutPtr(y.as_mut_ptr());
    let out_ref = &out;
    team.for_each(0..a.rows, schedule, move |r| {
        // SAFETY: each row written by exactly one thread.
        unsafe {
            *out_ref.0.add(r) = a.row_dot(r, x);
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_build_and_dedup() {
        let a =
            CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (0, 1, 3.0), (1, 0, 1.0), (1, 2, -1.0)]);
        assert_eq!(a.nnz(), 3, "duplicate (0,1) must merge");
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
        let y = spmv_seq(&a, &[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![5.0, 0.0]);
    }

    #[test]
    fn identity_spmv() {
        let triplets: Vec<(u32, u32, f64)> = (0..5).map(|i| (i, i, 1.0)).collect();
        let a = CsrMatrix::from_triplets(5, 5, &triplets);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(spmv_seq(&a, &x), x);
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = CsrMatrix::from_triplets(3, 3, &[(1, 1, 7.0)]);
        let y = spmv_seq(&a, &[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![0.0, 7.0, 0.0]);
    }

    #[test]
    fn parallel_matches_sequential_all_schedules() {
        let team = Team::new(3);
        let a = CsrMatrix::random_skewed(200, 150, 8, 4.0, 11);
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.37).sin()).collect();
        let seq = spmv_seq(&a, &x);
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunk(8),
            Schedule::Dynamic(16),
            Schedule::Guided(4),
        ] {
            let par = spmv_par(&team, &a, &x, schedule);
            for (s, p) in seq.iter().zip(&par) {
                assert!((s - p).abs() < 1e-12, "{schedule:?}");
            }
        }
    }

    #[test]
    fn skewed_generator_actually_skews() {
        let a = CsrMatrix::random_skewed(100, 100, 10, 9.0, 12);
        let first_row = a.offsets[1] - a.offsets[0];
        let last_row = a.offsets[100] - a.offsets[99];
        assert!(
            last_row > 5 * first_row,
            "last row nnz {last_row} should dwarf first {first_row}"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn spmv_checks_dimensions() {
        let a = CsrMatrix::from_triplets(2, 3, &[]);
        let _ = spmv_seq(&a, &[1.0]);
    }
}
