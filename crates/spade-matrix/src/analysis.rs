//! Sparse-matrix structure analysis.
//!
//! The SPADE evaluation groups matrices by *Restructuring Utility* (RU):
//! whether a matrix benefits from tiling, scheduling barriers and cache
//! bypassing (§6.B). RU depends on the reuse structure of the matrix, which
//! this module quantifies with cheap, purely structural statistics.

use crate::Coo;

/// How much a matrix benefits from SPADE's flexibility knobs (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RestructuringUtility {
    /// Rarely benefits: little reuse to exploit (road graphs, meshes).
    Low,
    /// Benefits in some settings (one kernel, or only large K).
    Medium,
    /// Consistently benefits (power-law and dense-row matrices).
    High,
}

impl std::fmt::Display for RestructuringUtility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestructuringUtility::Low => write!(f, "Low"),
            RestructuringUtility::Medium => write!(f, "Medium"),
            RestructuringUtility::High => write!(f, "High"),
        }
    }
}

/// Structural statistics of a sparse matrix (the Table 2 columns plus the
/// locality measures the RU classifier uses).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub num_rows: usize,
    /// Number of columns.
    pub num_cols: usize,
    /// Number of non-zeros.
    pub nnz: usize,
    /// `nnz / (rows · cols)`.
    pub density: f64,
    /// Mean non-zeros per row.
    pub avg_degree: f64,
    /// Largest row population.
    pub max_degree: usize,
    /// Ratio of max to mean degree — skew indicator (hubs ⇒ reuse).
    pub degree_skew: f64,
    /// Mean |row − col| over non-zeros, normalized by the matrix dimension.
    /// Near-diagonal matrices (roads, meshes, stencils) score low.
    pub normalized_bandwidth: f64,
    /// Fraction of non-zeros whose column index repeats within a window of
    /// 256 consecutive rows — a proxy for cMatrix reuse inside a tile.
    pub local_column_reuse: f64,
}

impl MatrixStats {
    /// Computes statistics for `matrix`.
    pub fn compute(matrix: &Coo) -> Self {
        let num_rows = matrix.num_rows();
        let num_cols = matrix.num_cols();
        let nnz = matrix.nnz();
        let mut degree = vec![0usize; num_rows];
        let mut band_sum = 0f64;
        for (r, c, _) in matrix.iter() {
            degree[r as usize] += 1;
            band_sum += (r as f64 - c as f64).abs();
        }
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        let avg_degree = if num_rows == 0 {
            0.0
        } else {
            nnz as f64 / num_rows as f64
        };
        let dim = num_rows.max(num_cols).max(1) as f64;
        let normalized_bandwidth = if nnz == 0 {
            0.0
        } else {
            band_sum / nnz as f64 / dim
        };

        // Column reuse within 256-row windows: walk the (row-major) entries
        // and count columns already seen in the current window.
        let window = 256usize;
        let mut seen: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        let mut window_start = 0u32;
        let mut reused = 0usize;
        for (r, c, _) in matrix.iter() {
            if r >= window_start + window as u32 {
                seen.clear();
                window_start = (r / window as u32) * window as u32;
            }
            let count = seen.entry(c).or_insert(0);
            if *count > 0 {
                reused += 1;
            }
            *count += 1;
        }
        let local_column_reuse = if nnz == 0 {
            0.0
        } else {
            reused as f64 / nnz as f64
        };

        MatrixStats {
            num_rows,
            num_cols,
            nnz,
            density: matrix.density(),
            avg_degree,
            max_degree,
            degree_skew: if avg_degree > 0.0 {
                max_degree as f64 / avg_degree
            } else {
                0.0
            },
            normalized_bandwidth,
            local_column_reuse,
        }
    }

    /// Classifies the matrix's Restructuring Utility from its structure.
    ///
    /// High RU needs exploitable reuse: either heavy degree skew with
    /// substantial average degree (power-law hubs) or high local column
    /// reuse (dense rows). Low RU matrices are near-diagonal with low
    /// degree — their reuse is already captured without restructuring.
    pub fn classify_ru(&self) -> RestructuringUtility {
        let hublike = self.degree_skew > 50.0 && self.avg_degree > 8.0;
        let dense_rows = self.avg_degree > 60.0;
        let local = self.normalized_bandwidth < 0.05 && self.avg_degree < 30.0;
        if dense_rows || (hublike && self.local_column_reuse > 0.3) {
            RestructuringUtility::High
        } else if local || self.avg_degree < 4.0 {
            RestructuringUtility::Low
        } else {
            RestructuringUtility::Medium
        }
    }
}

/// Version of the [`MatrixFeatures`] vector layout. Bump whenever the
/// set, order or semantics of the features change; trained cost models
/// record the version they were fitted against and refuse to score
/// vectors from a different layout.
pub const FEATURE_VECTOR_VERSION: u32 = 1;

/// Row-panel height used for the nnz-per-panel histogram summary inside
/// [`MatrixFeatures`]. Fixed so the features are comparable across
/// matrices and stable across versions.
pub const FEATURE_PANEL_ROWS: usize = 64;

/// Names of the features in [`MatrixFeatures::as_vec`] order. The length
/// and order are part of [`FEATURE_VECTOR_VERSION`].
pub const FEATURE_NAMES: [&str; 14] = [
    "nnz",
    "num_rows",
    "num_cols",
    "density",
    "avg_degree",
    "degree_skew",
    "degree_cov",
    "max_degree",
    "ru_class",
    "normalized_bandwidth",
    "local_column_reuse",
    "panel_nnz_mean",
    "panel_nnz_cov",
    "panel_nnz_max_ratio",
];

/// A fixed, versioned structural feature vector for cost modelling.
///
/// This is the "inspector" view of a matrix reduced to a handful of
/// numbers: the [`MatrixStats`] columns plus a degree coefficient of
/// variation and a summary of the nnz-per-row-panel distribution (how
/// evenly work spreads across [`FEATURE_PANEL_ROWS`]-row panels). All
/// values are raw (untransformed) — consumers that want log scaling
/// apply it themselves so the stored vector stays interpretable.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixFeatures {
    /// Number of non-zeros.
    pub nnz: f64,
    /// Number of rows.
    pub num_rows: f64,
    /// Number of columns.
    pub num_cols: f64,
    /// `nnz / (rows · cols)`.
    pub density: f64,
    /// Mean non-zeros per row.
    pub avg_degree: f64,
    /// Max-over-mean degree ratio.
    pub degree_skew: f64,
    /// Coefficient of variation of the row degrees (stddev / mean).
    pub degree_cov: f64,
    /// Largest row population.
    pub max_degree: f64,
    /// Restructuring-utility class as a number: Low=0, Medium=1, High=2.
    pub ru_class: f64,
    /// Mean |row − col| over non-zeros, normalized by the dimension.
    pub normalized_bandwidth: f64,
    /// Fraction of non-zeros whose column repeats within a 256-row window.
    pub local_column_reuse: f64,
    /// Mean nnz per [`FEATURE_PANEL_ROWS`]-row panel.
    pub panel_nnz_mean: f64,
    /// Coefficient of variation of nnz across row panels.
    pub panel_nnz_cov: f64,
    /// Max-over-mean nnz ratio across row panels (load-imbalance proxy).
    pub panel_nnz_max_ratio: f64,
}

impl MatrixFeatures {
    /// Computes the feature vector for `matrix`.
    pub fn compute(matrix: &Coo) -> Self {
        let stats = MatrixStats::compute(matrix);
        Self::from_stats(matrix, &stats)
    }

    /// Computes the feature vector reusing already-computed `stats`.
    pub fn from_stats(matrix: &Coo, stats: &MatrixStats) -> Self {
        let num_rows = matrix.num_rows();
        let mut degree = vec![0usize; num_rows];
        let num_panels = num_rows.div_ceil(FEATURE_PANEL_ROWS).max(1);
        let mut panel_nnz = vec![0usize; num_panels];
        for &r in matrix.r_ids() {
            degree[r as usize] += 1;
            panel_nnz[r as usize / FEATURE_PANEL_ROWS] += 1;
        }
        let degree_cov = coefficient_of_variation(&degree);
        let panel_mean = if num_panels == 0 {
            0.0
        } else {
            stats.nnz as f64 / num_panels as f64
        };
        let panel_max = panel_nnz.iter().copied().max().unwrap_or(0) as f64;
        MatrixFeatures {
            nnz: stats.nnz as f64,
            num_rows: stats.num_rows as f64,
            num_cols: stats.num_cols as f64,
            density: stats.density,
            avg_degree: stats.avg_degree,
            degree_skew: stats.degree_skew,
            degree_cov,
            max_degree: stats.max_degree as f64,
            ru_class: match stats.classify_ru() {
                RestructuringUtility::Low => 0.0,
                RestructuringUtility::Medium => 1.0,
                RestructuringUtility::High => 2.0,
            },
            normalized_bandwidth: stats.normalized_bandwidth,
            local_column_reuse: stats.local_column_reuse,
            panel_nnz_mean: panel_mean,
            panel_nnz_cov: coefficient_of_variation(&panel_nnz),
            panel_nnz_max_ratio: if panel_mean > 0.0 {
                panel_max / panel_mean
            } else {
                0.0
            },
        }
    }

    /// The features as a vector in [`FEATURE_NAMES`] order.
    pub fn as_vec(&self) -> Vec<f64> {
        vec![
            self.nnz,
            self.num_rows,
            self.num_cols,
            self.density,
            self.avg_degree,
            self.degree_skew,
            self.degree_cov,
            self.max_degree,
            self.ru_class,
            self.normalized_bandwidth,
            self.local_column_reuse,
            self.panel_nnz_mean,
            self.panel_nnz_cov,
            self.panel_nnz_max_ratio,
        ]
    }

    /// Rebuilds a feature vector from values in [`FEATURE_NAMES`] order.
    /// Returns `None` when the length does not match the current layout.
    pub fn from_vec(values: &[f64]) -> Option<Self> {
        if values.len() != FEATURE_NAMES.len() {
            return None;
        }
        Some(MatrixFeatures {
            nnz: values[0],
            num_rows: values[1],
            num_cols: values[2],
            density: values[3],
            avg_degree: values[4],
            degree_skew: values[5],
            degree_cov: values[6],
            max_degree: values[7],
            ru_class: values[8],
            normalized_bandwidth: values[9],
            local_column_reuse: values[10],
            panel_nnz_mean: values[11],
            panel_nnz_cov: values[12],
            panel_nnz_max_ratio: values[13],
        })
    }
}

fn coefficient_of_variation(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let n = counts.len() as f64;
    let mean = counts.iter().copied().sum::<usize>() as f64 / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Per-row degree histogram with logarithmic buckets; used by the workload
/// reports to show degree skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeHistogram {
    /// `buckets[i]` counts rows with degree in `[2^i, 2^(i+1))`; bucket 0
    /// also counts degree-0 rows.
    pub buckets: Vec<usize>,
}

impl DegreeHistogram {
    /// Computes the histogram for `matrix`.
    pub fn compute(matrix: &Coo) -> Self {
        let mut degree = vec![0usize; matrix.num_rows()];
        for &r in matrix.r_ids() {
            degree[r as usize] += 1;
        }
        let mut buckets = Vec::new();
        for d in degree {
            let b = if d <= 1 {
                0
            } else {
                (usize::BITS - d.leading_zeros()) as usize - 1
            };
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        DegreeHistogram { buckets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{Benchmark, Scale};
    use crate::Coo;

    #[test]
    fn stats_of_diagonal_matrix() {
        let a = Coo::from_triplets(4, 4, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)])
            .unwrap();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.nnz, 4);
        assert_eq!(s.avg_degree, 1.0);
        assert_eq!(s.max_degree, 1);
        assert_eq!(s.normalized_bandwidth, 0.0);
        assert_eq!(s.local_column_reuse, 0.0);
    }

    #[test]
    fn stats_of_empty_matrix_do_not_divide_by_zero() {
        let a = Coo::from_triplets(3, 3, &[]).unwrap();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.degree_skew, 0.0);
    }

    #[test]
    fn column_reuse_detects_repeated_columns() {
        // All nnz in the same column within one window.
        let a = Coo::from_triplets(4, 4, &[(0, 2, 1.0), (1, 2, 1.0), (2, 2, 1.0)]).unwrap();
        let s = MatrixStats::compute(&a);
        assert!(s.local_column_reuse > 0.5);
    }

    #[test]
    fn road_class_is_low_ru() {
        let m = Benchmark::Roa.generate(Scale::Tiny);
        let s = MatrixStats::compute(&m);
        assert_eq!(s.classify_ru(), RestructuringUtility::Low);
    }

    #[test]
    fn myc_class_is_high_ru() {
        // Classification needs enough structure; use the Default scale
        // (MYC stays small — ~1.5k rows — so this is still fast).
        let m = Benchmark::Myc.generate(Scale::Default);
        let s = MatrixStats::compute(&m);
        assert_eq!(s.classify_ru(), RestructuringUtility::High);
    }

    #[test]
    fn suite_classification_matches_table2() {
        // At the Default scale, the structural classifier reproduces the
        // Table 2 RU column for the whole suite.
        for b in Benchmark::ALL {
            let m = b.generate(Scale::Default);
            let s = MatrixStats::compute(&m);
            assert_eq!(
                s.classify_ru(),
                b.expected_ru(),
                "{} misclassified: {:?}",
                b.short_name(),
                s
            );
        }
    }

    #[test]
    fn histogram_counts_all_rows() {
        let m = Benchmark::Kro.generate(Scale::Tiny);
        let h = DegreeHistogram::compute(&m);
        assert_eq!(h.buckets.iter().sum::<usize>(), m.num_rows());
    }

    #[test]
    fn ru_display_matches_table2_names() {
        assert_eq!(RestructuringUtility::Low.to_string(), "Low");
        assert_eq!(RestructuringUtility::Medium.to_string(), "Medium");
        assert_eq!(RestructuringUtility::High.to_string(), "High");
    }

    #[test]
    fn ru_ordering_low_to_high() {
        assert!(RestructuringUtility::Low < RestructuringUtility::Medium);
        assert!(RestructuringUtility::Medium < RestructuringUtility::High);
    }

    #[test]
    fn feature_vector_matches_names_and_roundtrips() {
        let m = Benchmark::Kro.generate(Scale::Tiny);
        let f = MatrixFeatures::compute(&m);
        let v = f.as_vec();
        assert_eq!(v.len(), FEATURE_NAMES.len());
        assert_eq!(MatrixFeatures::from_vec(&v), Some(f.clone()));
        assert_eq!(MatrixFeatures::from_vec(&v[..3]), None);
        assert!(v.iter().all(|x| x.is_finite()));
        assert_eq!(f.nnz, m.nnz() as f64);
        assert_eq!(f.num_rows, m.num_rows() as f64);
    }

    #[test]
    fn feature_vector_of_empty_matrix_is_finite() {
        let a = Coo::from_triplets(3, 3, &[]).unwrap();
        let f = MatrixFeatures::compute(&a);
        assert!(f.as_vec().iter().all(|x| x.is_finite()));
        assert_eq!(f.panel_nnz_mean, 0.0);
        assert_eq!(f.panel_nnz_max_ratio, 0.0);
    }

    #[test]
    fn panel_imbalance_shows_in_max_ratio() {
        // All nnz in one 64-row panel of a 256-row matrix: the max panel
        // carries 4x the mean.
        let trips: Vec<(u32, u32, f32)> = (0..32).map(|i| (i % 8, i % 16, 1.0)).collect();
        let a = Coo::from_triplets(256, 16, &trips).unwrap();
        let f = MatrixFeatures::compute(&a);
        assert!(f.panel_nnz_max_ratio > 3.0, "{}", f.panel_nnz_max_ratio);
        assert!(f.panel_nnz_cov > 1.0, "{}", f.panel_nnz_cov);
    }

    #[test]
    fn ru_class_feature_tracks_classifier() {
        let roa = MatrixFeatures::compute(&Benchmark::Roa.generate(Scale::Tiny));
        assert_eq!(roa.ru_class, 0.0);
        let myc = MatrixFeatures::compute(&Benchmark::Myc.generate(Scale::Default));
        assert_eq!(myc.ru_class, 2.0);
    }
}
