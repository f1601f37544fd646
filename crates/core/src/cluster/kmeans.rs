//! Deterministic 2-means clustering over warp feature vectors.
//!
//! The paper fixes k = 2: "one cluster is to capture the majority warps
//! with similar interval profiles while the other cluster is to capture the
//! outlier warps". Centroids are seeded with the two most separated points
//! along the performance axis (deterministic — no RNG), then Lloyd
//! iterations run to convergence.

use std::convert::Infallible;

use gpumech_obs::{CancelToken, Interrupt};

use super::features::FeatureVector;

/// Result of the 2-means clustering.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster assignment (0 or 1) per input point.
    pub assignment: Vec<u8>,
    /// The two centroids.
    pub centroids: [FeatureVector; 2],
    /// Index of the larger cluster (ties go to cluster 0).
    pub majority: u8,
    /// Index of the point nearest the majority centroid — the
    /// representative warp.
    pub representative: usize,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// `true` when the clustering degenerated: a feature was non-finite or
    /// Lloyd failed to converge within the iteration cap. The result is
    /// still well-formed (valid indices, no NaN panics), but callers should
    /// prefer a selection method that does not rely on cluster structure.
    pub degenerate: bool,
}

const MAX_ITERS: usize = 100;

/// Runs 2-means on `points`.
///
/// # Panics
///
/// Panics if `points` is empty.
#[must_use]
pub fn kmeans2(points: &[FeatureVector]) -> KmeansResult {
    match kmeans2_checked(points, &|| Ok::<(), Infallible>(())) {
        Ok(r) => r,
        Err(never) => match never {},
    }
}

/// [`kmeans2`] under a [`CancelToken`]: the token is polled before every
/// Lloyd iteration, so an expired deadline or explicit cancellation aborts
/// the refinement loop within one iteration.
///
/// # Errors
///
/// The [`Interrupt`] once `cancel` fires.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn kmeans2_cancellable(
    points: &[FeatureVector],
    cancel: &CancelToken,
) -> Result<KmeansResult, Interrupt> {
    kmeans2_checked(points, &|| cancel.check())
}

/// The shared k-means body: `check` is polled before every Lloyd
/// iteration and decides the error type (`Infallible` for the plain
/// entry point, [`Interrupt`] for the cancellable one).
fn kmeans2_checked<E>(
    points: &[FeatureVector],
    check: &dyn Fn() -> Result<(), E>,
) -> Result<KmeansResult, E> {
    assert!(!points.is_empty(), "kmeans2 requires at least one point");
    let _span = gpumech_obs::span!("core.kmeans.cluster", points = points.len());

    let degenerate_input =
        points.iter().any(|p| !p.perf.is_finite() || !p.insts.is_finite());

    // Deterministic seeding: extremes of the perf axis (falling back to the
    // insts axis when perf is uniform). `total_cmp` gives a total order even
    // over NaN/Inf features, so corrupted profiles cannot panic the seeding.
    let key_cmp = |a: &FeatureVector, b: &FeatureVector| {
        a.perf.total_cmp(&b.perf).then(a.insts.total_cmp(&b.insts))
    };
    let lo =
        points.iter().enumerate().min_by(|(_, a), (_, b)| key_cmp(a, b)).map_or(0, |(i, _)| i);
    let hi =
        points.iter().enumerate().max_by(|(_, a), (_, b)| key_cmp(a, b)).map_or(0, |(i, _)| i);
    let mut centroids = [points[lo], points[hi]];

    let mut assignment = vec![0u8; points.len()];
    let mut iterations = 0;
    let mut converged = false;
    for it in 0..MAX_ITERS {
        check()?;
        iterations = it + 1;
        let mut changed = 0u64;
        for (i, p) in points.iter().enumerate() {
            let c = u8::from(p.dist2(&centroids[1]) < p.dist2(&centroids[0]));
            if assignment[i] != c {
                assignment[i] = c;
                changed += 1;
            }
        }
        // Per-iteration convergence series; inertia (within-cluster sum of
        // squared distances) is only computed when a recorder is listening.
        if gpumech_obs::enabled() {
            gpumech_obs::counter!("core.kmeans.reassignments", changed);
            let inertia: f64 = points
                .iter()
                .zip(&assignment)
                .map(|(p, &a)| p.dist2(&centroids[a as usize]))
                .sum();
            gpumech_obs::gauge!("core.kmeans.inertia", inertia);
        }
        if changed == 0 && it > 0 {
            converged = true;
            break;
        }
        let before = centroids;
        for c in 0..2u8 {
            let members: Vec<&FeatureVector> =
                points.iter().zip(&assignment).filter(|(_, &a)| a == c).map(|(p, _)| p).collect();
            if members.is_empty() {
                // Deterministic re-seed: park the empty cluster on the point
                // farthest from the other centroid so the next assignment
                // pass can repopulate it (a stale centroid would otherwise
                // drift arbitrarily far from the data).
                gpumech_obs::counter!("core.kmeans.reseeds", 1u64);
                let other = centroids[1 - c as usize];
                if let Some(far) = points
                    .iter()
                    .max_by(|a, b| a.dist2(&other).total_cmp(&b.dist2(&other)))
                {
                    centroids[c as usize] = *far;
                }
                continue;
            }
            let n = members.len() as f64;
            centroids[c as usize] = FeatureVector {
                perf: members.iter().map(|p| p.perf).sum::<f64>() / n,
                insts: members.iter().map(|p| p.insts).sum::<f64>() / n,
            };
        }
        // Oscillation guard: over (near-)identical points the cluster mean
        // is inexact by an ulp while a re-seeded centroid sits exactly on a
        // data point, so assignments can flip between bit-identical
        // configurations forever. Sub-epsilon centroid movement is
        // convergence, not progress. (NaN movement fails the comparison and
        // falls through to the degenerate-input path.)
        let moved = centroids[0]
            .dist2(&before[0])
            .max(centroids[1].dist2(&before[1]));
        if moved <= 1e-18 {
            converged = true;
            break;
        }
    }

    let size0 = assignment.iter().filter(|&&a| a == 0).count();
    let majority = u8::from(size0 * 2 < points.len());
    let centre = centroids[majority as usize];
    let representative = points
        .iter()
        .enumerate()
        .filter(|(i, _)| assignment[*i] == majority)
        .min_by(|(_, a), (_, b)| a.dist2(&centre).total_cmp(&b.dist2(&centre)))
        .map_or(0, |(i, _)| i);

    let degenerate = degenerate_input || !converged;
    gpumech_obs::counter!("core.kmeans.iterations", iterations as u64);
    if degenerate {
        gpumech_obs::counter!("core.kmeans.degenerate", 1u64);
    }
    Ok(KmeansResult { assignment, centroids, majority, representative, iterations, degenerate })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn fv(perf: f64, insts: f64) -> FeatureVector {
        FeatureVector { perf, insts }
    }

    #[test]
    fn two_obvious_clusters_are_separated() {
        let pts = vec![fv(0.1, 1.0), fv(0.12, 1.0), fv(0.11, 1.0), fv(2.0, 1.0), fv(2.1, 1.0)];
        let r = kmeans2(&pts);
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[0], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_ne!(r.assignment[0], r.assignment[3]);
        // Majority = the 3-point cluster; representative is one of them.
        assert!(r.representative < 3);
    }

    #[test]
    fn representative_is_nearest_to_majority_centroid() {
        let pts = vec![fv(1.0, 1.0), fv(1.2, 1.0), fv(0.8, 1.0), fv(5.0, 5.0)];
        let r = kmeans2(&pts);
        assert_eq!(r.representative, 0, "1.0 is closest to the mean of {{0.8,1.0,1.2}}");
    }

    #[test]
    fn single_point_is_its_own_representative() {
        let r = kmeans2(&[fv(1.0, 1.0)]);
        assert_eq!(r.representative, 0);
    }

    #[test]
    fn identical_points_converge_without_divergence() {
        let pts = vec![fv(1.0, 1.0); 10];
        let r = kmeans2(&pts);
        assert!(r.representative < 10);
        assert!(r.iterations <= MAX_ITERS);
    }

    #[test]
    fn instruction_count_separates_equal_performance_warps() {
        // Same perf, different lengths (the paper's motivation for the
        // second feature dimension).
        let pts =
            vec![fv(1.0, 0.5), fv(1.0, 0.52), fv(1.0, 0.48), fv(1.0, 2.0), fv(1.0, 2.05)];
        let r = kmeans2(&pts);
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_ne!(r.assignment[0], r.assignment[3]);
        assert!(r.representative < 3, "majority is the short-warp cluster");
    }

    #[test]
    fn empty_cluster_reseeds_deterministically() {
        // All-identical points: every point is assigned to cluster 0, so
        // cluster 1 empties on the first pass and must be re-seeded (not
        // left on a stale centroid).
        let pts = vec![fv(1.0, 1.0); 8];
        let a = kmeans2(&pts);
        let b = kmeans2(&pts);
        assert_eq!(a, b, "re-seeding must be deterministic");
        assert!(a.representative < 8);
        assert!(!a.degenerate);
        for c in &a.centroids {
            assert!(c.perf.is_finite() && c.insts.is_finite());
        }
    }

    #[test]
    fn nan_features_degrade_without_panicking() {
        let pts = vec![fv(1.0, 1.0), fv(f64::NAN, 1.0), fv(2.0, f64::INFINITY), fv(1.1, 1.0)];
        let r = kmeans2(&pts);
        assert!(r.degenerate, "non-finite features must flag the result degenerate");
        assert!(r.representative < pts.len());
    }

    #[test]
    fn cancellable_path_matches_and_honors_the_token() {
        let pts = vec![fv(0.1, 1.0), fv(0.12, 1.0), fv(2.0, 1.0), fv(2.1, 1.0)];
        let live = kmeans2_cancellable(&pts, &CancelToken::never()).unwrap();
        assert_eq!(live, kmeans2(&pts));

        let cancelled = CancelToken::never();
        cancelled.cancel();
        assert_eq!(kmeans2_cancellable(&pts, &cancelled), Err(Interrupt::Cancelled));
    }

    #[test]
    fn deterministic_across_runs() {
        let pts: Vec<FeatureVector> =
            (0..50).map(|i| fv(1.0 + (i % 7) as f64 * 0.01, 1.0 + (i % 3) as f64 * 0.1)).collect();
        assert_eq!(kmeans2(&pts), kmeans2(&pts));
    }
}
