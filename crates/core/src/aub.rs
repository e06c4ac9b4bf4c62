//! The Aperiodic Utilization Bound (AUB) schedulability condition.
//!
//! From Abdelzaher, Thaker & Lardieri (ICDCS 2004), as used by the paper's
//! admission controller (eq. 1): under End-to-end Deadline Monotonic
//! Scheduling a task `T_i` visiting processors `V_{i,1} … V_{i,n_i}` meets
//! its end-to-end deadline if
//!
//! ```text
//!   Σ_j  U_{V_ij} · (1 − U_{V_ij}/2) / (1 − U_{V_ij})  ≤  1
//! ```
//!
//! where `U_p` is the *synthetic utilization* of processor `p`: the sum of
//! `C/D` contributions of all current tasks' subtasks on `p`. The condition
//! must hold for **every** current task (and the candidate) for an arrival
//! to be admitted. AUB deliberately does not distinguish aperiodic from
//! periodic tasks; both flow through the same test.
//!
//! # Examples
//!
//! ```
//! use rtcm_core::aub::{aub_term, bound_lhs};
//!
//! // A two-stage task across processors at synthetic utilization 0.3:
//! assert!(bound_lhs([0.3, 0.3]) <= 1.0);
//! // ... but not at 0.5 (f(0.5) = 0.75, and 2 × 0.75 > 1):
//! assert!(bound_lhs([0.5, 0.5]) > 1.0);
//! assert!((aub_term(0.5) - 0.75).abs() < 1e-12);
//! ```

/// Numerical slack applied to the `≤ 1` comparison so that workloads sized
/// exactly at the bound are not rejected by floating-point noise.
pub const BOUND_EPSILON: f64 = 1e-9;

/// The per-processor term `f(U) = U(1 − U/2)/(1 − U)` of the AUB condition.
///
/// `f` is zero at zero, increasing, and diverges as `U → 1`; for `U ≥ 1`
/// this returns `f64::INFINITY` so that any task visiting a saturated
/// processor fails the bound. Negative inputs (which can only arise from
/// floating-point drift in callers) are clamped to zero.
#[must_use]
pub fn aub_term(u: f64) -> f64 {
    if u <= 0.0 {
        return 0.0;
    }
    if u >= 1.0 {
        return f64::INFINITY;
    }
    u * (1.0 - u / 2.0) / (1.0 - u)
}

/// Evaluates the left-hand side of the AUB condition for one task: the sum
/// of [`aub_term`] over the synthetic utilizations of the processors the
/// task visits (with multiplicity — a task visiting a processor twice counts
/// its term twice, matching eq. 1's per-subtask sum).
#[must_use]
pub fn bound_lhs(utilizations: impl IntoIterator<Item = f64>) -> f64 {
    utilizations.into_iter().map(aub_term).sum()
}

/// The change `f(u_new) − f(u_old)` a processor's utilization step
/// contributes to the AUB sum of every task visiting it — the delta the
/// incremental admission path applies to its cached per-entry sums.
///
/// Not finite when either side is at or above saturation (`u ≥ 1`, where
/// `f` is `∞`): `∞ − ∞` has no meaningful value, so callers must fall back
/// to recomputing affected sums from scratch whenever this returns a
/// non-finite delta. The convenient special case `u_old == u_new` (both
/// saturated or not) returns `0.0`.
///
/// **Numerical caveat:** even a finite delta loses precision to
/// cancellation when either term is huge (just below saturation `f`
/// reaches ~1e15, where the spacing between representable values is
/// ~0.25). Incremental maintainers should recompute rather than
/// delta-apply once `f` exceeds a comfortable magnitude — the admission
/// controller uses 1e4, bounding the per-application error near 2e-12.
#[must_use]
pub(crate) fn aub_delta(u_old: f64, u_new: f64) -> f64 {
    if u_old == u_new {
        return 0.0;
    }
    aub_term(u_new) - aub_term(u_old)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-processor utilization at which `f(U) = 1`, i.e. the
    /// largest synthetic utilization a one-stage task may observe and still
    /// pass: `2 − √2 ≈ 0.586`, the classic aperiodic utilization bound.
    const SINGLE_STAGE_BOUND: f64 = 2.0 - std::f64::consts::SQRT_2;

    fn passes(utilizations: impl IntoIterator<Item = f64>) -> bool {
        bound_lhs(utilizations) <= 1.0 + BOUND_EPSILON
    }

    #[test]
    fn term_at_known_points() {
        assert_eq!(aub_term(0.0), 0.0);
        assert!((aub_term(0.5) - 0.75).abs() < 1e-12);
        // f(2 - sqrt(2)) = 1 exactly (algebraically).
        assert!((aub_term(SINGLE_STAGE_BOUND) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn term_is_monotonic() {
        let mut prev = 0.0;
        for i in 1..100 {
            let u = f64::from(i) / 101.0;
            let f = aub_term(u);
            assert!(f > prev, "f({u}) = {f} not increasing");
            prev = f;
        }
    }

    #[test]
    fn saturated_processor_fails_everything() {
        assert_eq!(aub_term(1.0), f64::INFINITY);
        assert_eq!(aub_term(1.5), f64::INFINITY);
        assert!(!passes([0.0, 1.0]));
    }

    #[test]
    fn negative_drift_clamps_to_zero() {
        assert_eq!(aub_term(-1e-15), 0.0);
    }

    #[test]
    fn empty_visit_list_is_trivially_schedulable() {
        assert!(passes(std::iter::empty()));
        assert_eq!(bound_lhs(std::iter::empty()), 0.0);
    }

    #[test]
    fn single_stage_bound_is_the_crossover() {
        let b = SINGLE_STAGE_BOUND;
        assert!(passes([b - 1e-6]));
        assert!(!passes([b + 1e-6]));
    }

    #[test]
    fn multiplicity_counts_per_subtask() {
        // Two subtasks on the same processor at U = 0.4: the term is summed
        // twice, per eq. 1's per-subtask indexing.
        let one = bound_lhs([0.4]);
        let twice = bound_lhs([0.4, 0.4]);
        assert!((twice - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn delta_tracks_term_difference() {
        let d = aub_delta(0.2, 0.5);
        assert!((d - (aub_term(0.5) - aub_term(0.2))).abs() < 1e-15);
        assert_eq!(aub_delta(0.3, 0.3), 0.0);
        // Entering or leaving saturation cannot be expressed as a finite
        // delta; callers recompute instead.
        assert_eq!(aub_delta(0.5, 1.0), f64::INFINITY);
        assert_eq!(aub_delta(1.0, 0.5), f64::NEG_INFINITY);
        assert!(!aub_delta(1.0, 1.5).is_finite() || aub_delta(1.0, 1.5) == 0.0);
        // Equal saturated inputs short-circuit to zero rather than NaN.
        assert_eq!(aub_delta(1.2, 1.2), 0.0);
    }

    #[test]
    fn epsilon_tolerates_exact_boundary() {
        // A sum that is exactly 1 up to floating error must pass.
        let u = SINGLE_STAGE_BOUND;
        assert!(passes([u]));
    }
}
