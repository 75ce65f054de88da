//! The decision-making stage: δ-domination dropping (Eq. 11),
//! δ-accurate Pareto classification (Eq. 12), and the diverse top-q
//! batch selection rule that generalizes Eq. 13 to concurrent
//! evaluation.

use crate::region::UncertaintyRegion;

/// Classification state of one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Not yet decided; still competing.
    Undecided,
    /// Classified as (δ-accurate) Pareto-optimal.
    Pareto,
    /// δ-dominated by another candidate; out of the race.
    Dropped,
    /// The candidate exhausted its evaluation failure budget (every tool
    /// attempt crashed, timed out, or produced unusable QoR). Terminal:
    /// never selected or evaluated again, and — like `Dropped` — it no
    /// longer influences classification, because its region is stale
    /// model speculation that can never be confirmed and would otherwise
    /// stall promotion of healthy candidates forever.
    Quarantined,
}

impl Status {
    /// `true` while the candidate still competes for the front
    /// (`Undecided` or `Pareto`).
    pub fn is_active(self) -> bool {
        matches!(self, Status::Undecided | Status::Pareto)
    }
}

/// Outcome of one decision pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionOutcome {
    /// Candidates dropped this pass.
    pub dropped: Vec<usize>,
    /// Candidates promoted to Pareto this pass.
    pub promoted: Vec<usize>,
}

/// `true` iff `a ≤ b + delta` componentwise (δ-relaxed weak dominance).
fn delta_leq(a: &[f64], b: &[f64], delta: &[f64]) -> bool {
    a.iter().zip(b).zip(delta).all(|((&x, &y), &d)| x <= y + d)
}

/// `true` iff `a ≤ b` componentwise (weak dominance; false on any NaN).
fn weakly_leq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(&x, &y)| x <= y)
}

/// Row `i` of a flat row-major `n × m` array.
fn row(flat: &[f64], m: usize, i: usize) -> &[f64] {
    &flat[i * m..(i + 1) * m]
}

/// A dominance cover of the rows `members` of the flat `n × m` array
/// `points`: a subset `C` such that every member row without a NaN is
/// weakly dominated (componentwise `<=`) by some row in `C`. Rows with a
/// NaN are left out; they can never satisfy a `<=` test anyway.
///
/// Built by sorting lexicographically under IEEE total order, so a row
/// is preceded by the rows that dominate it, and keeping each row that
/// no kept row already dominates. The result is correct whatever the
/// order (a row is either kept or dominated by a kept row); the sort
/// only keeps `C` close to the non-dominated set. O(A log A + A·|C|).
fn dominance_cover(points: &[f64], m: usize, members: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut sorted: Vec<usize> = members
        .filter(|&j| !row(points, m, j).iter().any(|v| v.is_nan()))
        .collect();
    sorted.sort_by(|&a, &b| {
        row(points, m, a)
            .iter()
            .zip(row(points, m, b))
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut cover: Vec<usize> = Vec::new();
    for j in sorted {
        let pj = row(points, m, j);
        if !cover.iter().any(|&s| weakly_leq(row(points, m, s), pj)) {
            cover.push(j);
        }
    }
    cover
}

/// `true` iff some active candidate `j` reaches the candidate under test
/// and is not excused: the existential of Eqs. 11 and 12. The members
/// of `cover` are tried first; all `n` candidates are scanned only when
/// every cover member that reaches was excused.
///
/// Exact when `cover` is a [`dominance_cover`] of the active candidates'
/// rows and `reaches` holds for any row that weakly dominates a reaching
/// row: a reaching rival then implies a reaching cover member, so no
/// reaching cover member means no reaching rival at all.
fn some_rival(
    n: usize,
    cover: &[usize],
    active: impl Fn(usize) -> bool,
    reaches: impl Fn(usize) -> bool,
    excused: impl Fn(usize) -> bool,
) -> bool {
    let mut blocked = false;
    for &s in cover {
        if reaches(s) {
            if !excused(s) {
                return true;
            }
            blocked = true;
        }
    }
    blocked && (0..n).any(|j| active(j) && reaches(j) && !excused(j))
}

/// Runs one decision pass over the candidates (Eqs. 11–12), in place.
///
/// For every undecided candidate `x`:
///
/// - **Drop** (Eq. 11) when some other active candidate `x'` satisfies
///   `max(U(x')) ≤ min(U(x)) + δ`: even `x'`'s worst case δ-dominates
///   `x`'s best case, so `x` cannot be needed for the front.
/// - **Promote** (Eq. 12) when *no* other active candidate `x'` satisfies
///   `min(U(x')) + δ ≤ max(U(x))` componentwise: no rival's best case can
///   beat `x`'s worst case by more than δ, so `x` is at most δ-worse than
///   any true Pareto point.
///
/// "Active" means `Undecided` or `Pareto` (dropped and quarantined
/// candidates no longer influence decisions). Promotion is checked after
/// dropping, as in Algorithm 1 (lines 8–9).
///
/// # Cost
///
/// Output-sensitive rather than all-pairs. Each pass tests a candidate
/// only against a [`dominance_cover`] of the rivals' corners: if no
/// cover member passes the corner comparison, no rival can, because weak
/// dominance is transitive. Only a candidate whose sole passing cover
/// members are excused (itself, or a near-duplicate it is preferred
/// over) falls back to the full scan over every rival. The decisions are
/// exactly those of the all-pairs scan (`testkit::reference::classify`,
/// pinned by a differential suite); DESIGN.md §16 gives the argument.
///
/// # Panics
///
/// Panics when `regions`, `statuses` lengths differ or a region's
/// dimension does not match `delta`.
pub fn classify(
    regions: &[UncertaintyRegion],
    statuses: &mut [Status],
    delta: &[f64],
) -> DecisionOutcome {
    assert_eq!(regions.len(), statuses.len(), "classify: length mismatch");
    let n = regions.len();
    let m = delta.len();
    let mut outcome = DecisionOutcome::default();
    if n == 0 {
        return outcome;
    }
    let mut lo = Vec::with_capacity(n * m);
    let mut hi = Vec::with_capacity(n * m);
    for r in regions {
        assert_eq!(r.dim(), m, "classify: delta dimension");
        lo.extend_from_slice(r.optimistic());
        hi.extend_from_slice(r.pessimistic());
    }

    // Pass 1: dropping (Eq. 11). Compare against the statuses as of the
    // start of the pass so the result does not depend on index order.
    // When two candidates δ-dominate each other (near-duplicates within
    // the slack), only the less preferred one drops: preference is the
    // smaller pessimistic-corner sum, then the smaller index.
    let before: Vec<Status> = statuses.to_vec();
    let sums: Vec<f64> = regions
        .iter()
        .map(|r| r.pessimistic().iter().sum())
        .collect();
    let prefer = |a: usize, b: usize| -> bool {
        match sums[a].partial_cmp(&sums[b]) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => a < b,
        }
    };
    let cover = dominance_cover(&hi, m, (0..n).filter(|&j| before[j].is_active()));
    for i in 0..n {
        if before[i] != Status::Undecided {
            continue;
        }
        let opt_i = row(&lo, m, i);
        let dominated = some_rival(
            n,
            &cover,
            |j| before[j].is_active(),
            |j| delta_leq(row(&hi, m, j), opt_i, delta),
            |j| j == i || (delta_leq(row(&hi, m, i), row(&lo, m, j), delta) && prefer(i, j)),
        );
        if dominated {
            statuses[i] = Status::Dropped;
            outcome.dropped.push(i);
        }
    }

    // Pass 2: promotion (Eq. 12), against post-drop statuses. A rival
    // `x'` might δ-dominate `x` when opt(x') + δ ≤ pess(x); the shifted
    // optimistic corners are the keys of this pass's cover.
    let after_drop: Vec<Status> = statuses.to_vec();
    let shifted: Vec<f64> = lo
        .iter()
        .zip(delta.iter().cycle())
        .map(|(&o, &d)| o + d)
        .collect();
    let cover = dominance_cover(&shifted, m, (0..n).filter(|&j| after_drop[j].is_active()));
    for i in 0..n {
        if after_drop[i] != Status::Undecided {
            continue;
        }
        let pess_i = row(&hi, m, i);
        let might_be_beaten = some_rival(
            n,
            &cover,
            |j| after_drop[j].is_active(),
            |j| weakly_leq(row(&shifted, m, j), pess_i),
            |j| j == i,
        );
        if !might_be_beaten {
            statuses[i] = Status::Pareto;
            outcome.promoted.push(i);
        }
    }
    outcome
}

/// One pick of the diversity-penalized batch selection rule.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPick {
    /// Candidate index.
    pub index: usize,
    /// Uncertainty-region diameter at selection time (Eq. 13 criterion).
    pub diameter: f64,
    /// Greedy score `diam · (1 − γ·red)` at the moment of the pick. The
    /// first pick is unpenalized (`score == diameter`); scores are
    /// non-increasing along the batch.
    pub score: f64,
}

/// Redundancy of candidate `i` against an already-picked `j`: the larger
/// of a parameter-space proximity term (`1 − dist/r`, clamped at 0) and a
/// dominance-shadow term (1 when `j`'s pessimistic corner weakly
/// dominates `i`'s optimistic corner — evaluating `j` is expected to
/// settle `i`'s fate, so spending a second license on `i` is wasteful).
fn pair_redundancy(
    candidates: &[Vec<f64>],
    regions: &[UncertaintyRegion],
    i: usize,
    j: usize,
    radius: f64,
) -> f64 {
    let shadowed = regions[j]
        .pessimistic()
        .iter()
        .zip(regions[i].optimistic())
        .all(|(&pj, &oi)| pj <= oi);
    if shadowed {
        return 1.0;
    }
    let dist = candidates[i]
        .iter()
        .zip(&candidates[j])
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    (1.0 - dist / radius).max(0.0)
}

/// Selects a diverse batch of up to `q` candidates for evaluation — the
/// concurrent generalization of the paper's Eq. 13.
///
/// Eligible candidates are active (`Undecided` or `Pareto`), not yet
/// evaluated, and have a positive region diameter. Picks are made
/// greedily: each step takes the eligible candidate maximizing
/// `score = diam · (1 − γ·red)`, where `red` is the candidate's maximal
/// [`pair_redundancy`] against the members picked so far and
/// `γ = diversity` scales the penalty. The first pick has `red = 0`, so
/// `q = 1` reduces exactly to argmax-diameter — the paper's rule.
///
/// Ties are broken deterministically by lexicographically minimizing
/// `(−score, red, −diameter, index)` under IEEE total order, pinning the
/// result bit-for-bit for golden traces and the brute-force reference in
/// `testkit`.
///
/// # Panics
///
/// Panics when the input slice lengths disagree. `diversity` must lie in
/// `[0, 1)` and `radius` must be positive; both are validated by
/// `PpaTunerConfig::validate` before reaching this function.
pub fn select_batch(
    candidates: &[Vec<f64>],
    regions: &[UncertaintyRegion],
    statuses: &[Status],
    evaluated: &[bool],
    q: usize,
    diversity: f64,
    radius: f64,
) -> Vec<BatchPick> {
    assert_eq!(
        candidates.len(),
        regions.len(),
        "select_batch: length mismatch"
    );
    assert_eq!(
        candidates.len(),
        statuses.len(),
        "select_batch: length mismatch"
    );
    assert_eq!(
        candidates.len(),
        evaluated.len(),
        "select_batch: length mismatch"
    );
    let eligible: Vec<(usize, f64)> = (0..candidates.len())
        .filter(|&i| statuses[i].is_active() && !evaluated[i])
        .map(|i| (i, regions[i].diameter()))
        .filter(|&(_, d)| d > 0.0)
        .collect();
    let k = q.min(eligible.len());
    // Running redundancy vs the picked set: max is order-insensitive, so
    // updating incrementally is bit-identical to a fresh max over members.
    let mut red = vec![0.0_f64; eligible.len()];
    let mut taken = vec![false; eligible.len()];
    let mut picks = Vec::with_capacity(k);
    for _ in 0..k {
        let mut best: Option<(f64, f64, f64, usize, usize)> = None;
        for (pos, &(i, diam)) in eligible.iter().enumerate() {
            if taken[pos] {
                continue;
            }
            let score = diam * (1.0 - diversity * red[pos]);
            let key = (score, red[pos], diam, i, pos);
            let wins = match best {
                None => true,
                Some((bs, br, bd, bi, _)) => match score.total_cmp(&bs) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => match red[pos].total_cmp(&br) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => match diam.total_cmp(&bd) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Less => false,
                            std::cmp::Ordering::Equal => i < bi,
                        },
                    },
                },
            };
            if wins {
                best = Some(key);
            }
        }
        let (score, _, diameter, index, pos) = best.expect("k ≤ eligible.len()");
        taken[pos] = true;
        for (p, &(j, _)) in eligible.iter().enumerate() {
            if !taken[p] {
                let r = pair_redundancy(candidates, regions, j, index, radius);
                if r > red[p] {
                    red[p] = r;
                }
            }
        }
        picks.push(BatchPick {
            index,
            diameter,
            score,
        });
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(v: &[f64]) -> UncertaintyRegion {
        UncertaintyRegion::point(v)
    }

    fn boxed(lo: &[f64], hi: &[f64]) -> UncertaintyRegion {
        let mut u = UncertaintyRegion::unbounded(lo.len());
        u.intersect(lo, hi);
        u
    }

    #[test]
    fn exact_points_reduce_to_pareto_logic() {
        // (1,4), (2,2), (4,1) front; (3,3) dominated by (2,2).
        let regions = vec![
            pt(&[1.0, 4.0]),
            pt(&[2.0, 2.0]),
            pt(&[4.0, 1.0]),
            pt(&[3.0, 3.0]),
        ];
        let mut statuses = vec![Status::Undecided; 4];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![3]);
        assert_eq!(statuses[0], Status::Pareto);
        assert_eq!(statuses[1], Status::Pareto);
        assert_eq!(statuses[2], Status::Pareto);
        assert_eq!(statuses[3], Status::Dropped);
    }

    #[test]
    fn uncertain_candidates_stay_undecided() {
        // A wide box overlapping the known point: neither droppable nor
        // promotable.
        let regions = vec![pt(&[2.0, 2.0]), boxed(&[1.0, 1.0], &[4.0, 4.0])];
        let mut statuses = vec![Status::Undecided; 2];
        classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(statuses[1], Status::Undecided);
        // The known point cannot be promoted either: the box's optimistic
        // corner (1,1) dominates it.
        assert_eq!(statuses[0], Status::Undecided);
    }

    #[test]
    fn clearly_bad_box_is_dropped() {
        // Box entirely dominated by the point even in its best case.
        let regions = vec![pt(&[1.0, 1.0]), boxed(&[3.0, 3.0], &[5.0, 5.0])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![1]);
        // With the rival gone, the point is promoted.
        assert_eq!(statuses[0], Status::Pareto);
    }

    #[test]
    fn delta_relaxation_drops_near_duplicates() {
        // (2.05, 2.05) is within δ = 0.1 of (2, 2): dropped.
        let regions = vec![pt(&[2.0, 2.0]), pt(&[2.05, 2.05])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.1, 0.1]);
        assert_eq!(out.dropped, vec![1]);
        assert_eq!(statuses[0], Status::Pareto);
    }

    #[test]
    fn identical_points_keep_first() {
        let regions = vec![pt(&[2.0, 2.0]), pt(&[2.0, 2.0])];
        let mut statuses = vec![Status::Undecided; 2];
        classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(statuses[0], Status::Pareto);
        assert_eq!(statuses[1], Status::Dropped);
    }

    #[test]
    fn dropped_candidates_do_not_influence() {
        // A dominating rival that is already dropped must not drop others.
        let regions = vec![pt(&[1.0, 1.0]), pt(&[2.0, 2.0])];
        let mut statuses = vec![Status::Dropped, Status::Undecided];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert!(out.dropped.is_empty());
        assert_eq!(statuses[1], Status::Pareto);
    }

    #[test]
    fn incomparable_points_all_promote() {
        let regions = vec![pt(&[1.0, 4.0]), pt(&[4.0, 1.0])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.promoted.len(), 2);
    }

    #[test]
    fn empty_input_is_noop() {
        let out = classify(&[], &mut [], &[0.0]);
        assert!(out.dropped.is_empty() && out.promoted.is_empty());
    }

    #[test]
    fn quarantined_candidates_neither_influence_nor_change() {
        // The quarantined candidate's stale region would dominate
        // everything if it still counted as a rival; it must not.
        let regions = vec![pt(&[1.0, 1.0]), pt(&[2.0, 2.0]), pt(&[2.5, 2.5])];
        let mut statuses = vec![Status::Quarantined, Status::Undecided, Status::Undecided];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        // Candidate 1 dominates candidate 2 but not vice versa.
        assert_eq!(statuses[0], Status::Quarantined, "quarantine is terminal");
        assert_eq!(statuses[1], Status::Pareto);
        assert_eq!(statuses[2], Status::Dropped);
        assert!(!out.promoted.contains(&0));
        assert!(!out.dropped.contains(&0));
    }

    #[test]
    fn pareto_members_still_drop_rivals() {
        // An already-promoted candidate keeps suppressing dominated ones.
        let regions = vec![pt(&[1.0, 1.0]), pt(&[3.0, 3.0])];
        let mut statuses = vec![Status::Pareto, Status::Undecided];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![1]);
    }

    #[test]
    fn narrow_box_never_drops_itself() {
        // Width ≤ δ: the box's own pessimistic corner δ-dominates its
        // optimistic one, and it is the only cover member that does. The
        // incomparable rival cannot drop it, so it must stay.
        let regions = vec![
            boxed(&[1.0, 1.0], &[1.05, 1.05]),
            boxed(&[0.5, 2.0], &[0.6, 3.0]),
        ];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.1, 0.1]);
        assert!(out.dropped.is_empty(), "{out:?}");
        assert_eq!(statuses[0], Status::Pareto);
    }

    #[test]
    fn self_covered_box_is_still_dropped_by_a_dominated_rival() {
        // The narrow box 0 covers the wide box 1's pessimistic corner, so
        // 0 is the only cover member — and it is excused against itself.
        // Rival 1 still drops it: 1's worst case (1.05) is within δ of
        // 0's best case (1.0), and 0's worst case is not within δ of 1's
        // best case (0.5), so the near-duplicate exception does not apply.
        let regions = vec![boxed(&[1.0], &[1.02]), boxed(&[0.5], &[1.05])];
        let mut statuses = vec![Status::Undecided, Status::Pareto];
        let out = classify(&regions, &mut statuses, &[0.1]);
        assert_eq!(out.dropped, vec![0]);
    }

    #[test]
    fn excused_cover_member_does_not_hide_a_non_cover_rival() {
        // Cover of the pessimistic corners: {1, 0}. Member 1 δ-dominates
        // 0 but is excused (mutual near-duplicates, 0 has the smaller
        // sum); member 0 is excused against itself. Rival 2 sits behind
        // member 1, outside the cover, and drops 0 outright.
        let regions = vec![
            pt(&[1.05, 0.9]),
            pt(&[1.0, 1.0]),
            boxed(&[0.5, 1.0], &[1.1, 1.0]),
        ];
        let mut statuses = vec![Status::Undecided, Status::Pareto, Status::Pareto];
        let out = classify(&regions, &mut statuses, &[0.1, 0.1]);
        assert_eq!(out.dropped, vec![0]);
        // Without rival 2 the exception holds and 0 stays in the race.
        let mut statuses = vec![Status::Undecided, Status::Pareto];
        let out = classify(&regions[..2], &mut statuses, &[0.1, 0.1]);
        assert!(out.dropped.is_empty(), "{out:?}");
    }

    #[test]
    fn self_covered_box_is_not_promoted_past_a_dominated_rival() {
        // Box 0's optimistic corner dominates point 1's, so 0 is the only
        // cover member of the promotion pass and the only one under its
        // own pessimistic corner. Point 1's best case still beats 0's
        // worst case, so 0 must stay undecided.
        let regions = vec![boxed(&[0.0, 0.0], &[2.0, 2.0]), pt(&[1.0, 1.0])];
        let mut statuses = vec![Status::Undecided, Status::Pareto];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert!(out.promoted.is_empty() && out.dropped.is_empty(), "{out:?}");
        assert_eq!(statuses[0], Status::Undecided);
    }

    #[test]
    fn nan_bounds_never_drop_or_block() {
        // Candidate 0 would dominate everything in its finite coordinate,
        // but a NaN bound makes every comparison against it false: it
        // neither drops nor blocks the promotion of candidate 1, and it
        // cannot be dropped itself.
        let regions = vec![pt(&[f64::NAN, 0.0]), pt(&[1.0, 1.0]), pt(&[2.0, 2.0])];
        let mut statuses = vec![Status::Undecided; 3];
        let out = classify(&regions, &mut statuses, &[0.0, 0.0]);
        assert_eq!(out.dropped, vec![2], "only the finite rival drops 2");
        assert_eq!(
            statuses,
            vec![Status::Pareto, Status::Pareto, Status::Dropped]
        );
    }

    #[test]
    fn near_duplicate_preference_sums_in_coordinate_order() {
        // Mutual near-duplicates under δ = (0.5, 0, 0). Summed in
        // coordinate order both pessimistic corners cancel to 0 (the 1
        // and the 0.5 are absorbed by 2^53), so the tie goes to the lower
        // index and candidate 1 drops. Summed in any other order the sums
        // would be 1 and 0.5 and candidate 0 would drop instead.
        let big = 2.0_f64.powi(53);
        let regions = vec![pt(&[1.0, big, -big]), pt(&[0.5, big, -big])];
        let mut statuses = vec![Status::Undecided; 2];
        let out = classify(&regions, &mut statuses, &[0.5, 0.0, 0.0]);
        assert_eq!(out.dropped, vec![1]);
    }

    fn far_points(n: usize) -> Vec<Vec<f64>> {
        // Pairwise distances ≥ 10: the proximity term never fires.
        (0..n).map(|i| vec![10.0 * i as f64, 0.0]).collect()
    }

    /// Boxes whose corners are mutually incomparable, so the dominance
    /// shadow never fires either.
    fn staircase_boxes(diams: &[f64]) -> Vec<UncertaintyRegion> {
        diams
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let side = d / (2.0_f64).sqrt();
                let base = 10.0 * i as f64;
                boxed(&[base, -base - side], &[base + side, -base])
            })
            .collect()
    }

    #[test]
    fn q1_is_argmax_diameter_with_smallest_index_ties() {
        let regions = staircase_boxes(&[0.5, 2.0, 2.0, 1.0]);
        let cands = far_points(4);
        let statuses = vec![Status::Undecided; 4];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 4], 1, 0.5, 0.25);
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].index, 1, "largest diameter, smallest index on tie");
        assert_eq!(picks[0].score, picks[0].diameter, "first pick unpenalized");
    }

    #[test]
    fn distant_candidates_rank_purely_by_diameter() {
        let regions = staircase_boxes(&[0.5, 2.0, 1.5, 1.0]);
        let cands = far_points(4);
        let statuses = vec![Status::Undecided; 4];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 4], 3, 0.9, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![1, 2, 3]);
        for w in picks.windows(2) {
            assert!(w[0].score >= w[1].score, "scores non-increasing");
        }
    }

    #[test]
    fn nearby_duplicate_is_penalized_in_favor_of_a_diverse_pick() {
        // Candidates 0 and 1 are colocated with the two longest
        // diameters; candidate 2 is far away and slightly shorter. With a
        // strong penalty the batch should be {0, 2}, not {0, 1}.
        let cands = vec![vec![0.0, 0.0], vec![0.01, 0.0], vec![5.0, 5.0]];
        let regions = vec![
            boxed(&[0.0, 0.0], &[2.0, 0.0]),
            boxed(&[10.0, -3.0], &[11.9, -3.0]),
            boxed(&[-5.0, 3.0], &[-3.2, 3.0]),
        ];
        let statuses = vec![Status::Undecided; 3];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.9, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 2]);
        // With the penalty off, pure diameters win.
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.0, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn dominance_shadow_counts_as_redundancy() {
        // Candidate 1's region sits entirely below candidate 2's: once 1
        // is measured, 2's fate is likely settled, so 2 is penalized even
        // though the two are far apart in parameter space.
        let cands = far_points(3);
        let regions = vec![
            boxed(&[0.0, 0.0], &[3.0, 0.0]),
            boxed(&[0.0, 5.0], &[2.0, 5.0]),
            boxed(&[3.5, 0.5], &[3.5, 3.3]),
        ];
        let statuses = vec![Status::Undecided; 3];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.9, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 1], "shadowed candidate 2 loses to diverse 1");
        // Without the penalty, 2's larger diameter would have won.
        let picks = select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.0, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn ineligible_candidates_are_never_picked() {
        let cands = far_points(5);
        let regions = staircase_boxes(&[3.0, 2.9, 2.8, 2.7, 0.0]);
        let statuses = vec![
            Status::Dropped,
            Status::Quarantined,
            Status::Undecided,
            Status::Pareto,
            Status::Undecided,
        ];
        let mut evaluated = vec![false; 5];
        evaluated[3] = true;
        // Dropped, quarantined, evaluated, and zero-diameter candidates
        // are all excluded; only candidate 2 remains.
        let picks = select_batch(&cands, &regions, &statuses, &evaluated, 4, 0.5, 0.25);
        let idx: Vec<usize> = picks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![2]);
    }

    #[test]
    fn batch_never_exceeds_q_or_eligibility() {
        let cands = far_points(3);
        let regions = staircase_boxes(&[1.0, 2.0, 3.0]);
        let statuses = vec![Status::Undecided; 3];
        assert_eq!(
            select_batch(&cands, &regions, &statuses, &[false; 3], 0, 0.5, 0.25).len(),
            0
        );
        assert_eq!(
            select_batch(&cands, &regions, &statuses, &[false; 3], 2, 0.5, 0.25).len(),
            2
        );
        assert_eq!(
            select_batch(&cands, &regions, &statuses, &[false; 3], 9, 0.5, 0.25).len(),
            3
        );
    }

    #[test]
    fn unbounded_regions_keep_infinite_priority() {
        let cands = far_points(2);
        let regions = vec![
            UncertaintyRegion::unbounded(2),
            staircase_boxes(&[5.0])[0].clone(),
        ];
        let statuses = vec![Status::Undecided; 2];
        let picks = select_batch(&cands, &regions, &statuses, &[false; 2], 2, 0.5, 0.25);
        assert_eq!(picks[0].index, 0);
        assert!(picks[0].diameter.is_infinite() && picks[0].score.is_infinite());
        assert_eq!(picks[1].index, 1);
    }
}
