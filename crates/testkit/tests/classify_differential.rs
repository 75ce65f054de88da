//! Differential fuzz: the output-sensitive `ppatuner::classify` against
//! the all-pairs reference scan, bit-for-bit, over ≥1000 seeded cases.
//!
//! Each case draws a random classification problem from
//! [`gen::classify_case`] — tie-heavy grid coordinates, duplicate and
//! permuted regions, points, ±∞ and NaN bounds, −0.0, all four statuses,
//! δ = 0 and grid-aligned δ — and runs both implementations on copies of
//! the same statuses. The resulting statuses and both `DecisionOutcome`
//! lists (contents and order) must be identical. The `#[ignore]`d deep
//! variant runs 10× the cases; CI runs it in the `--include-ignored` step.

use testkit::gen;
use testkit::reference;

const CASES: u64 = 1500;

/// Seed offset separating this suite's case stream from the other
/// differential suites that share `testkit::test_seed()`.
const SUITE: u64 = 0xc1a5_5f1e;

fn check_cases(cases: u64) {
    for case in 0..cases {
        let mut rng = gen::case_rng(testkit::test_seed() ^ SUITE, case);
        // Mostly small pools (every corner interaction is reachable),
        // with every eighth case large enough for a multi-member cover.
        let max_n = if case % 8 == 7 { 64 } else { 16 };
        let input = gen::classify_case(&mut rng, max_n);
        let mut fast = input.statuses.clone();
        let mut naive = input.statuses.clone();
        let fast_out = ppatuner::classify(&input.regions, &mut fast, &input.delta);
        let naive_out = reference::classify(&input.regions, &mut naive, &input.delta);
        assert!(
            fast == naive && fast_out == naive_out,
            "classify mismatch in case {case}:\n  fast      {fast_out:?}\n  reference \
             {naive_out:?}\nreplay: gen::case_rng(testkit::test_seed() ^ {SUITE:#x}, {case})\n\
             input: {input:#?}"
        );
    }
}

#[test]
fn classify_matches_reference() {
    check_cases(CASES);
}

// --- deep stress variant (nightly-style: `cargo test -- --include-ignored`)

#[test]
#[ignore = "10x-depth stress suite, run via --include-ignored"]
fn classify_matches_reference_deep() {
    check_cases(10 * CASES);
}
