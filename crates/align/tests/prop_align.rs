//! Property-based tests for the alignment substrate.

use align::sw::{smith_waterman, ScoringScheme};
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sw_score_symmetric(a in dna(0..60), b in dna(0..60)) {
        let s = ScoringScheme::default();
        let ab = smith_waterman(&a, &b, s);
        let ba = smith_waterman(&b, &a, s);
        // Scores are symmetric; column counts may differ between
        // co-optimal paths, so only the score is asserted.
        prop_assert_eq!(ab.score, ba.score);
    }

    #[test]
    fn sw_self_alignment_is_perfect(a in dna(1..80)) {
        let al = smith_waterman(&a, &a, ScoringScheme::default());
        prop_assert_eq!(al.matches, a.len());
        prop_assert_eq!(al.mismatches, 0);
        prop_assert_eq!(al.gaps, 0);
        prop_assert_eq!(al.score, 5 * a.len() as i32);
        prop_assert!((al.identity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sw_score_bounds(a in dna(0..60), b in dna(0..60)) {
        let al = smith_waterman(&a, &b, ScoringScheme::default());
        prop_assert!(al.score >= 0);
        prop_assert!(al.score <= 5 * a.len().min(b.len()) as i32);
        // Spans lie within the sequences.
        prop_assert!(al.query_span.1 <= a.len());
        prop_assert!(al.target_span.1 <= b.len());
        prop_assert!(al.query_span.0 <= al.query_span.1);
    }

    #[test]
    fn sw_substring_fully_covered(a in dna(20..80), start in 0usize..10, len in 8usize..15) {
        prop_assume!(start + len <= a.len());
        let sub = a[start..start + len].to_vec();
        let al = smith_waterman(&sub, &a, ScoringScheme::default());
        prop_assert_eq!(al.matches, len);
        prop_assert_eq!(al.score, 5 * len as i32);
        prop_assert!((al.query_coverage(len) - 1.0).abs() < 1e-12);
    }
}
