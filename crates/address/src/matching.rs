//! Fuzzy string matching for suggestion-list resolution.
//!
//! When an ISP's BAT rejects an input address it offers a list of candidate
//! addresses; BQT picks the best match offline (§3.3). We provide the three
//! standard similarity measures and a combined matcher that normalizes both
//! sides first. The bench crate ablates the three measures against each
//! other.

use crate::abbrev::normalize_line;

/// Levenshtein edit distance (insertions, deletions, substitutions).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Single-row dynamic program.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { 0 } else { 1 };
            let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// Levenshtein similarity in `[0, 1]`: `1 - distance / max_len`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches += 1;
                a_matched.push(ca);
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let b_matched: Vec<char> = b
        .iter()
        .zip(b_used.iter())
        .filter(|&(_, &u)| u)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = a_matched
        .iter()
        .zip(b_matched.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity: Jaro boosted by common-prefix length (up to 4
/// chars, standard scaling 0.1).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Token-sort similarity: normalizes, sorts tokens, then applies
/// Levenshtein similarity — immune to token reordering like
/// `"Ter Evergreen 742"` vs `"742 Evergreen Ter"`.
pub fn token_sort_similarity(a: &str, b: &str) -> f64 {
    sorted_token_similarity(&normalize_line(a), &normalize_line(b))
}

/// [`token_sort_similarity`] of two already-normalized lines.
fn sorted_token_similarity(a: &str, b: &str) -> f64 {
    let sorted = |line: &str| {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        tokens.sort_unstable();
        tokens.join(" ")
    };
    levenshtein_similarity(&sorted(a), &sorted(b))
}

/// Which similarity measure a matcher uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    Levenshtein,
    JaroWinkler,
    TokenSort,
}

/// Scores `input` against `candidate` with `measure`, after normalizing
/// both sides.
pub fn similarity(measure: Measure, input: &str, candidate: &str) -> f64 {
    normalized_similarity(measure, &normalize_line(input), &normalize_line(candidate))
}

/// [`similarity`] of two already-normalized lines.
fn normalized_similarity(measure: Measure, a: &str, b: &str) -> f64 {
    match measure {
        Measure::Levenshtein => levenshtein_similarity(a, b),
        Measure::JaroWinkler => jaro_winkler(a, b),
        Measure::TokenSort => sorted_token_similarity(a, b),
    }
}

/// Picks the best-scoring candidate at or above `threshold`.
///
/// Returns `(index, score)` of the winner, or `None` if nothing clears the
/// threshold. Ties break toward the earliest candidate, which matches how a
/// human would take the first plausible suggestion.
pub fn best_match(
    measure: Measure,
    input: &str,
    candidates: &[String],
    threshold: f64,
) -> Option<(usize, f64)> {
    let input = normalize_line(input);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let s = normalized_similarity(measure, &input, &normalize_line(c));
        if s >= threshold && best.is_none_or(|(_, bs)| s > bs) {
            best = Some((i, s));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        for (a, b) in [
            ("evergreen", "evergren"),
            ("main st", "maine st"),
            ("a", "xyz"),
        ] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn jaro_known_values() {
        assert!((jaro("MARTHA", "MARHTA") - 0.9444).abs() < 1e-3);
        assert!((jaro("DIXON", "DICKSONX") - 0.7667).abs() < 1e-3);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw - 0.9611).abs() < 1e-3);
        assert!(jw > jaro("MARTHA", "MARHTA"));
    }

    #[test]
    fn jaro_winkler_identical_is_one() {
        assert_eq!(jaro_winkler("742 evergreen ter", "742 evergreen ter"), 1.0);
    }

    #[test]
    fn token_sort_ignores_word_order() {
        let s = token_sort_similarity("742 Evergreen Ter", "Ter Evergreen 742");
        assert_eq!(s, 1.0);
    }

    #[test]
    fn token_sort_unifies_abbreviations() {
        let s = token_sort_similarity("742 Evergreen Terrace", "742 Evergreen Ter");
        assert_eq!(s, 1.0);
    }

    #[test]
    fn best_match_finds_abbreviation_variant() {
        let candidates = vec![
            "740 Evergreen Ter, New Orleans, LA 70118".to_string(),
            "742 Evergreen Ter, New Orleans, LA 70118".to_string(),
            "742 Everett St, New Orleans, LA 70118".to_string(),
        ];
        let (idx, score) = best_match(
            Measure::TokenSort,
            "742 Evergreen Terrace, New Orleans, LA 70118",
            &candidates,
            0.8,
        )
        .unwrap();
        assert_eq!(idx, 1);
        assert!(score > 0.95);
    }

    #[test]
    fn best_match_respects_threshold() {
        let candidates = vec!["totally different place".to_string()];
        assert_eq!(
            best_match(Measure::Levenshtein, "742 Evergreen Ter", &candidates, 0.8),
            None
        );
    }

    #[test]
    fn best_match_survives_typos() {
        let candidates = vec![
            "1200 Canal St, New Orleans, LA 70112".to_string(),
            "1200 Carrollton Ave, New Orleans, LA 70118".to_string(),
        ];
        // "Cnal" typo: dropped letter.
        let (idx, _) = best_match(
            Measure::JaroWinkler,
            "1200 Cnal St, New Orleans, LA 70112",
            &candidates,
            0.8,
        )
        .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn empty_candidate_list_matches_nothing() {
        assert_eq!(best_match(Measure::TokenSort, "x", &[], 0.0), None);
    }

    #[test]
    fn all_measures_are_bounded() {
        for (a, b) in [
            ("abc", "abd"),
            ("", "x"),
            ("1 Main St", "999 Elm Ave Apt 4"),
        ] {
            for m in [
                Measure::Levenshtein,
                Measure::JaroWinkler,
                Measure::TokenSort,
            ] {
                let s = similarity(m, a, b);
                assert!((0.0..=1.0).contains(&s), "{m:?} {a:?} {b:?} -> {s}");
            }
        }
    }
}
