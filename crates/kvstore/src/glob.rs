//! Redis-style glob matching for `KEYS pattern` scans.
//!
//! Supports `*` (any run of characters), `?` (any single character), and
//! literal matching. Character classes are not needed by the workflow and
//! are intentionally omitted. `Shard::keys` bounds its walk by the bytes
//! before the first `*` or `?` (`literal_prefix`); that is sound only
//! while those two are the only metacharacters, so adding one (a class,
//! an escape) means teaching `literal_prefix` where it ends.

/// Returns true when `key` matches the glob `pattern`.
///
/// Matching is iterative (no recursion) with the classic single-backtrack
/// algorithm, so pathological patterns cannot blow the stack.
pub fn glob_match(pattern: &str, key: &str) -> bool {
    let p: &[u8] = pattern.as_bytes();
    let k: &[u8] = key.as_bytes();
    let (mut pi, mut ki) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after '*', key idx)

    while ki < k.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == k[ki]) {
            pi += 1;
            ki += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi + 1, ki));
            pi += 1;
        } else if let Some((sp, sk)) = star {
            // Backtrack: let the last '*' absorb one more key byte.
            pi = sp;
            ki = sk + 1;
            star = Some((sp, sk + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// The bytes of `pattern` before its first `*` or `?`. Every key the
/// pattern matches starts with them.
pub(crate) fn literal_prefix(pattern: &str) -> &str {
    pattern.find(['*', '?']).map_or(pattern, |i| &pattern[..i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_matching() {
        assert!(glob_match("abc", "abc"));
        assert!(!glob_match("abc", "abd"));
        assert!(!glob_match("abc", "ab"));
        assert!(!glob_match("ab", "abc"));
    }

    #[test]
    fn star_matches_runs() {
        assert!(glob_match("rdf:*", "rdf:sim-00042:frame-7"));
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "abbbc"));
        assert!(glob_match("a*c", "ac"));
        assert!(!glob_match("a*c", "ab"));
    }

    #[test]
    fn question_matches_single() {
        assert!(glob_match("frame-????", "frame-0042"));
        assert!(!glob_match("frame-????", "frame-042"));
        assert!(!glob_match("?", ""));
    }

    #[test]
    fn mixed_patterns() {
        assert!(glob_match("rdf:new:*:f?", "rdf:new:sim12:f3"));
        assert!(!glob_match("rdf:new:*:f?", "rdf:done:sim12:f3"));
        assert!(glob_match("*:*:*", "a:b:c"));
        assert!(glob_match("a*b*c", "aXbYbZc"));
    }

    #[test]
    fn multiple_stars_backtrack() {
        assert!(glob_match("**a**b", "aab"));
        assert!(glob_match("*ab*ab*", "abab"));
        assert!(!glob_match("*ab*ab*ab*", "abab"));
    }

    #[test]
    fn empty_pattern_matches_only_empty_key() {
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }
}
