//! Generator for the regex subset proptest accepts as a string
//! strategy.
//!
//! Supported syntax — enough for every pattern in this workspace:
//! literal characters, character classes `[a-zA-Z0-9 ]` (ranges and
//! singles, no negation), groups `(...)`, and the repetition suffixes
//! `{m}`, `{m,n}`, `?`, `*`, `+` (the unbounded forms are capped at 8
//! repeats). Alternation is not implemented; patterns using it panic so
//! the gap is loud rather than silently misgenerated.

use crate::test_runner::TestRng;
use std::iter::Peekable;
use std::str::Chars;

enum Atom {
    Lit(char),
    /// Inclusive (start, end) ranges; singles are (c, c).
    Class(Vec<(char, char)>),
    Group(Vec<Piece>),
}

struct Piece {
    atom: Atom,
    min: u32,
    max: u32,
}

/// Generates one string matching `pattern`.
pub fn generate(pattern: &str, rng: &mut TestRng) -> String {
    let pieces = parse_seq(&mut pattern.chars().peekable(), pattern, false);
    let mut out = String::new();
    emit_seq(&pieces, rng, &mut out);
    out
}

fn emit_seq(pieces: &[Piece], rng: &mut TestRng, out: &mut String) {
    for piece in pieces {
        let n = piece.min + rng.below((piece.max - piece.min + 1) as u64) as u32;
        for _ in 0..n {
            match &piece.atom {
                Atom::Lit(c) => out.push(*c),
                Atom::Class(ranges) => out.push(pick_class(ranges, rng)),
                Atom::Group(inner) => emit_seq(inner, rng, out),
            }
        }
    }
}

fn pick_class(ranges: &[(char, char)], rng: &mut TestRng) -> char {
    let total: u64 = ranges
        .iter()
        .map(|(a, b)| (*b as u64) - (*a as u64) + 1)
        .sum();
    let mut pick = rng.below(total);
    for (a, b) in ranges {
        let span = (*b as u64) - (*a as u64) + 1;
        if pick < span {
            return char::from_u32(*a as u32 + pick as u32)
                .expect("class range stays in scalar values");
        }
        pick -= span;
    }
    unreachable!("class pick out of range")
}

fn parse_seq(chars: &mut Peekable<Chars>, pattern: &str, in_group: bool) -> Vec<Piece> {
    let mut pieces = Vec::new();
    while let Some(&c) = chars.peek() {
        match c {
            ')' if in_group => {
                chars.next();
                return pieces;
            }
            '(' => {
                chars.next();
                let inner = parse_seq(chars, pattern, true);
                pieces.push(with_repeat(Atom::Group(inner), chars, pattern));
            }
            '[' => {
                chars.next();
                let class = parse_class(chars, pattern);
                pieces.push(with_repeat(Atom::Class(class), chars, pattern));
            }
            '|' => panic!("string pattern {pattern:?}: alternation is not supported by the offline proptest stub"),
            '\\' => {
                chars.next();
                let escaped = chars.next().unwrap_or_else(|| panic!("string pattern {pattern:?}: trailing backslash"));
                pieces.push(with_repeat(Atom::Lit(escaped), chars, pattern));
            }
            _ => {
                chars.next();
                pieces.push(with_repeat(Atom::Lit(c), chars, pattern));
            }
        }
    }
    if in_group {
        panic!("string pattern {pattern:?}: unclosed group");
    }
    pieces
}

fn parse_class(chars: &mut Peekable<Chars>, pattern: &str) -> Vec<(char, char)> {
    let mut ranges = Vec::new();
    loop {
        let c = chars
            .next()
            .unwrap_or_else(|| panic!("string pattern {pattern:?}: unclosed character class"));
        if c == ']' {
            if ranges.is_empty() {
                panic!("string pattern {pattern:?}: empty character class");
            }
            return ranges;
        }
        if chars.peek() == Some(&'-') {
            let mut lookahead = chars.clone();
            lookahead.next(); // the '-'
            if let Some(&end) = lookahead.peek() {
                if end != ']' {
                    chars.next();
                    chars.next();
                    assert!(c <= end, "string pattern {pattern:?}: inverted class range");
                    ranges.push((c, end));
                    continue;
                }
            }
        }
        ranges.push((c, c));
    }
}

fn with_repeat(atom: Atom, chars: &mut Peekable<Chars>, pattern: &str) -> Piece {
    match chars.peek() {
        Some('{') => {
            chars.next();
            let mut spec = String::new();
            for c in chars.by_ref() {
                if c == '}' {
                    let (min, max) = match spec.split_once(',') {
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("repeat lower bound"),
                            hi.trim().parse().expect("repeat upper bound"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("repeat count");
                            (n, n)
                        }
                    };
                    assert!(
                        min <= max,
                        "string pattern {pattern:?}: inverted repeat {{{spec}}}"
                    );
                    return Piece { atom, min, max };
                }
                spec.push(c);
            }
            panic!("string pattern {pattern:?}: unclosed repeat");
        }
        Some('?') => {
            chars.next();
            Piece {
                atom,
                min: 0,
                max: 1,
            }
        }
        Some('*') => {
            chars.next();
            Piece {
                atom,
                min: 0,
                max: 8,
            }
        }
        Some('+') => {
            chars.next();
            Piece {
                atom,
                min: 1,
                max: 8,
            }
        }
        _ => Piece {
            atom,
            min: 1,
            max: 1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::generate;
    use crate::test_runner::TestRng;

    fn all(pattern: &str, n: usize) -> Vec<String> {
        let mut rng = TestRng::from_name(pattern);
        (0..n).map(|_| generate(pattern, &mut rng)).collect()
    }

    #[test]
    fn simple_class_with_counts() {
        for s in all("[a-z]{1,10}", 200) {
            assert!((1..=10).contains(&s.len()), "{s:?}");
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()), "{s:?}");
        }
    }

    #[test]
    fn grouped_path_pattern() {
        for s in all("(/[a-z]{1,6}){1,4}", 200) {
            assert!(s.starts_with('/'), "{s:?}");
            let comps: Vec<&str> = s.split('/').skip(1).collect();
            assert!((1..=4).contains(&comps.len()), "{s:?}");
            for c in comps {
                assert!((1..=6).contains(&c.len()), "{s:?}");
                assert!(c.bytes().all(|b| b.is_ascii_lowercase()), "{s:?}");
            }
        }
    }

    #[test]
    fn multi_range_class() {
        for s in all("[a-zA-Z0-9 ]{0,20}", 200) {
            assert!(s.len() <= 20);
            assert!(
                s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b' '),
                "{s:?}"
            );
        }
    }

    #[test]
    fn printable_ascii_class() {
        // "[ -~]" is the full printable-ASCII range.
        let mut seen_nonalnum = false;
        for s in all("[ -~]{0,64}", 300) {
            assert!(s.len() <= 64);
            for b in s.bytes() {
                assert!((0x20..=0x7e).contains(&b), "{s:?}");
                if !b.is_ascii_alphanumeric() {
                    seen_nonalnum = true;
                }
            }
        }
        assert!(seen_nonalnum, "never generated punctuation from [ -~]");
    }

    #[test]
    fn literals_and_exact_repeats() {
        for s in all("ab[0-9]{3}", 50) {
            assert_eq!(s.len(), 5);
            assert!(s.starts_with("ab"));
            assert!(s[2..].bytes().all(|b| b.is_ascii_digit()));
        }
    }
}
