//! Lexical path algebra: the kernel's name bookkeeping.
//!
//! These functions work purely on strings. They collapse `.` and `..`
//! and duplicate slashes but **never** look at the filesystem, so symbolic
//! links survive untouched — matching the paper's observation that the
//! dumped path names "have been constructed by combining the names given
//! by the process to the kernel ... and resolving any references to the
//! current or parent directories. This means that symbolic links are not
//! resolved."

/// Is this an absolute path?
pub fn is_absolute(path: &str) -> bool {
    path.starts_with('/')
}

/// Splits a path into its non-empty, non-`.` components, keeping `..`.
pub fn raw_components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// Lexically normalises an absolute path: collapses `//`, removes `.`,
/// and applies `..` against the preceding component.
///
/// `..` at the root stays at the root, as in Unix. The result always
/// starts with `/` and never ends with `/` unless it *is* `/`.
///
/// # Panics
///
/// Panics if `path` is relative; normalisation of relative paths is only
/// meaningful against a base, via [`combine`].
pub fn normalize(path: &str) -> String {
    assert!(is_absolute(path), "normalize requires an absolute path");
    let mut stack: Vec<&str> = Vec::new();
    for c in raw_components(path) {
        if c == ".." {
            stack.pop();
        } else {
            stack.push(c);
        }
    }
    if stack.is_empty() {
        "/".to_string()
    } else {
        let mut s = String::new();
        for c in &stack {
            s.push('/');
            s.push_str(c);
        }
        s
    }
}

/// The paper's `chdir()`/`open()` bookkeeping: if `path` is absolute it
/// simply replaces the old value; if relative, "it is combined with the
/// value of the old current working directory ... and the result is
/// copied back".
///
/// `cwd` must be absolute (the kernel initialises it from the first
/// absolute `chdir()` at boot and children inherit it).
pub fn combine(cwd: &str, path: &str) -> String {
    if is_absolute(path) {
        normalize(path)
    } else {
        let mut joined = String::with_capacity(cwd.len() + 1 + path.len());
        joined.push_str(cwd);
        joined.push('/');
        joined.push_str(path);
        normalize(&joined)
    }
}

/// The final component of a path (`""` for `/`).
pub fn basename(path: &str) -> &str {
    path.rsplit('/').find(|c| !c.is_empty()).unwrap_or("")
}

/// Everything but the final component, normalised; `/` for single-level
/// paths.
pub fn dirname(path: &str) -> String {
    let norm = if is_absolute(path) {
        normalize(path)
    } else {
        combine("/", path)
    };
    match norm.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => norm[..i].to_string(),
    }
}

/// Components of a normalised absolute path, in order.
pub fn components(path: &str) -> Vec<String> {
    normalize(path)
        .split('/')
        .filter(|c| !c.is_empty())
        .map(str::to_string)
        .collect()
}

/// Does `path` lie under the remote-mount convention directory `/n`?
///
/// `dumpproc` uses this test: "if after resolving the symbolic links, a
/// file is found to be local to the machine on which dumpproc is running
/// (i.e., its name does not begin with /n), the string `/n/<machinename>`
/// is prepended to its name".
pub fn is_remote_path(path: &str) -> bool {
    path == "/n" || path.starts_with("/n/")
}

/// Splits a path under `/n` into the host name and the remainder path on
/// that host (`/` if nothing follows the host).
pub fn split_remote(path: &str) -> Option<(String, String)> {
    let rest = path.strip_prefix("/n/")?;
    let (host, tail) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if host.is_empty() {
        return None;
    }
    let tail = if tail.is_empty() { "/" } else { tail };
    Some((host.to_string(), normalize(tail)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses() {
        assert_eq!(normalize("/a/b/../c"), "/a/c");
        assert_eq!(normalize("/a/./b//c/"), "/a/b/c");
        assert_eq!(normalize("/.."), "/");
        assert_eq!(normalize("/../../x"), "/x");
        assert_eq!(normalize("/"), "/");
    }

    #[test]
    fn combine_absolute_replaces() {
        assert_eq!(combine("/usr/alice", "/tmp/x"), "/tmp/x");
    }

    #[test]
    fn combine_relative_joins() {
        assert_eq!(combine("/usr/alice", "src/main.c"), "/usr/alice/src/main.c");
        assert_eq!(combine("/usr/alice", ".."), "/usr");
        assert_eq!(combine("/usr/alice", "../bob/./x"), "/usr/bob/x");
        assert_eq!(combine("/", "etc"), "/etc");
    }

    #[test]
    fn basename_dirname() {
        assert_eq!(basename("/usr/foo"), "foo");
        assert_eq!(basename("/"), "");
        assert_eq!(dirname("/usr/foo"), "/usr");
        assert_eq!(dirname("/usr"), "/");
        assert_eq!(dirname("/"), "/");
    }

    #[test]
    fn remote_path_convention() {
        assert!(is_remote_path("/n/brador/usr/foo"));
        assert!(!is_remote_path("/usr/foo"));
        assert!(!is_remote_path("/nx/foo"));
        let (host, rest) = split_remote("/n/brador/usr/foo").unwrap();
        assert_eq!(host, "brador");
        assert_eq!(rest, "/usr/foo");
        let (host, rest) = split_remote("/n/brador").unwrap();
        assert_eq!(host, "brador");
        assert_eq!(rest, "/");
        assert!(split_remote("/usr/foo").is_none());
    }

    #[test]
    fn components_of_path() {
        assert_eq!(components("/a//b/./c"), vec!["a", "b", "c"]);
        assert!(components("/").is_empty());
    }

    #[test]
    fn symlink_text_is_untouched() {
        // The algebra never resolves symlinks: it cannot even see them.
        // A path that *happens* to traverse a symlink keeps its given
        // name, as the paper requires.
        assert_eq!(combine("/usr/alice", "work/file"), "/usr/alice/work/file");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use simtime::rng::SplitMix64;

    /// Cases per property.
    const CASES: u32 = 64;

    /// `[a-z]{1,8}`, `.` or `..`, weighted 3:1:1.
    fn arb_component(rng: &mut SplitMix64) -> String {
        match rng.below(5) {
            0..=2 => rng.string(&[b'a'..=b'z'], 1..=8),
            3 => ".".to_string(),
            _ => "..".to_string(),
        }
    }

    /// `/` and zero to seven components.
    fn arb_abs_path(rng: &mut SplitMix64) -> String {
        let cs: Vec<String> = (0..rng.below(8)).map(|_| arb_component(rng)).collect();
        format!("/{}", cs.join("/"))
    }

    /// One to seven components.
    fn arb_rel_path(rng: &mut SplitMix64) -> String {
        let cs: Vec<String> = (0..1 + rng.below(7)).map(|_| arb_component(rng)).collect();
        cs.join("/")
    }

    #[test]
    fn normalize_is_idempotent() {
        let mut rng = SplitMix64::new(1);
        for case in 0..CASES {
            let p = arb_abs_path(&mut rng);
            let once = normalize(&p);
            assert_eq!(normalize(&once), once, "case {case}: {p:?}");
        }
    }

    #[test]
    fn normalized_has_no_dots() {
        let mut rng = SplitMix64::new(2);
        for case in 0..CASES {
            let p = arb_abs_path(&mut rng);
            let n = normalize(&p);
            assert!(n.starts_with('/'), "case {case}: {p:?} -> {n:?}");
            for c in n.split('/') {
                assert!(c != "." && c != "..", "case {case}: {p:?} -> {n:?}");
            }
        }
    }

    #[test]
    fn combine_result_is_normalized_absolute() {
        let mut rng = SplitMix64::new(3);
        for case in 0..CASES {
            let cwd = normalize(&arb_abs_path(&mut rng));
            let p = arb_rel_path(&mut rng);
            let c = combine(&cwd, &p);
            assert!(c.starts_with('/'), "case {case}: {cwd:?} + {p:?} -> {c:?}");
            assert_eq!(normalize(&c), c, "case {case}: {cwd:?} + {p:?}");
        }
    }

    #[test]
    fn combine_with_absolute_ignores_cwd() {
        let mut rng = SplitMix64::new(4);
        for case in 0..CASES {
            let cwd = normalize(&arb_abs_path(&mut rng));
            let p = arb_abs_path(&mut rng);
            let want = normalize(&p);
            assert_eq!(combine(&cwd, &p), want, "case {case}: {cwd:?} + {p:?}");
        }
    }

    #[test]
    fn dirname_basename_reassemble() {
        let mut rng = SplitMix64::new(5);
        for case in 0..CASES {
            let p = arb_abs_path(&mut rng);
            let n = normalize(&p);
            if n != "/" {
                let d = dirname(&n);
                let b = basename(&n);
                let re = if d == "/" {
                    format!("/{b}")
                } else {
                    format!("{d}/{b}")
                };
                assert_eq!(re, n, "case {case}: {p:?}");
            }
        }
    }
}
