//! `simlint.toml`: per-rule allowlists with mandatory justifications.
//!
//! The config is a sequence of `[[allow]]` tables:
//!
//! ```toml
//! # Host-side wall-clock measurement; never touches simulated state.
//! [[allow]]
//! rule = "determinism"
//! path = "crates/bench/src/hostclock.rs"
//! ident = "Instant"
//! reason = "host-side wall-clock measurement helper"
//! ```
//!
//! `rule` and `path` are required; `ident` optionally narrows the entry
//! to one identifier/literal so that, say, allowing `Instant` in a file
//! does not also allow `HashMap` there. Every entry must carry a
//! justification — a non-empty `reason` — and loading fails otherwise:
//! an unexplained exemption is itself a contract violation. The parser
//! is a deliberately tiny TOML subset (array-of-tables headers, string
//! values, `#` comments), hand-rolled like the lexer so the crate stays
//! dependency-free.

use crate::diag::Diagnostic;

/// One allowlist entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id this entry silences.
    pub rule: String,
    /// Workspace-relative file path it applies to.
    pub path: String,
    /// Optional: only this identifier/literal (diagnostic subject).
    pub ident: Option<String>,
    /// Why the exemption is sound. Required.
    pub reason: String,
    /// Line of the `[[allow]]` header, for error messages.
    pub line: u32,
}

impl AllowEntry {
    /// Does this entry silence `d`?
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule
            && self.path == d.file
            && self.ident.as_ref().is_none_or(|i| *i == d.subject)
    }
}

/// The parsed configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// All allowlist entries, in file order.
    pub allows: Vec<AllowEntry>,
}

impl Config {
    /// Parses `simlint.toml` text. Errors name the offending line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut allows: Vec<AllowEntry> = Vec::new();
        let mut current: Option<AllowEntry> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = (idx + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(e) = current.take() {
                    finish_entry(e, &mut allows)?;
                }
                current = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    ident: None,
                    reason: String::new(),
                    line: lineno,
                });
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "simlint.toml:{lineno}: unknown table {line}; only [[allow]] is understood"
                ));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("simlint.toml:{lineno}: expected `key = \"value\"`"));
            };
            let key = key.trim();
            let value = parse_string(value.trim())
                .ok_or_else(|| format!("simlint.toml:{lineno}: {key} needs a quoted string"))?;
            let Some(entry) = current.as_mut() else {
                return Err(format!(
                    "simlint.toml:{lineno}: `{key}` outside an [[allow]] table"
                ));
            };
            match key {
                "rule" => entry.rule = value,
                "path" => entry.path = value,
                "ident" => entry.ident = Some(value),
                "reason" => entry.reason = value,
                other => {
                    return Err(format!("simlint.toml:{lineno}: unknown key `{other}`"));
                }
            }
        }
        if let Some(e) = current.take() {
            finish_entry(e, &mut allows)?;
        }
        Ok(Config { allows })
    }

    /// Splits `diags` into (kept, silenced-by-allowlist) and reports
    /// entries that silenced nothing (stale exemptions worth pruning).
    pub fn apply(&self, diags: Vec<Diagnostic>) -> Filtered {
        let mut kept = Vec::new();
        let mut silenced = Vec::new();
        let mut used = vec![false; self.allows.len()];
        for d in diags {
            match self.allows.iter().position(|a| a.matches(&d)) {
                Some(i) => {
                    used[i] = true;
                    silenced.push(d);
                }
                None => kept.push(d),
            }
        }
        let stale = self
            .allows
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(a, _)| a.clone())
            .collect();
        Filtered {
            kept,
            silenced,
            stale,
        }
    }
}

/// Result of filtering diagnostics through the allowlist.
#[derive(Clone, Debug, Default)]
pub struct Filtered {
    /// Diagnostics no entry matched: these fail the run.
    pub kept: Vec<Diagnostic>,
    /// Diagnostics an entry silenced.
    pub silenced: Vec<Diagnostic>,
    /// Entries that silenced nothing this run.
    pub stale: Vec<AllowEntry>,
}

fn finish_entry(e: AllowEntry, out: &mut Vec<AllowEntry>) -> Result<(), String> {
    if e.rule.is_empty() || e.path.is_empty() {
        return Err(format!(
            "simlint.toml:{}: [[allow]] needs both `rule` and `path`",
            e.line
        ));
    }
    if e.reason.trim().is_empty() {
        return Err(format!(
            "simlint.toml:{}: [[allow]] for {} in {} has no `reason`; \
             every exemption must carry a justification",
            e.line, e.rule, e.path
        ));
    }
    out.push(e);
    Ok(())
}

/// `"..."` with simple escapes; trailing same-line comments tolerated.
fn parse_string(v: &str) -> Option<String> {
    let rest = v.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => {
                let tail = chars.as_str().trim();
                if tail.is_empty() || tail.starts_with('#') {
                    return Some(out);
                }
                return None;
            }
            _ => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, file: &str, subject: &str) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line: 1,
            rule,
            subject: subject.into(),
            message: String::new(),
        }
    }

    #[test]
    fn parses_entries_and_filters() {
        let cfg = Config::parse(
            "# why: the bench crate measures host time\n\
             [[allow]]\n\
             rule = \"determinism\"\n\
             path = \"crates/bench/src/hostclock.rs\"\n\
             ident = \"Instant\"\n\
             reason = \"host-side measurement\"\n",
        )
        .unwrap();
        assert_eq!(cfg.allows.len(), 1);
        let f = cfg.apply(vec![
            diag("determinism", "crates/bench/src/hostclock.rs", "Instant"),
            diag("determinism", "crates/bench/src/hostclock.rs", "HashMap"),
            diag("determinism", "crates/ukernel/src/machine.rs", "Instant"),
        ]);
        assert_eq!(f.silenced.len(), 1, "only the scoped ident is silenced");
        assert_eq!(f.kept.len(), 2);
        assert!(f.stale.is_empty());
    }

    #[test]
    fn entries_without_justification_are_rejected() {
        let err =
            Config::parse("[[allow]]\nrule = \"determinism\"\npath = \"crates/x/src/lib.rs\"\n")
                .unwrap_err();
        assert!(err.contains("justification"), "got: {err}");
    }

    #[test]
    fn stale_entries_are_reported() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"determinism\"\npath = \"a.rs\"\nreason = \"obsolete\"\n",
        )
        .unwrap();
        let f = cfg.apply(vec![]);
        assert_eq!(f.stale.len(), 1);
    }

    #[test]
    fn unknown_keys_and_tables_error() {
        assert!(Config::parse("[[allow]]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("[lint]\n").is_err());
    }
}
