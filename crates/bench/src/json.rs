//! Hand-rolled JSON emission for the figure/bench harness.
//!
//! The workspace has no external dependencies, so no `serde`/`serde_json`;
//! the harness only ever *writes* JSON, so a small value tree plus a
//! field-listing macro per row struct covers everything.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug)]
pub enum Json {
    Str(String),
    Num(f64),
    Int(i64),
    UInt(u64),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Conversion into a [`Json`] tree; implemented for the row structs via
/// [`impl_to_json!`] and for primitives/collections here.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! to_json_int {
    ($($t:ty => $variant:ident as $wide:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::$variant(*self as $wide)
            }
        }
    )*};
}

to_json_int!(u16 => UInt as u64, u32 => UInt as u64, u64 => UInt as u64, usize => UInt as u64,
             i16 => Int as i64, i32 => Int as i64, i64 => Int as i64);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
/// `impl_to_json!(Fig1Row { syscall, original_ms, ... });`
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
}

pub(crate) use impl_to_json;

impl std::fmt::Display for Json {
    /// Compact rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl Json {
    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Str(s) => write_escaped(out, s),
            Json::Num(n) => {
                if n.is_finite() {
                    // Keep integral floats readable and round-trippable.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{:.1}", n);
                    } else {
                        let _ = write!(out, "{}", n);
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Pretty-prints any [`ToJson`] value (rows print as a JSON array).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nesting() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b\\c\n".into())),
            (
                "xs".into(),
                Json::Arr(vec![Json::Int(-3), Json::UInt(7), Json::Bool(true)]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"a\"b\\c\n","xs":[-3,7,true],"empty":[]}"#
        );
    }

    #[test]
    fn floats_round_trip_readably() {
        assert_eq!(Json::Num(1.0).to_string(), "1.0");
        assert_eq!(Json::Num(1.25).to_string(), "1.25");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn pretty_indents() {
        let v = Json::Obj(vec![("k".into(), Json::Arr(vec![Json::Int(1)]))]);
        assert_eq!(v.to_string_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }
}
