//! A JSON writer just large enough for the result line, `BENCHMARK.json`
//! and the trace file (the workspace is dependency-free, so no serde).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Written with every digit `f64` needs to round-trip. Non-finite
    /// values have no JSON form and are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// One line, no spaces after separators except `": "` and `", "`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        let sep = if indent.is_some() { "," } else { ", " };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_result_line_shape() {
        let doc = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(3)),
            (
                "metrics",
                Json::obj(vec![(
                    "setup_s",
                    Json::obj(vec![("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
        ]);
        assert_eq!(
            doc.compact(),
            r#"{"correct": true, "attempted": 3, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn strings_are_escaped_and_floats_keep_their_digits() {
        assert_eq!(
            Json::str("a\"b\\c\n\u{1}").compact(),
            r#""a\"b\\c\n\u0001""#
        );
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::Num(16000.0).compact(), "16000");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }

    #[test]
    fn pretty_nests_with_two_spaces() {
        let doc = Json::obj(vec![
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("b", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": []\n}"
        );
    }
}
