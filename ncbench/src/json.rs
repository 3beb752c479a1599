//! A minimal single-line JSON writer for result lines, headers and span
//! files (`bench::Json` renders indented multi-line output, and the
//! result must be one line).

use std::fmt::Write;

/// A JSON value.
pub enum Json {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        render(self, &mut out);
        f.write_str(&out)
    }
}

fn render(v: &Json, out: &mut String) {
    match v {
        // Non-finite numbers have no JSON form; they never occur in a
        // correct run, so render them as null and let the reader notice.
        Json::Num(x) if !x.is_finite() => out.push_str("null"),
        Json::Num(x) => {
            let _ = write!(out, "{x:?}");
        }
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Str(s) => write_str(out, s),
        Json::Arr(a) => {
            out.push('[');
            for (i, x) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(x, out);
            }
            out.push(']');
        }
        Json::Obj(o) => {
            out.push('{');
            for (i, (k, x)) in o.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                render(x, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Arr(vec![Json::Int(2), Json::Bool(true)])),
            ("c", Json::str("x\"y")),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1.5,"b":[2,true],"c":"x\"y"}"#);
    }
}
