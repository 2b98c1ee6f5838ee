//! Minimal JSON reader/writer for the documents this repository's own
//! tools emit.
//!
//! The workspace has no serde; its tools only need to pull numbers out of
//! documents they themselves wrote (`benchmark/` compares result files),
//! so a ~100-line recursive-descent parser covers it: objects, arrays,
//! strings (no escape exotica beyond `\"`, `\\`, `\/`, `\n`, `\t`, `\r`),
//! numbers, booleans, null. [`render`] is the inverse — it is how
//! `chaos explore --slo` and `benchmark/` print a [`Value`] they built
//! without a serializer dependency. It lives in this dependency-free
//! crate so every tool can reach it.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a dot-separated path of object keys (e.g.
    /// `"wire_hot_path.sha1.16384B.auto_gib_s"`).
    pub fn get(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for key in path.split('.') {
            match cur {
                Value::Obj(fields) => {
                    cur = &fields.iter().find(|(k, _)| k == key)?.1;
                }
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Renders a value back to JSON text (2-space indent, document field
/// order preserved). Non-finite numbers render as `null` — JSON has no
/// spelling for them, and a gate metric that went NaN should read as
/// missing, not parse-error the whole document.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, 0, &mut out);
    out.push('\n');
    out
}

fn render_into(v: &Value, indent: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| out.push_str(&"  ".repeat(n));
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => out.push_str(&format!("{n}")),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => render_string(s, out),
        Value::Arr(items) if items.is_empty() => out.push_str("[]"),
        Value::Arr(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 1, out);
                render_into(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push(']');
        }
        Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
        Value::Obj(fields) => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                pad(indent + 1, out);
                render_string(k, out);
                out.push_str(": ");
                render_into(val, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape \\{}", *other as char)),
                });
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through byte-wise.
                let len = utf8_len(c);
                let chunk = b.get(*pos..*pos + len).ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents_and_paths() {
        let doc = r#"{
            "a": {"b": {"c": 1.5, "16384B": 2}},
            "list": [1, 2, 3],
            "s": "hi \"there\"",
            "t": true, "n": null
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a.b.c").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("a.b.16384B").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("t"), Some(&Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(
            v.get("list"),
            Some(&Value::Arr(vec![
                Value::Num(1.0),
                Value::Num(2.0),
                Value::Num(3.0)
            ]))
        );
        assert_eq!(v.get("s"), Some(&Value::Str("hi \"there\"".into())));
    }

    #[test]
    fn parses_own_bench_output_shapes() {
        let doc = r#"{"x": -1.25e3, "y": 0.000, "z": {"k": [{"q": 7}]}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(v.get("y").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let doc = r#"{
            "pr": 9,
            "a": {"b": {"c": 1.5, "16384B": 2}},
            "list": [1, -2.25, 3e3],
            "s": "hi \"there\"\nline two",
            "t": true, "n": null, "empty": {}, "earr": []
        }"#;
        let v = parse(doc).unwrap();
        let text = render(&v);
        let back = parse(&text).expect("rendered text parses");
        assert_eq!(back, v, "parse(render(v)) == v");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
