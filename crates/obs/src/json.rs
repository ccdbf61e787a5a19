//! Minimal deterministic JSON emission and a structural validity checker.
//!
//! The workspace has no serialization dependency, so the exporters render
//! JSON with this tiny writer, and `fcad-serve` re-exports it for its
//! report line. Output is deterministic: fields appear in insertion order
//! and floats use fixed four-decimal formatting. [`validate_json`] is the
//! round-trip checker the CI smoke uses to assert exported traces are
//! well-formed.

/// Builds one JSON object as a single-line string.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// Creates an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field (escapes quotes, backslashes and control
    /// characters).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Adds a float field with four decimals (non-finite values become 0).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        self.fields.push(format!("\"{}\":{value:.4}", escape(key)));
        self
    }

    /// Adds a pre-rendered JSON value (object or array) verbatim.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("\"{}\":{value}", escape(key)));
        self
    }

    /// Renders the object as `{"k":v,...}` on a single line.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders a JSON array from pre-rendered element strings.
pub fn array(elements: &[String]) -> String {
    format!("[{}]", elements.join(","))
}

/// Escapes `text` for a JSON string: quotes, backslashes and the control
/// characters U+0000–U+001F, which JSON forbids raw. `\n`, `\r` and `\t`
/// are written by name, the other control characters as `\u00XX`.
fn escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if c < ' ' => escaped.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => escaped.push(c),
        }
    }
    escaped
}

/// Maximum nesting depth [`validate_json`] accepts, guarding the
/// recursive-descent parser against stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 64;

/// Checks that `text` is one syntactically valid JSON value (object, array,
/// string, number, `true`, `false`, or `null`) with nothing trailing.
///
/// This is a structural validator, not a full parser: it verifies bracket
/// balance, string escapes, number shape, and separator placement — enough
/// for CI to assert an exported trace round-trips as JSON without pulling
/// in a JSON dependency.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos, depth),
        Some(b'[') => list(bytes, pos, depth),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, "true"),
        Some(b'f') => literal(bytes, pos, "false"),
        Some(b'n') => literal(bytes, pos, "null"),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos),
        Some(b) => Err(format!("unexpected byte {b:#04x} at {pos}")),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn list(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match bytes.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = bytes.get(*pos + 2..*pos + 6);
                    let ok = hex.is_some_and(|h| h.iter().all(|c| c.is_ascii_hexdigit()));
                    if !ok {
                        return Err(format!("bad \\u escape at byte {pos}"));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}")),
            },
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0usize;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("expected digits at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0usize;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0usize;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    Ok(())
}

fn literal(bytes: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("expected `{word}` at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_typed_fields_in_insertion_order() {
        let line = JsonObject::new()
            .str("name", "w0")
            .u64("arrivals", 42)
            .f64("p99_ms", 1.25)
            .raw("classes", &array(&["{\"x\":1}".to_owned()]))
            .render();
        assert_eq!(
            line,
            "{\"name\":\"w0\",\"arrivals\":42,\"p99_ms\":1.2500,\"classes\":[{\"x\":1}]}"
        );
        validate_json(&line).expect("writer output is valid JSON");
    }

    #[test]
    fn escapes_quotes_and_nonfinite_floats() {
        let line = JsonObject::new()
            .str("k", "say \"hi\"")
            .f64("bad", f64::NAN)
            .render();
        assert_eq!(line, "{\"k\":\"say \\\"hi\\\"\",\"bad\":0.0000}");
        validate_json(&line).expect("escaped output is valid JSON");
    }

    #[test]
    fn escapes_control_characters() {
        let line = JsonObject::new()
            .str("two\nlines", "a\r\tb\u{0}\u{1b}\u{1f} ")
            .render();
        assert_eq!(line, "{\"two\\nlines\":\"a\\r\\tb\\u0000\\u001b\\u001f \"}");
        validate_json(&line).expect("escaped control characters are valid JSON");
    }

    #[test]
    fn validator_accepts_every_value_shape() {
        for text in [
            "{}",
            "[]",
            "null",
            "true",
            "false",
            "-12.5e+3",
            "\"say \\\"hi\\\" \\u0041\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"d\"}",
            "  { \"spaced\" : [ 1 , 2 ] }  ",
        ] {
            validate_json(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "tru",
            "01x",
            "\"unterminated",
            "{} trailing",
            "1.",
            "--1",
        ] {
            assert!(validate_json(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn validator_caps_nesting_depth() {
        let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(validate_json(&deep).is_err());
        let shallow = format!("{}1{}", "[".repeat(30), "]".repeat(30));
        validate_json(&shallow).expect("depth 30 is fine");
    }
}
