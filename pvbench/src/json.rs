//! The result line the benchmark prints, and a small JSON reader for it.
//!
//! The reader handles what the benchmark itself writes (objects, arrays,
//! strings without escapes beyond `\"` and `\\`, numbers, booleans): the
//! report mode parses its children's result lines with it, and the tests
//! check that a summary parses back to the same values.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// The unit, as named in `BENCHMARK.json`.
    pub unit: String,
}

/// The result of one benchmark run: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Whether every check held.
    pub correct: bool,
    /// Operations (simulations) attempted.
    pub attempted: u64,
    /// Operations that failed a self-consistency check.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<(String, Metric)>,
}

impl Summary {
    /// The summary as one line of JSON. Values keep every digit (Rust's
    /// shortest round-trip formatting).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(metric.value),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not such a summary.
    pub fn parse(line: &str) -> Result<Summary, String> {
        let Value::Object(fields) = parse(line)? else {
            return Err("the summary is not a JSON object".into());
        };
        let field = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("the summary has no `{key}`"))
        };
        let Value::Bool(correct) = field("correct")? else {
            return Err("`correct` is not a boolean".into());
        };
        let count = |key: &str| match field(key)? {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("`{key}` is not a whole number")),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Value::Object(entries) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, entry) in entries {
            let metric = entry
                .get("value")
                .and_then(Value::as_number)
                .zip(entry.get("unit").and_then(Value::as_str))
                .ok_or_else(|| format!("metric `{name}` needs a value and a unit"))?;
            metrics.push((
                name.clone(),
                Metric {
                    value: metric.0,
                    unit: metric.1.to_owned(),
                },
            ));
        }
        Ok(Summary {
            correct: *correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// Formats a finite number with every digit; non-finite values (which no
/// metric should produce) become 0 so the line stays valid JSON.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, with its keys in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number this value holds.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string this value holds.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_space();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_space();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        let mut seen = BTreeSet::new();
        self.skip_space();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_space();
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(self.error(&format!("duplicate key `{key}`")));
            }
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_space();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_space();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_space();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    match self.bytes.get(self.pos + 1) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err(self.error("unsupported escape")),
                    }
                    self.pos += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_parses_back_to_the_same_values() {
        let summary = Summary {
            correct: true,
            attempted: 17,
            failed: 0,
            metrics: vec![
                (
                    "records_per_s".to_owned(),
                    Metric {
                        value: 2_412_345.678_901_234,
                        unit: "records/s".to_owned(),
                    },
                ),
                (
                    "setup_s".to_owned(),
                    Metric {
                        value: 0.001_234_567_890_123,
                        unit: "s".to_owned(),
                    },
                ),
                (
                    "mem.l2_requests.pred".to_owned(),
                    Metric {
                        value: 0.0,
                        unit: "count".to_owned(),
                    },
                ),
            ],
        };
        let line = summary.to_json();
        assert_eq!(Summary::parse(&line), Ok(summary));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "{",
            "{\"correct\": true}",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {}}}",
            "{\"a\": 1, \"a\": 2}",
        ] {
            assert!(Summary::parse(line).is_err(), "accepted {line:?}");
        }
    }
}
