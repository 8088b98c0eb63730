//! The one JSON codec behind the store, manifest and telemetry files.
//!
//! Writers keep their format strings, because their bytes are a contract
//! (manifest digests, byte-identical merges), and emit every string
//! through [`write_str`]. Readers use [`parse`], which is total: on any
//! input it returns a value or an error and never panics. A number stays
//! its raw token and is converted on access with `str::parse`, so every
//! value the writers print reads back unchanged, `inf` included.

use std::borrow::Cow;

/// Deepest nesting [`parse`] accepts; the files it reads nest three deep.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value borrowing from the input text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any other bare token (a number, `inf`, …), converted on access.
    Num(&'a str),
    /// A string, borrowed unless it contained escapes.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Value<'a>>),
    /// An object's members in document order.
    Object(Vec<(&'a str, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// The first member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number token that parses as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// A number token that parses as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// A string's unescaped text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    /// Byte offset at which parsing stopped.
    pub offset: usize,
}

/// Parses `text` as exactly one JSON value; surrounding whitespace is
/// allowed, trailing bytes are not.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut p = Parser { rest: text };
    match p.value(0) {
        Some(value) if p.rest.trim_start_matches(is_ws).is_empty() => Ok(value),
        _ => Err(Error {
            offset: text.len() - p.rest.len(),
        }),
    }
}

/// Appends `s` to `out` as a quoted JSON string that [`parse`] reads
/// back to exactly `s`: `"` and `\` are backslash-escaped, a newline is
/// written `\n` and other control characters `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn is_ws(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\n' | '\r')
}

/// Recursive descent over the unparsed rest of the input; every method
/// returns `None` at the first malformed byte.
struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    /// Skips whitespace and consumes `c` if it comes next.
    fn eat(&mut self, c: char) -> bool {
        self.rest = self.rest.trim_start_matches(is_ws);
        let next = self.rest.strip_prefix(c);
        self.rest = next.unwrap_or(self.rest);
        next.is_some()
    }

    /// Like [`eat`](Self::eat), but `None` unless `c` comes next.
    fn expect(&mut self, c: char) -> Option<()> {
        self.eat(c).then_some(())
    }

    fn value(&mut self, depth: usize) -> Option<Value<'a>> {
        if depth > MAX_DEPTH {
            return None;
        }
        if self.eat('"') {
            return self.string().map(Value::Str);
        }
        let close = if self.eat('{') {
            '}'
        } else if self.eat('[') {
            ']'
        } else {
            return self.token();
        };
        let (mut members, mut items) = (Vec::new(), Vec::new());
        while !self.eat(close) {
            if !(members.is_empty() && items.is_empty()) {
                self.expect(',')?;
            }
            if close == ']' {
                items.push(self.value(depth + 1)?);
                continue;
            }
            // Member names are never escaped, so they always borrow.
            self.expect('"')?;
            let Cow::Borrowed(key) = self.string()? else {
                return None;
            };
            self.expect(':')?;
            members.push((key, self.value(depth + 1)?));
        }
        Some(match close {
            '}' => Value::Object(members),
            _ => Value::Array(items),
        })
    }

    /// A bare token up to the next delimiter: `null`, `true`, `false`,
    /// or a number kept raw.
    fn token(&mut self) -> Option<Value<'a>> {
        let end = self.rest.find(|c| is_ws(c) || ",:\"[]{}".contains(c));
        let (token, rest) = self.rest.split_at_checked(end.unwrap_or(self.rest.len()))?;
        self.rest = rest;
        Some(match token {
            "" => return None,
            "null" => Value::Null,
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            number => Value::Num(number),
        })
    }

    /// The rest of a string whose opening quote was consumed. Only the
    /// escapes [`write_str`] emits are accepted.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        let rest = self.rest;
        let mut owned: Option<String> = None;
        let mut chars = rest.char_indices();
        loop {
            let (i, c) = chars.next()?;
            let unescaped = match c {
                '"' => {
                    self.rest = rest.get(i + 1..)?;
                    return Some(owned.map_or(Cow::Borrowed(rest.get(..i)?), Cow::Owned));
                }
                '\\' => match chars.next()?.1 {
                    e @ ('"' | '\\') => e,
                    'n' => '\n',
                    'u' => {
                        let hex = rest.get(i + 2..i + 6)?;
                        chars.nth(3);
                        let hex = Some(hex).filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
                        char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                    }
                    _ => return None,
                },
                c if u32::from(c) < 0x20 => return None,
                c => {
                    if let Some(out) = owned.as_mut() {
                        out.push(c);
                    }
                    continue;
                }
            };
            owned
                .get_or_insert_with(|| rest.get(..i).unwrap_or_default().to_owned())
                .push(unescaped);
        }
    }
}

/// Every strict prefix of `text` that ends on a character boundary.
#[cfg(test)]
pub(crate) fn strict_prefixes(text: &str) -> impl Iterator<Item = &str> {
    (0..text.len()).filter_map(|n| text.get(..n))
}

/// Every single-bit flip of `text` that is still UTF-8.
#[cfg(test)]
pub(crate) fn bit_flips(text: &str) -> impl Iterator<Item = String> + '_ {
    (0..text.len() * 8).filter_map(|bit| {
        let mut bytes = text.as_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        String::from_utf8(bytes).ok()
    })
}

/// Labels built from characters a writer must escape or copy unchanged.
#[cfg(test)]
pub(crate) fn awkward_strings() -> Vec<String> {
    let alphabet = ['"', '\\', ',', '}', '\n', '\u{1}', '%', '@', 'µ'];
    let singles = alphabet.iter().map(|c| format!("6T{c} Nf=1% @ 9dB"));
    singles.chain([alphabet.iter().collect()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_read_back_what_the_writers_print() {
        let v =
            parse(r#"{"a": 3, "b": "0f", "c": [2.5, true, null, inf], "d": [1, 2,3]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("0f"));
        assert_eq!(v.get("a").and_then(Value::as_bool), None);
        assert_eq!(v.get("missing"), None);
        let c = v.get("c").and_then(Value::as_array).unwrap();
        assert_eq!((c[0].as_f64(), c[1].as_bool()), (Some(2.5), Some(true)));
        assert_eq!((&c[2], c[3].as_f64()), (&Value::Null, Some(f64::INFINITY)));
        let d = v.get("d").and_then(Value::as_array).unwrap();
        assert_eq!(
            d.iter().map(Value::as_u64).collect::<Vec<_>>(),
            [Some(1), Some(2), Some(3)]
        );
        assert!(matches!(v.get("b"), Some(Value::Str(Cow::Borrowed(_)))));
        let mut out = String::new();
        write_str(&mut out, "\"\\\n\u{1}µ");
        assert_eq!(out, r#""\"\\\n\u0001µ""#);
        assert_eq!(parse(&out).unwrap().as_str(), Some("\"\\\n\u{1}µ"));
    }

    #[test]
    fn malformed_input_is_an_error() {
        let bad = r#"{"a":1,}|{"a" 1}|{a:1}|[1,]|"\x"|"\u12"|"\u+123"|"\ud800"|{"k\n":1}|{} {}|"#;
        for bad in bad.split('|').chain(["\"raw\ncontrol\""]) {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse("[1 2]"), Err(Error { offset: 3 }));
        let nested = |n| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 2)).is_err());
    }
}
