//! Token-stream snapshot serialization.
//!
//! Snapshots of live simulation state travel on the same line-oriented
//! `key=value` wire as job frames (see `spiffi_core::wire`). This module
//! provides the shared token machinery: a [`SnapWriter`] that appends
//! space-separated `key=value` tokens to a growing string, and a
//! [`SnapReader`] that consumes them back *positionally*, verifying each
//! token's key against the expected field name so any drift between
//! writer and reader surfaces as a typed [`SnapError`] instead of silent
//! state corruption.
//!
//! Integers are written in decimal; floats are written as the 16-hex-digit
//! IEEE-754 bit pattern (the same encoding the job wire uses), so a
//! serialize → deserialize round trip is bit-exact by construction.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Error decoding a snapshot token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The next token's key did not match the field the reader expected.
    WrongKey {
        /// The field the reader was positioned at.
        expected: &'static str,
        /// The key actually present (truncated for display).
        got: String,
    },
    /// A token's value failed to parse for its declared type.
    BadValue {
        /// The field being decoded.
        key: &'static str,
        /// The offending value (truncated for display).
        value: String,
    },
    /// The stream ended before the expected field appeared.
    Truncated {
        /// The field the reader was positioned at.
        key: &'static str,
    },
    /// Tokens remained after the reader consumed every expected field.
    TrailingTokens {
        /// The first unconsumed token (truncated for display).
        token: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::WrongKey { expected, got } => {
                write!(f, "expected snapshot field {expected:?}, found {got:?}")
            }
            SnapError::BadValue { key, value } => {
                write!(f, "bad value for snapshot field {key:?}: {value:?}")
            }
            SnapError::Truncated { key } => {
                write!(f, "snapshot truncated at field {key:?}")
            }
            SnapError::TrailingTokens { token } => {
                write!(f, "trailing snapshot tokens starting at {token:?}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

fn clip(s: &str) -> String {
    const MAX: usize = 40;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// Appends `key=value` tokens to a single space-separated line.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: String,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_raw(&mut self, key: &str, value: fmt::Arguments<'_>) {
        use fmt::Write;
        debug_assert!(
            !key.is_empty() && !key.contains([' ', '=', '\n']),
            "invalid snapshot key {key:?}"
        );
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
        write!(self.buf, "{key}={value}").expect("write to String cannot fail");
    }

    /// Append an unsigned integer token.
    pub fn u64(&mut self, key: &str, v: u64) {
        self.push_raw(key, format_args!("{v}"));
    }

    /// Append a `u32` token.
    pub fn u32(&mut self, key: &str, v: u32) {
        self.u64(key, u64::from(v));
    }

    /// Append a `u16` token.
    pub fn u16(&mut self, key: &str, v: u16) {
        self.u64(key, u64::from(v));
    }

    /// Append a `u8` token.
    pub fn u8(&mut self, key: &str, v: u8) {
        self.u64(key, u64::from(v));
    }

    /// Append a `usize` token.
    pub fn usize(&mut self, key: &str, v: usize) {
        self.u64(key, v as u64);
    }

    /// Append a boolean token as `0`/`1`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.u64(key, u64::from(v));
    }

    /// Append a float as its 16-hex-digit IEEE-754 bit pattern.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.push_raw(key, format_args!("{:016x}", v.to_bits()));
    }

    /// Append a simulated instant (nanoseconds).
    pub fn time(&mut self, key: &str, t: SimTime) {
        self.u64(key, t.0);
    }

    /// Append a simulated duration (nanoseconds).
    pub fn dur(&mut self, key: &str, d: SimDuration) {
        self.u64(key, d.0);
    }

    /// Append free text as one token: its UTF-8 bytes in lowercase hex,
    /// so whitespace, `=` and control characters can never split the
    /// token or break the line.
    pub fn text(&mut self, key: &str, v: &str) {
        use fmt::Write;
        let mut hex = String::with_capacity(2 * v.len());
        for b in v.bytes() {
            write!(hex, "{b:02x}").expect("write to String cannot fail");
        }
        self.push_raw(key, format_args!("{hex}"));
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the token line.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sequentially consumes `key=value` tokens produced by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> SnapReader<'a> {
    /// A reader over a token line (leading/trailing whitespace ignored).
    pub fn new(body: &'a str) -> Self {
        SnapReader {
            toks: body.split_ascii_whitespace(),
        }
    }

    fn next_val(&mut self, key: &'static str) -> Result<&'a str, SnapError> {
        let tok = self.toks.next().ok_or(SnapError::Truncated { key })?;
        let (k, v) = tok.split_once('=').ok_or_else(|| SnapError::WrongKey {
            expected: key,
            got: clip(tok),
        })?;
        if k != key {
            return Err(SnapError::WrongKey {
                expected: key,
                got: clip(k),
            });
        }
        Ok(v)
    }

    /// Read an unsigned integer token.
    pub fn u64(&mut self, key: &'static str) -> Result<u64, SnapError> {
        let v = self.next_val(key)?;
        v.parse::<u64>().map_err(|_| SnapError::BadValue {
            key,
            value: clip(v),
        })
    }

    /// Read a `u32` token, rejecting out-of-range values.
    pub fn u32(&mut self, key: &'static str) -> Result<u32, SnapError> {
        let v = self.u64(key)?;
        u32::try_from(v).map_err(|_| SnapError::BadValue {
            key,
            value: v.to_string(),
        })
    }

    /// Read a `u16` token, rejecting out-of-range values.
    pub fn u16(&mut self, key: &'static str) -> Result<u16, SnapError> {
        let v = self.u64(key)?;
        u16::try_from(v).map_err(|_| SnapError::BadValue {
            key,
            value: v.to_string(),
        })
    }

    /// Read a `u8` token, rejecting out-of-range values.
    pub fn u8(&mut self, key: &'static str) -> Result<u8, SnapError> {
        let v = self.u64(key)?;
        u8::try_from(v).map_err(|_| SnapError::BadValue {
            key,
            value: v.to_string(),
        })
    }

    /// Read a `usize` token, rejecting out-of-range values.
    pub fn usize(&mut self, key: &'static str) -> Result<usize, SnapError> {
        let v = self.u64(key)?;
        usize::try_from(v).map_err(|_| SnapError::BadValue {
            key,
            value: v.to_string(),
        })
    }

    /// Read a boolean token (`0`/`1` only).
    pub fn bool(&mut self, key: &'static str) -> Result<bool, SnapError> {
        match self.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::BadValue {
                key,
                value: other.to_string(),
            }),
        }
    }

    /// Read a float token from its 16-hex-digit bit pattern.
    pub fn f64(&mut self, key: &'static str) -> Result<f64, SnapError> {
        let v = self.next_val(key)?;
        u64::from_str_radix(v, 16)
            .map(f64::from_bits)
            .map_err(|_| SnapError::BadValue {
                key,
                value: clip(v),
            })
    }

    /// Read a simulated instant.
    pub fn time(&mut self, key: &'static str) -> Result<SimTime, SnapError> {
        self.u64(key).map(SimTime)
    }

    /// Read a simulated duration.
    pub fn dur(&mut self, key: &'static str) -> Result<SimDuration, SnapError> {
        self.u64(key).map(SimDuration)
    }

    /// Read a [`SnapWriter::text`] token back: hex pairs that must decode
    /// to valid UTF-8.
    pub fn text(&mut self, key: &'static str) -> Result<String, SnapError> {
        let v = self.next_val(key)?;
        let bad = || SnapError::BadValue {
            key,
            value: clip(v),
        };
        if v.len() % 2 != 0 || !v.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(bad());
        }
        let bytes = (0..v.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&v[i..i + 2], 16).expect("checked hex"))
            .collect();
        String::from_utf8(bytes).map_err(|_| bad())
    }

    /// Assert the stream is fully consumed.
    pub fn finish(mut self) -> Result<(), SnapError> {
        match self.toks.next() {
            None => Ok(()),
            Some(tok) => Err(SnapError::TrailingTokens { token: clip(tok) }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_token_type() {
        let mut w = SnapWriter::new();
        w.u64("a", u64::MAX);
        w.u32("b", 7);
        w.u16("c", 65535);
        w.u8("d", 255);
        w.usize("e", 12);
        w.bool("f", true);
        w.bool("g", false);
        w.f64("h", -0.0);
        w.f64("i", f64::NAN);
        w.time("t", SimTime(42));
        w.dur("u", SimDuration(1_000_000_007));
        w.text("s", "a b=c\n\u{1}é");
        w.text("e", "");
        let line = w.finish();

        let mut r = SnapReader::new(&line);
        assert_eq!(r.u64("a").unwrap(), u64::MAX);
        assert_eq!(r.u32("b").unwrap(), 7);
        assert_eq!(r.u16("c").unwrap(), 65535);
        assert_eq!(r.u8("d").unwrap(), 255);
        assert_eq!(r.usize("e").unwrap(), 12);
        assert!(r.bool("f").unwrap());
        assert!(!r.bool("g").unwrap());
        assert_eq!(r.f64("h").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64("i").unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.time("t").unwrap(), SimTime(42));
        assert_eq!(r.dur("u").unwrap(), SimDuration(1_000_000_007));
        assert_eq!(r.text("s").unwrap(), "a b=c\n\u{1}é");
        assert_eq!(r.text("e").unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn bit_exact_float_stability() {
        // Serializing a decoded float must reproduce the exact token.
        for v in [1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -1e-300] {
            let mut w = SnapWriter::new();
            w.f64("x", v);
            let line = w.finish();
            let got = SnapReader::new(&line).f64("x").unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
            let mut w2 = SnapWriter::new();
            w2.f64("x", got);
            assert_eq!(w2.finish(), line);
        }
    }

    #[test]
    fn wrong_key_is_typed() {
        let mut r = SnapReader::new("foo=1");
        assert_eq!(
            r.u64("bar"),
            Err(SnapError::WrongKey {
                expected: "bar",
                got: "foo".into()
            })
        );
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = SnapReader::new("a=1");
        r.u64("a").unwrap();
        assert_eq!(r.u64("b"), Err(SnapError::Truncated { key: "b" }));
    }

    #[test]
    fn out_of_range_narrowing_is_rejected() {
        let mut w = SnapWriter::new();
        w.u64("x", u64::from(u32::MAX) + 1);
        let line = w.finish();
        assert!(matches!(
            SnapReader::new(&line).u32("x"),
            Err(SnapError::BadValue { key: "x", .. })
        ));
    }

    #[test]
    fn bad_bool_and_garbage_are_rejected() {
        assert!(matches!(
            SnapReader::new("x=2").bool("x"),
            Err(SnapError::BadValue { .. })
        ));
        assert!(matches!(
            SnapReader::new("x=zz").u64("x"),
            Err(SnapError::BadValue { .. })
        ));
        assert!(matches!(
            SnapReader::new("keyonly").u64("x"),
            Err(SnapError::WrongKey { .. })
        ));
    }

    #[test]
    fn malformed_text_is_rejected() {
        // Odd length, a non-hex pair, a sign `from_str_radix` would accept,
        // and bytes that are not UTF-8.
        for bad in ["x=abc", "x=zz", "x=+1", "x=ff"] {
            assert!(
                matches!(
                    SnapReader::new(bad).text("x"),
                    Err(SnapError::BadValue { key: "x", .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let r = SnapReader::new("a=1 b=2");
        assert!(matches!(r.finish(), Err(SnapError::TrailingTokens { .. })));
    }

    #[test]
    fn long_values_are_clipped_in_errors() {
        let long = format!("x={}", "y".repeat(200));
        let err = SnapReader::new(&long).u64("x").unwrap_err();
        if let SnapError::BadValue { value, .. } = err {
            assert!(value.len() < 60);
        } else {
            panic!("expected BadValue");
        }
    }
}
