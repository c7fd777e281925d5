//! Shared helpers for the repo's hand-rolled JSON emitters.
//!
//! Every emitter in the workspace (`JournalSnapshot::to_json`, the
//! scenario verdicts, the JSONL/Chrome exporters) writes JSON by hand to keep
//! the dependency set empty. That is fine for integers, but strings and
//! floats have sharp edges: an unescaped control character in an error
//! message breaks line framing, and `NaN`/`inf` are not JSON at all.
//! These helpers centralize both concerns so every emitter produces
//! parseable output byte-for-byte deterministically.

use std::fmt::Write as _;

/// Append `s` to `out` as the *contents* of a JSON string literal (no
/// surrounding quotes): `\` and `"` are backslash-escaped, the common
/// control characters use their short escapes, and every other control
/// character becomes `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] returning a fresh `String`.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `v` to `out` as a JSON number with `decimals` fractional
/// digits. Non-finite values are not representable in JSON and render as
/// `null`; finite values format exactly as `{v:.decimals$}` so existing
/// emitters keep their output bytes when routed through here.
pub fn push_f64(out: &mut String, v: f64, decimals: usize) {
    if v.is_finite() {
        let _ = write!(out, "{v:.decimals$}");
    } else {
        out.push_str("null");
    }
}

/// [`push_f64`] returning a fresh `String`.
pub fn f64_fixed(v: f64, decimals: usize) -> String {
    let mut out = String::new();
    push_f64(&mut out, v, decimals);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        assert_eq!(escaped(r#"plain text"#), "plain text");
        assert_eq!(escaped(r#"a "quoted" \ path"#), r#"a \"quoted\" \\ path"#);
        assert_eq!(escaped("line1\nline2\r\ttab"), r"line1\nline2\r\ttab");
        assert_eq!(escaped("\x00bell\x07"), r"\u0000bell\u0007");
        // Multi-byte characters pass through untouched.
        assert_eq!(escaped("snölök→"), "snölök→");
    }

    #[test]
    fn escaped_output_never_contains_raw_framing_hazards() {
        // The property the wire depends on: no raw newline, no raw quote.
        let nasty = "err\n\"quote\"\x01\\end";
        let out = escaped(nasty);
        assert!(!out.contains('\n'));
        assert!(!out.bytes().any(|b| b < 0x20));
        // Round-trippable: every escape is a standard JSON escape.
        assert_eq!(out, r#"err\n\"quote\"\u0001\\end"#);
    }

    #[test]
    fn floats_format_fixed_and_nonfinite_is_null() {
        assert_eq!(f64_fixed(0.5, 6), "0.500000");
        assert_eq!(f64_fixed(12.3456789, 3), "12.346");
        assert_eq!(f64_fixed(0.0, 3), "0.000");
        assert_eq!(f64_fixed(-1.25, 2), "-1.25");
        assert_eq!(f64_fixed(f64::NAN, 3), "null");
        assert_eq!(f64_fixed(f64::INFINITY, 6), "null");
        assert_eq!(f64_fixed(f64::NEG_INFINITY, 1), "null");
    }
}
