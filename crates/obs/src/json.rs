//! The JSON string escaper shared by every hand-rendered JSON document in
//! the lower layers (the obs sinks, the simulator's audit report, the
//! explorer's counterexamples, the bench timing rows).

use std::fmt::Write as _;

/// Escapes `s` for embedding between the quotes of a JSON string: `"` and
/// `\` are backslash-escaped, `\n`/`\r`/`\t` use their short forms, and the
/// remaining control characters become `\u00XX`.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}
