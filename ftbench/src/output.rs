//! The lines a run prints: a stamp line, then the result as the last line.

use crate::workload::Outcome;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"stamp": {...}, "errors": [...]}`: host, configuration, sample
/// counts and one line per failed execution.
pub fn stamp_line(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .stamp
        .iter()
        .map(|(k, v)| format!("{}: {}", esc(k), esc(v)))
        .collect();
    let errors: Vec<String> = o.errors.iter().map(|e| esc(e)).collect();
    format!(
        "{{\"stamp\": {{{}}}, \"errors\": [{}]}}",
        fields.join(", "),
        errors.join(", ")
    )
}

/// The result object: `correct`, `attempted`, `failed` and every metric
/// with its unit. Values print with every digit Rust's shortest
/// round-trip formatting gives.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", esc(name), esc(unit))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
