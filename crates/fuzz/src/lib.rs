//! `qlsmith` — grammar-driven dual-language differential fuzzing for the
//! QB2OLAP pipeline.
//!
//! Modeled on the role `sparql-smith` plays for Oxigraph: a seeded,
//! reproducible generator that walks the **entire** grammar of both query
//! languages the suite speaks and feeds a differential oracle.
//!
//! * [`fixture`] builds the fuzz cube — a deterministic QB4OLAP dataset
//!   with ragged hierarchies, all five aggregate functions over integer
//!   *and* float measures, and attribute values of every dice-constant
//!   type.
//! * [`universe`] introspects a live cube (endpoint + schema) into the
//!   member/level/attribute tables the generators sample from, which is
//!   why ~100% of generated queries are well-formed.
//! * [`ql_gen`] generates QL pipeline programs covering every
//!   [`ql::ast`] production; [`sparql_gen`] generates SPARQL SELECT
//!   queries covering every [`sparql::ast`] production.
//! * [`diff`] executes each program through every execution backend (and
//!   each SPARQL query through the parsed *and* text paths) and asserts
//!   bit-identical results.
//! * [`shrink`] greedily minimizes a mismatching program; [`corpus`]
//!   persists minimized programs as self-contained regression files.
//!
//! # Environment knobs
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `QB2OLAP_FUZZ_SEED` | `0xE155EED` | Campaign RNG seed |
//! | `QB2OLAP_FUZZ_PROGRAMS` | `120` | QL programs per campaign |
//! | `QB2OLAP_FUZZ_QUERIES` | `120` | SPARQL queries per campaign |
//!
//! CI pins the seed and raises the counts to 500/500 (see `ci.sh`).

#![warn(missing_docs)]

pub mod corpus;
pub mod diff;
pub mod fixture;
pub mod pool;
pub mod ql_gen;
pub mod shrink;
pub mod sparql_gen;
pub mod universe;

/// Reads a `u64` campaign knob from the environment (decimal, or hex with a
/// `0x`/`0X` prefix, surrounding whitespace ignored), falling back to
/// `default` when unset. A set-but-invalid value (empty text, garbage, a
/// sign, overflow past `u64::MAX`) warns once on stderr and falls back too:
/// a typo in a campaign runbook must neither panic the process nor vanish
/// without a trace. Knobs size test campaigns only; nothing on a serving
/// or query path reads the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    let Ok(text) = std::env::var(name) else {
        return default;
    };
    let trimmed = text.trim();
    let parsed = match trimmed
        .strip_prefix("0x")
        .or_else(|| trimmed.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => trimmed.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("warning: ignoring invalid {name}={text:?}, using {default}");
        default
    })
}

/// The campaign seed: `QB2OLAP_FUZZ_SEED` or `0xE155EED`.
pub fn campaign_seed() -> u64 {
    env_u64("QB2OLAP_FUZZ_SEED", 0xE15_5EED)
}

/// QL programs per campaign: `QB2OLAP_FUZZ_PROGRAMS` or 120.
pub fn campaign_programs() -> usize {
    env_u64("QB2OLAP_FUZZ_PROGRAMS", 120) as usize
}

/// SPARQL queries per campaign: `QB2OLAP_FUZZ_QUERIES` or 120.
pub fn campaign_queries() -> usize {
    env_u64("QB2OLAP_FUZZ_QUERIES", 120) as usize
}

/// Turns a grammar-production display name (e.g. `QlOperation::Slice` or
/// `ORDER BY … DESC`) into a metric counter key under `prefix`: lowercased,
/// with every non-alphanumeric run collapsed to a single dash.
pub fn production_metric_key(prefix: &str, production: &str) -> String {
    let mut key = String::with_capacity(prefix.len() + production.len());
    key.push_str(prefix);
    for c in production.chars() {
        if c.is_ascii_alphanumeric() {
            key.push(c.to_ascii_lowercase());
        } else if key.len() > prefix.len() && !key.ends_with('-') {
            key.push('-');
        }
    }
    while key.ends_with('-') {
        key.pop();
    }
    key
}

#[cfg(test)]
mod tests {
    #[test]
    fn production_keys_are_dotted_lowercase_kebab() {
        assert_eq!(
            super::production_metric_key("fuzz.ql.production.", "QlOperation::Slice"),
            "fuzz.ql.production.qloperation-slice"
        );
        assert_eq!(
            super::production_metric_key("fuzz.sparql.production.", "ORDER BY … DESC"),
            "fuzz.sparql.production.order-by-desc"
        );
        assert_eq!(super::production_metric_key("p.", "CmpOp#3"), "p.cmpop-3");
    }

    /// Env mutation is process-global: every case uses its own variable,
    /// so the suite stays order-independent under the parallel runner.
    #[test]
    fn env_knobs_parse_decimal_and_hex() {
        assert_eq!(super::env_u64("QB2OLAP_FUZZ_NO_SUCH_KNOB", 7), 7);
        for (suffix, text, expected) in [
            ("DEC", "42", 42),
            ("HEX", "0xff", 255),
            ("HEX_UPPER", "0XE155EED", 0xE15_5EED),
            ("PADDED", "  12  ", 12),
            // Set but invalid: warn and fall back to the default.
            ("EMPTY", "", 7),
            ("GARBAGE", "over 9000", 7),
            ("NEGATIVE", "-3", 7),
            ("FLOAT", "1.5", 7),
            // 2^64 exactly: one past u64::MAX in both spellings.
            ("OVERFLOW", "18446744073709551616", 7),
            ("OVERFLOW_HEX", "0x10000000000000000", 7),
        ] {
            let name = format!("QB2OLAP_FUZZ_TEST_KNOB_{suffix}");
            std::env::set_var(&name, text);
            assert_eq!(super::env_u64(&name, 7), expected, "{name}={text:?}");
        }
    }
}
