//! Centralized parsing of the `QB2OLAP_*` environment knobs.
//!
//! Before this module, every consumer parsed its knobs ad hoc — the fuzz
//! campaign accepted hex, the benches accepted only decimal, and an
//! invalid value either panicked (a `unwrap()` on the parse) or fell back
//! silently depending on which file you were in. Production incidents love
//! exactly that kind of divergence, so every knob now goes through one of
//! the two parsers here, both with **warn-and-default** semantics: an
//! unset variable is silently the default, while a *set but invalid* value
//! (empty, garbage, overflow) logs one warning line to stderr and then
//! behaves as if the variable were unset. A typo in a campaign runbook
//! must never panic the process.
//!
//! Knobs size test campaigns and benches only: nothing on a serving or
//! query path reads the environment (pruning and the overlay are
//! per-call options and oracle legs, not process-wide switches).
//!
//! This module lives in `obs` because `obs` is the workspace's shared
//! dependency-free kernel — every crate that reads a knob (fuzz, bench,
//! the integration tests) already depends on it. The `qb2olap` facade
//! re-exports it as `qb2olap::obs::env`.

/// Reads a `u64` knob (decimal, or hex with a `0x`/`0X` prefix), falling
/// back to `default` when unset. A set-but-invalid value (empty text,
/// garbage, overflow past `u64::MAX`) warns once on stderr and falls back.
pub fn u64_knob(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(_) => default,
        Ok(text) => {
            let trimmed = text.trim();
            let parsed = if let Some(hex) = trimmed
                .strip_prefix("0x")
                .or_else(|| trimmed.strip_prefix("0X"))
            {
                u64::from_str_radix(hex, 16)
            } else {
                trimmed.parse()
            };
            match parsed {
                Ok(value) => value,
                Err(_) => {
                    warn_invalid(name, &text, &default.to_string());
                    default
                }
            }
        }
    }
}

/// Reads a `usize` knob with the same syntax and warn-and-default
/// semantics as [`u64_knob`]. Values past `usize::MAX` warn and default.
pub fn usize_knob(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(_) => match usize::try_from(u64_knob(name, default as u64)) {
            Ok(value) => value,
            Err(_) => {
                warn_invalid(name, "(out of usize range)", &default.to_string());
                default
            }
        },
    }
}

/// One stderr line per invalid read. Deliberately unbuffered and
/// deliberately not a panic: knobs tune campaigns, and a malformed value
/// must neither take the process down nor vanish without a trace.
fn warn_invalid(name: &str, got: &str, fallback: &str) {
    eprintln!("warning: ignoring invalid {name}={got:?}, using {fallback}");
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation is process-global; each test uses its own variable name
    // so the suite stays order-independent under the parallel test runner.

    #[test]
    fn unset_is_the_default() {
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_UNSET", 7), 7);
        assert_eq!(usize_knob("QB2OLAP_ENV_TEST_UNSET", 9), 9);
    }

    #[test]
    fn decimal_and_hex_parse() {
        std::env::set_var("QB2OLAP_ENV_TEST_DEC", "42");
        std::env::set_var("QB2OLAP_ENV_TEST_HEX", "0xff");
        std::env::set_var("QB2OLAP_ENV_TEST_HEX_UPPER", "0XE155EED");
        std::env::set_var("QB2OLAP_ENV_TEST_PADDED", "  12  ");
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_DEC", 7), 42);
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_HEX", 7), 255);
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_HEX_UPPER", 7), 0xE15_5EED);
        assert_eq!(usize_knob("QB2OLAP_ENV_TEST_PADDED", 7), 12);
    }

    #[test]
    fn empty_value_warns_and_defaults() {
        std::env::set_var("QB2OLAP_ENV_TEST_EMPTY", "");
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_EMPTY", 5), 5);
        assert_eq!(usize_knob("QB2OLAP_ENV_TEST_EMPTY", 6), 6);
    }

    #[test]
    fn garbage_warns_and_defaults() {
        std::env::set_var("QB2OLAP_ENV_TEST_GARBAGE", "over 9000");
        std::env::set_var("QB2OLAP_ENV_TEST_NEGATIVE", "-3");
        std::env::set_var("QB2OLAP_ENV_TEST_FLOAT", "1.5");
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_GARBAGE", 11), 11);
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_NEGATIVE", 11), 11);
        assert_eq!(usize_knob("QB2OLAP_ENV_TEST_FLOAT", 11), 11);
    }

    #[test]
    fn overflow_warns_and_defaults() {
        // 2^64 exactly: one past u64::MAX in both spellings.
        std::env::set_var("QB2OLAP_ENV_TEST_OVERFLOW", "18446744073709551616");
        std::env::set_var("QB2OLAP_ENV_TEST_OVERFLOW_HEX", "0x10000000000000000");
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_OVERFLOW", 13), 13);
        assert_eq!(u64_knob("QB2OLAP_ENV_TEST_OVERFLOW_HEX", 13), 13);
        assert_eq!(usize_knob("QB2OLAP_ENV_TEST_OVERFLOW", 13), 13);
    }
}
