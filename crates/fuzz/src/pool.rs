//! The fuzzer's value pool: the numeric edge cases every campaign must
//! push through the aggregation and comparison paths.
//!
//! The pool deliberately over-weights the values that have historically
//! broken float determinism — signed zeros (MIN/MAX tie-breaks), subnormals
//! (compensated-sum underflow), `f64::MAX` (overflow at the summation rim)
//! and `i64::MAX`-adjacent integers (exact-vs-`f64` comparison divergence).

use rand::rngs::StdRng;
use rand::Rng;

/// Float edge cases for MIN/MAX measure columns and dice constants. Every
/// value renders in plain decimal notation (Rust's `Display` never emits an
/// exponent), so each one survives the QL text round-trip.
pub const FLOAT_EXTREMES: [f64; 10] = [
    0.0,
    -0.0,
    f64::MAX,
    -f64::MAX,
    5e-324,  // smallest positive subnormal
    -5e-324, // largest negative subnormal
    1.5,
    -2.25,
    100.0,
    -0.75,
];

/// Integer edge cases: the `i64` rim, where `f64` rounding collapses
/// adjacent values, plus unremarkable small numbers.
pub const INT_EXTREMES: [i64; 10] = [
    i64::MAX,
    i64::MAX - 1,
    i64::MIN + 2,
    i64::MIN + 3,
    0,
    -1,
    1,
    7,
    -360,
    4096,
];

/// Draws one float from [`FLOAT_EXTREMES`].
pub fn float_extreme(rng: &mut StdRng) -> f64 {
    FLOAT_EXTREMES[rng.gen_range(0..FLOAT_EXTREMES.len())]
}

/// Draws one integer from [`INT_EXTREMES`].
pub fn int_extreme(rng: &mut StdRng) -> i64 {
    INT_EXTREMES[rng.gen_range(0..INT_EXTREMES.len())]
}

/// A bounded decimal in quarter steps — safe for SUM/AVG columns, where an
/// `f64::MAX` would overflow the compensated sum to infinity.
pub fn bounded_decimal(rng: &mut StdRng) -> f64 {
    rng.gen_range(-4_000..=4_000i64) as f64 / 4.0
}

/// True when `value`'s lexical form survives the QL text round-trip
/// bit-for-bit: finite, rendered by `Display` without an exponent, and
/// parsing the rendered text recovers exactly the same bits. Non-finite
/// values (`inf`, `NaN`) are rejected outright — their lexical forms are
/// not QL number literals even though Rust's `f64::from_str` accepts them.
pub fn round_trips(value: f64) -> bool {
    if !value.is_finite() {
        return false;
    }
    parse_dice_literal(&format!("{value}")).is_some_and(|back| back.to_bits() == value.to_bits())
}

/// Parses a pooled numeric literal's lexical form back into an `f64`,
/// returning `None` for anything that is not a plain finite decimal — the
/// graceful counterpart of the `parse().unwrap()` this pool used to lean
/// on, which panicked the whole campaign when a lexical form came back
/// non-finite or in exponent notation.
pub fn parse_dice_literal(text: &str) -> Option<f64> {
    if text.is_empty() || text.contains(['e', 'E', 'x', 'X']) {
        return None;
    }
    let value: f64 = text.parse().ok()?;
    value.is_finite().then_some(value)
}

/// A numeric constant for a QL dice comparison: usually a small value near
/// the data, sometimes an extreme. Everything returned here renders without
/// an exponent and re-parses bit-for-bit, so `QlProgram::to_ql_string`
/// output re-parses; a draw whose lexical form would not round-trip is
/// skipped and regenerated instead of poisoning the program (and, two
/// layers up, panicking the differential driver).
pub fn dice_number(rng: &mut StdRng) -> f64 {
    for _ in 0..32 {
        let value = match rng.gen_range(0..6u8) {
            0 => float_extreme(rng),
            1 => int_extreme(rng) as f64,
            _ => bounded_decimal(rng),
        };
        if round_trips(value) {
            return value;
        }
    }
    // Every pool constant round-trips today, so this is unreachable unless
    // someone adds e.g. f64::INFINITY to FLOAT_EXTREMES — in which case the
    // campaign degrades to a safe constant instead of panicking.
    0.25
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The satellite contract: the pool must contain `-0.0`, `f64::MAX`,
    /// subnormals, and `i64::MAX`-adjacent integers.
    #[test]
    fn pool_contains_the_required_edge_cases() {
        assert!(FLOAT_EXTREMES
            .iter()
            .any(|v| *v == 0.0 && v.is_sign_negative()));
        assert!(FLOAT_EXTREMES.contains(&f64::MAX));
        assert!(FLOAT_EXTREMES.iter().any(|v| v.is_subnormal() && *v > 0.0));
        assert!(INT_EXTREMES.contains(&i64::MAX));
        assert!(INT_EXTREMES.contains(&(i64::MAX - 1)));
    }

    /// Every pool value must survive `format!("{}")` → parse bit-for-bit —
    /// the QL text round-trip the differential driver takes. Checked
    /// through the graceful parser, so a regression shows up as a test
    /// failure rather than a campaign panic.
    #[test]
    fn pool_values_round_trip_through_plain_decimal_text() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let v = dice_number(&mut rng);
            let text = format!("{v}");
            assert!(!text.contains('e') && !text.contains('E'), "{text}");
            let back = parse_dice_literal(&text)
                .unwrap_or_else(|| panic!("dice_number produced a non-round-trippable {text:?}"));
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    /// Regression for the campaign panic: the lexical forms that used to
    /// blow up `text.parse::<f64>().unwrap()` — non-finite spellings Rust's
    /// parser happily accepts, exotic exponent text, hex floats, garbage —
    /// must come back as a graceful `None`, never a panic.
    #[test]
    fn offending_lexical_forms_are_skipped_not_panicked() {
        for text in [
            "inf",
            "-inf",
            "infinity",
            "+infinity",
            "NaN",
            "nan",
            "-NaN", // non-finite
            "1e400",
            "-1e400", // overflow to ±inf through the parser
            "5E-2",
            "1e3",
            "2.5e0", // exponent notation QL never emits
            "0x1p3",
            "0x10", // hex forms
            "",
            " ",
            "12.5.3",
            "twelve",
            "1_000", // plain garbage
        ] {
            assert_eq!(
                parse_dice_literal(text),
                None,
                "{text:?} must be rejected gracefully"
            );
        }
        // ...while every plain decimal still parses exactly.
        assert_eq!(parse_dice_literal("1.5"), Some(1.5));
        assert_eq!(parse_dice_literal("-0.75"), Some(-0.75));
        assert_eq!(parse_dice_literal("4096"), Some(4096.0));
    }

    /// The regeneration loop: non-finite values never escape
    /// `dice_number`, and `round_trips` is the gate that keeps them out.
    #[test]
    fn non_finite_values_never_escape_the_pool() {
        assert!(!round_trips(f64::INFINITY));
        assert!(!round_trips(f64::NEG_INFINITY));
        assert!(!round_trips(f64::NAN));
        for v in FLOAT_EXTREMES {
            assert!(round_trips(v), "{v} must round-trip");
        }
        for v in INT_EXTREMES {
            assert!(round_trips(v as f64), "{v} as f64 must round-trip");
        }
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        for _ in 0..500 {
            assert!(round_trips(dice_number(&mut rng)));
        }
    }
}
