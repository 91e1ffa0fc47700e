//! Order-independent numeric aggregation, shared by every engine that must
//! agree **bit-for-bit** on aggregate values.
//!
//! The SPARQL evaluator and the columnar cube engine both compute SUM and
//! AVG over the same multisets of values, but they visit the values in
//! different orders (SPARQL in solution order, the columnar scan in row or
//! chunk order, incremental maintenance in append order). Naive `f64`
//! accumulation makes the result depend on that order in the last ulp, so
//! it used to force the columnar engine to refuse float-measure deltas and
//! to keep its chunked scan integral-only. The types here remove the order
//! dependence at the root:
//!
//! * [`CompensatedSum`] keeps the running sum as a Shewchuk-style
//!   *expansion* — a short list of non-overlapping `f64` partials built
//!   from two-sum (Neumaier) steps whose exact sum equals the exact
//!   (infinite-precision) sum of every value added. [`CompensatedSum::value`]
//!   rounds that exact sum to the nearest `f64` once, so the result is the
//!   **correctly rounded exact sum**: it depends only on the multiset of
//!   inputs, never on the order they arrived in or how they were
//!   partitioned across threads (error ≤ 0.5 ulp; plain Neumaier
//!   summation alone would be within ~1 ulp but *not* order-independent).
//! * [`NumericSum`] adds the SPARQL engine's value model on top: integer
//!   inputs accumulate exactly in an `i128`, float inputs go through the
//!   compensated expansion, and [`NumericSum::sum_term`] applies the
//!   engine's SUM typing rules (integral inputs keep `xsd:integer` results
//!   where the engine historically kept them).
//!
//! Inputs must be finite (measure literals always are); behaviour on
//! infinities/NaN is unspecified. The order-independence guarantee also
//! assumes no intermediate overflow — i.e. the exact sum of every prefix,
//! in whatever order values arrive, stays within `f64` range — which holds
//! for any realistic statistical data.

use rdf::{Numeric, Term};

/// An order-independent, correctly rounded `f64` accumulator.
///
/// See the [module docs](self) for the guarantee; the implementation
/// follows `math.fsum` (Shewchuk's grow-expansion over two-sum steps, with
/// the round-half-even correction on read-out).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompensatedSum {
    /// Non-overlapping partials in increasing magnitude order; their exact
    /// sum is the exact sum of every value added so far.
    partials: Vec<f64>,
}

impl CompensatedSum {
    /// An empty sum (value `0.0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value to the exact running sum.
    pub fn add(&mut self, mut x: f64) {
        let mut kept = 0;
        for index in 0..self.partials.len() {
            let mut y = self.partials[index];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            // Two-sum: hi + lo == x + y exactly, |lo| ≤ ulp(hi)/2.
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        self.partials.truncate(kept);
        self.partials.push(x);
    }

    /// Adds an exact `i128` (used to fold an exact integer sub-sum into a
    /// float total): the integer is split into `f64`-exact chunks of 52
    /// bits, each scaled by an exact power of two.
    pub fn add_i128(&mut self, value: i128) {
        let negative = value < 0;
        let mut magnitude = value.unsigned_abs();
        let mut shift = 0i32;
        while magnitude != 0 {
            let chunk = (magnitude & ((1u128 << 52) - 1)) as f64;
            let scaled = chunk * (2f64).powi(shift);
            self.add(if negative { -scaled } else { scaled });
            magnitude >>= 52;
            shift += 52;
        }
    }

    /// Folds another accumulator in. Exact: the merged expansion represents
    /// the sum of both exact sums, so merging per-chunk accumulators from a
    /// partitioned scan yields the same [`CompensatedSum::value`] as one
    /// sequential pass, for any partitioning.
    pub fn merge(&mut self, other: &CompensatedSum) {
        for &partial in &other.partials {
            self.add(partial);
        }
    }

    /// The exact sum, rounded once to the nearest `f64` (ties to even).
    pub fn value(&self) -> f64 {
        let partials = &self.partials;
        let mut n = partials.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = partials[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = partials[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        // Make round-half-even work across several partials: if the
        // discarded half-ulp is backed by further partials of the same
        // sign, the exact sum lies strictly beyond the halfway point.
        if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

/// How the engine reads one numeric literal, parsed once: comparisons and
/// arithmetic use [`NumericValue::double`]; aggregation routes a lexical
/// form that also parses as `i64` through the exact integer path. The
/// evaluator caches one of these per distinct term id instead of re-parsing
/// the lexical form per comparison or per aggregated row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericValue {
    /// The `f64` reading ([`rdf::Literal::as_double`]).
    pub double: f64,
    /// The `i64` reading ([`rdf::Literal::as_integer`]), when the lexical form
    /// has one.
    pub integer: Option<i64>,
}

impl NumericValue {
    /// Parses `term`; `None` unless it is a numeric literal with a valid
    /// lexical form.
    pub fn of(term: &Term) -> Option<Self> {
        let literal = term.as_literal()?;
        Some(NumericValue {
            double: literal.as_double()?,
            integer: literal.as_integer(),
        })
    }
}

/// A SUM/AVG accumulator with the SPARQL engine's value model and typing
/// rules, usable incrementally and mergeable across scan partitions.
///
/// Values are routed by how the engine reads the *literal*: a lexical form
/// that parses as `i64` (every canonical `xsd:integer`, but also e.g. the
/// canonical `xsd:double` form `"2"`) accumulates exactly in an `i128`;
/// everything else goes through the order-independent [`CompensatedSum`].
/// Both engines must route identically for the typing rules to agree —
/// [`NumericSum::add_term`] implements the literal-side routing, and the
/// columnar engine mirrors it per measure-vector variant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NumericSum {
    /// Exact sum of the integer-routed inputs.
    int_sum: i128,
    /// Exact-rounded sum of the float-routed inputs.
    float_sum: CompensatedSum,
    /// True once any input took the float route.
    saw_float: bool,
    /// True while every input (either route) was an integral number — the
    /// condition under which the engine's SUM historically stayed
    /// `xsd:integer`.
    all_integral: bool,
}

impl NumericSum {
    /// An empty sum.
    pub fn new() -> Self {
        NumericSum {
            all_integral: true,
            ..Default::default()
        }
    }

    /// A sum of exclusively integer-routed inputs whose exact total a caller
    /// already holds (the columnar scan keeps integer measures in a bare
    /// `i128`), so the typing rules of [`NumericSum::sum_term`] and the
    /// rounding of [`NumericSum::value`] stay defined in one place.
    pub fn from_integer_total(total: i128) -> Self {
        NumericSum {
            int_sum: total,
            ..Self::new()
        }
    }

    /// Accumulates an integer-routed value (exact).
    pub fn add_integer(&mut self, value: i64) {
        self.int_sum += value as i128;
    }

    /// Accumulates a float-routed value.
    pub fn add_float(&mut self, value: f64) {
        self.saw_float = true;
        if value.fract() != 0.0 {
            self.all_integral = false;
        }
        self.float_sum.add(value);
    }

    /// Accumulates a term the way the SPARQL engine reads it. Returns
    /// `false` (leaving the sum untouched) for non-numeric terms, on which
    /// the engine's aggregates error out.
    pub fn add_term(&mut self, term: &Term) -> bool {
        NumericValue::of(term)
            .map(|value| self.add_value(value))
            .is_some()
    }

    /// Accumulates an already-parsed value along the route its literal
    /// takes (see [`NumericValue`]).
    pub fn add_value(&mut self, value: NumericValue) {
        match value.integer {
            Some(integer) => self.add_integer(integer),
            None => self.add_float(value.double),
        }
    }

    /// Folds another accumulator in (partitioned scans). Exact.
    pub fn merge(&mut self, other: &NumericSum) {
        self.int_sum += other.int_sum;
        self.float_sum.merge(&other.float_sum);
        self.saw_float |= other.saw_float;
        self.all_integral &= other.all_integral;
    }

    /// The total as an `f64`: the exact sum of both routes, correctly
    /// rounded once. Order- and partition-independent.
    pub fn value(&self) -> f64 {
        if !self.saw_float {
            return self.int_sum as f64;
        }
        if self.int_sum == 0 {
            return self.float_sum.value();
        }
        let mut total = self.float_sum.clone();
        total.add_i128(self.int_sum);
        total.value()
    }

    /// The SUM result with the engine's typing rules: a sum of exclusively
    /// integer-routed inputs stays an exact `xsd:integer` while it fits
    /// `i64`; a sum involving float-routed inputs stays `xsd:integer` when
    /// every input was integral and the total is within the exact range
    /// (the engine's historical `9.0e15` cutoff); everything else is an
    /// `xsd:decimal` of the correctly rounded total.
    pub fn sum_term(&self) -> Term {
        Term::Literal(self.sum_numeric().into())
    }

    /// [`NumericSum::sum_term`] before it is formatted into a literal.
    pub fn sum_numeric(&self) -> Numeric {
        if !self.saw_float {
            if let Ok(value) = i64::try_from(self.int_sum) {
                return Numeric::Integer(value);
            }
            return Numeric::Decimal(self.value());
        }
        let total = self.value();
        if self.all_integral && total.abs() < 9.0e15 {
            Numeric::Integer(total as i64)
        } else {
            Numeric::Decimal(total)
        }
    }
}

/// MIN with a deterministic signed-zero tie-break (`-0.0 < 0.0`):
/// `f64::min(-0.0, 0.0)` may return either operand, which would make the
/// winning value depend on scan order / chunk partitioning. Treating the
/// negative zero as strictly smaller matches the engine's term-level MIN,
/// which falls back to the lexical ordering (`"-0" < "0"`) when the
/// numeric comparison ties — so every consumer (the SPARQL aggregate path
/// and the columnar measure scan in `cubestore`) picks the same winning
/// term regardless of visit order.
#[inline]
pub fn float_min(a: f64, b: f64) -> f64 {
    if b < a || (b == a && b.is_sign_negative()) {
        b
    } else {
        a
    }
}

/// MAX with the mirror tie-break (`0.0 > -0.0`); see [`float_min`].
#[inline]
pub fn float_max(a: f64, b: f64) -> f64 {
    if b > a || (b == a && b.is_sign_positive()) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rdf::Literal;

    fn fsum(values: &[f64]) -> f64 {
        let mut sum = CompensatedSum::new();
        for &v in values {
            sum.add(v);
        }
        sum.value()
    }

    #[test]
    fn float_min_max_break_signed_zero_ties_deterministically() {
        // Both argument orders must agree: `f64::min(-0.0, 0.0)` is allowed
        // to return either operand, which would leak visit order.
        for (a, b) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            assert!(float_min(a, b).is_sign_negative());
            assert!(float_max(a, b).is_sign_positive());
        }
        // Plain ordering still wins over the tie-break.
        assert_eq!(float_min(1.0, -2.0), -2.0);
        assert_eq!(float_max(1.0, -2.0), 1.0);
        // Infinities and extremes pass through untouched.
        assert_eq!(float_max(f64::NEG_INFINITY, -0.0), -0.0);
        assert_eq!(float_min(f64::INFINITY, 0.5), 0.5);
        assert_eq!(float_max(f64::MAX, 1.0), f64::MAX);
        assert_eq!(float_min(-f64::MAX, f64::MAX), -f64::MAX);
        // Subnormals order correctly against zero and each other.
        let tiny = 5e-324f64;
        assert_eq!(float_min(tiny, 0.0), 0.0);
        assert_eq!(float_max(tiny, 0.0), tiny);
        assert_eq!(float_min(-tiny, tiny), -tiny);
        assert_eq!(float_max(-tiny, -0.0), -0.0);
    }

    #[test]
    fn float_min_max_are_merge_order_independent() {
        // Reducing a value set in any chunking / order must yield the same
        // bits — the property the columnar chunked scan relies on.
        let values = [0.0f64, -0.0, 5e-324, -5e-324, f64::MAX, -f64::MAX, 2.5];
        let reduce = |order: &[usize]| {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &i in order {
                min = float_min(min, values[i]);
                max = float_max(max, values[i]);
            }
            (min, max)
        };
        let forward: Vec<usize> = (0..values.len()).collect();
        let reverse: Vec<usize> = (0..values.len()).rev().collect();
        let rotated: Vec<usize> = (0..values.len()).map(|i| (i + 3) % values.len()).collect();
        let expected = reduce(&forward);
        for order in [&reverse, &rotated] {
            let got = reduce(order);
            assert_eq!(got.0.to_bits(), expected.0.to_bits());
            assert_eq!(got.1.to_bits(), expected.1.to_bits());
        }
        assert_eq!(expected.0.to_bits(), (-f64::MAX).to_bits());
        assert_eq!(expected.1.to_bits(), f64::MAX.to_bits());
    }

    #[test]
    fn adversarial_cancellation_is_exact() {
        // Naive left-to-right summation gets all of these wrong.
        assert_eq!(fsum(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(fsum(&[1.0, 1e100, 1.0, -1e100]), 2.0);
        assert_eq!(fsum(&[1e16, 1.0, 1.0, 1.0, 1.0, -1e16]), 4.0);
        // Denormals survive.
        assert_eq!(fsum(&[5e-324, 5e-324, -5e-324]), 5e-324);
        // Alternating signs with a tiny residue: 500 × ((1e15 + 1) − 1e15).
        let mut values = Vec::new();
        for i in 0..1000 {
            values.push(if i % 2 == 0 { 1e15 + 1.0 } else { -1e15 });
        }
        assert_eq!(fsum(&values), 500.0);
    }

    #[test]
    fn signed_zeros_behave_like_ieee() {
        assert_eq!(fsum(&[]).to_bits(), 0f64.to_bits());
        assert_eq!(fsum(&[-0.0, -0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(fsum(&[-0.0, 0.0]).to_bits(), 0f64.to_bits());
        assert_eq!(fsum(&[1.0, -1.0]).to_bits(), 0f64.to_bits());
    }

    /// The exact reference: inputs are constructed as `k · 2⁻²⁰` with
    /// integer `k`, so the exact sum is `(Σk) · 2⁻²⁰` with `Σk` computed in
    /// `i128`; rounding `Σk` to `f64` and scaling by the exact power of two
    /// is the correctly rounded exact sum.
    fn scaled_reference(numerators: &[i128]) -> f64 {
        let total: i128 = numerators.iter().sum();
        (total as f64) * (2f64).powi(-20)
    }

    #[test]
    fn property_correctly_rounded_and_order_independent() {
        let mut rng = StdRng::seed_from_u64(0x5EED_F00D);
        for _ in 0..200 {
            let n = rng.gen_range(3..120usize);
            let mut numerators: Vec<i128> = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix magnitudes over ~15 binary orders plus sign flips, so
                // partial sums cancel hard.
                let magnitude = rng.gen_range(0..50u32);
                let base: i64 = rng.gen_range(-(1i64 << 36)..(1i64 << 36));
                numerators.push((base as i128) << (magnitude % 15));
            }
            let values: Vec<f64> = numerators
                .iter()
                .map(|&k| (k as f64) * (2f64).powi(-20))
                .collect();
            // Every numerator is < 2^52, so each value is exact in f64.
            for (&k, &v) in numerators.iter().zip(&values) {
                assert_eq!((v * (2f64).powi(20)) as i128, k);
            }
            let reference = scaled_reference(&numerators);
            let forward = fsum(&values);
            assert_eq!(
                forward.to_bits(),
                reference.to_bits(),
                "compensated sum is not the correctly rounded exact sum"
            );

            // Shuffled orders: bit-identical.
            let mut shuffled = values.clone();
            for _ in 0..4 {
                for i in (1..shuffled.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    shuffled.swap(i, j);
                }
                assert_eq!(fsum(&shuffled).to_bits(), reference.to_bits());
            }

            // Partitioned into 1/2/8 chunks and merged: bit-identical (the
            // multi-threaded scan's merge path).
            for chunks in [1usize, 2, 8] {
                let mut merged = CompensatedSum::new();
                for chunk in shuffled.chunks(shuffled.len().div_ceil(chunks)) {
                    let mut partial = CompensatedSum::new();
                    for &v in chunk {
                        partial.add(v);
                    }
                    merged.merge(&partial);
                }
                assert_eq!(merged.value().to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn add_i128_folds_exactly() {
        let mut sum = CompensatedSum::new();
        sum.add(0.5);
        sum.add_i128(i64::MAX as i128 * 3);
        let expected = ((i64::MAX as i128 * 3) as f64) + 0.5; // 0.5 vanishes in rounding
        assert_eq!(sum.value(), expected);
        let mut negative = CompensatedSum::new();
        negative.add_i128(-(1i128 << 100));
        assert_eq!(negative.value(), -((1i128 << 100) as f64));
        let mut zero = CompensatedSum::new();
        zero.add_i128(0);
        assert_eq!(zero.value(), 0.0);
    }

    #[test]
    fn numeric_sum_typing_rules() {
        // Pure integer inputs: exact xsd:integer over the full i64 range.
        let mut ints = NumericSum::new();
        ints.add_integer(i64::MAX);
        ints.add_integer(-7);
        ints.add_integer(7);
        assert_eq!(ints.sum_term(), Term::Literal(Literal::integer(i64::MAX)));

        // Integer overflow past i64 falls back to a rounded decimal.
        let mut overflow = NumericSum::new();
        overflow.add_integer(i64::MAX);
        overflow.add_integer(i64::MAX);
        assert_eq!(
            overflow.sum_term(),
            Term::Literal(Literal::decimal((i64::MAX as i128 * 2) as f64))
        );

        // Integral floats keep the engine's historical integer typing...
        let mut integral = NumericSum::new();
        integral.add_float(2.0);
        integral.add_float(3.0);
        assert_eq!(integral.sum_term(), Term::Literal(Literal::integer(5)));
        // ... while fractional floats produce decimals.
        let mut fractional = NumericSum::new();
        fractional.add_float(2.5);
        fractional.add_integer(1);
        assert_eq!(fractional.sum_term(), Term::Literal(Literal::decimal(3.5)));
        assert_eq!(fractional.value(), 3.5);

        // Integral floats beyond the exact range turn decimal.
        let mut huge = NumericSum::new();
        huge.add_float(9.0e15);
        huge.add_float(1.0);
        assert_eq!(
            huge.sum_term(),
            Term::Literal(Literal::decimal(9.0e15 + 1.0))
        );

        // Empty sum: integer zero (SPARQL's SUM over an empty group).
        assert_eq!(
            NumericSum::new().sum_term(),
            Term::Literal(Literal::integer(0))
        );
        assert_eq!(NumericSum::new().value(), 0.0);
    }

    #[test]
    fn term_routing_matches_the_engine() {
        let mut sum = NumericSum::new();
        assert!(sum.add_term(&Term::Literal(Literal::integer(2))));
        assert!(sum.add_term(&Term::Literal(Literal::decimal(0.5))));
        // Canonical xsd:double "2" parses as an integer, exactly like the
        // evaluator's `as_integer` read.
        assert!(sum.add_term(&Term::Literal(Literal::double(2.0))));
        assert_eq!(sum.value(), 4.5);
        assert!(!sum.add_term(&Term::iri("http://not-a-number")));
        assert!(!sum.add_term(&Term::Literal(Literal::string("nan"))));
        assert_eq!(sum.value(), 4.5, "rejected terms leave the sum untouched");
    }

    #[test]
    fn merge_is_partition_independent() {
        let mut rng = StdRng::seed_from_u64(0xACC);
        let values: Vec<f64> = (0..300)
            .map(|_| (rng.gen_range(-(1i64 << 40)..(1i64 << 40)) as f64) * (2f64).powi(-10))
            .collect();
        let mut sequential = NumericSum::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 3 == 0 {
                sequential.add_integer(i as i64);
            }
            sequential.add_float(v);
        }
        for chunks in [2usize, 5, 8] {
            let mut merged = NumericSum::new();
            let size = values.len().div_ceil(chunks);
            for (chunk_index, chunk) in values.chunks(size).enumerate() {
                let mut partial = NumericSum::new();
                for (offset, &v) in chunk.iter().enumerate() {
                    let i = chunk_index * size + offset;
                    if i % 3 == 0 {
                        partial.add_integer(i as i64);
                    }
                    partial.add_float(v);
                }
                merged.merge(&partial);
            }
            assert_eq!(merged.value().to_bits(), sequential.value().to_bits());
            assert_eq!(merged.sum_term(), sequential.sum_term());
        }
    }
}
