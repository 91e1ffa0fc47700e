//! The columns of a materialized cube: dictionary-encoded dimension-member
//! columns and dense typed measure vectors.
//!
//! All per-row storage is backed by [`CowVec`], so cloning a cube for a
//! delta refresh shares the sealed column segments instead of copying
//! every row, and an append extends only each column's small mutable tail
//! (see the [`crate::cowvec`] module docs for the cost model).

use qb4olap::AggregateFunction;
use rdf::{Iri, Literal, Numeric};

use crate::cowvec::CowVec;
use crate::dictionary::{Dictionary, MemberId, NO_MEMBER};
use crate::error::CubeStoreError;

/// One dimension of the fact table: the member of the dimension's bottom
/// level on each observation, dictionary-encoded.
#[derive(Debug, Clone)]
pub struct DimensionColumn {
    /// The dimension IRI (e.g. `schema:citizenshipDim`).
    pub dimension: Iri,
    /// The dimension's bottom level, which doubles as the observation
    /// property carrying the member (e.g. `property:citizen`).
    pub bottom_level: Iri,
    /// Per-row member codes into [`DimensionColumn::dictionary`]
    /// ([`NO_MEMBER`] where the observation has no value for the dimension).
    pub(crate) codes: CowVec<MemberId>,
    /// The bottom-member dictionary. It may contain members that are *not*
    /// declared `qb4o:memberOf` the bottom level; the roll-up maps decide
    /// what those members reach.
    pub dictionary: Dictionary,
}

impl DimensionColumn {
    /// Creates a column for a dimension with pre-encoded codes.
    pub fn new(
        dimension: Iri,
        bottom_level: Iri,
        codes: Vec<MemberId>,
        dictionary: Dictionary,
    ) -> Self {
        DimensionColumn {
            dimension,
            bottom_level,
            codes: CowVec::from_vec(codes),
            dictionary,
        }
    }

    /// The member code of one row ([`NO_MEMBER`] if unbound).
    #[inline]
    pub fn code(&self, row: usize) -> MemberId {
        *self.codes.get(row)
    }

    /// Iterates over the per-row codes in row order (tombstoned rows
    /// included — liveness lives on the cube, not the column).
    pub fn codes(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.codes.iter().copied()
    }

    /// The contiguous codes of one [`crate::cowvec::SEGMENT_LEN`]-row
    /// column segment (see [`CowVec::segment_slice`]), for segment-granular
    /// scans. Panics on a segment past the tail.
    #[inline]
    pub fn code_segment(&self, segment: usize) -> &[MemberId] {
        self.codes.segment_slice(segment)
    }

    /// Number of physical rows (tombstoned rows included).
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of physical rows with no member bound.
    pub fn unbound_rows(&self) -> usize {
        self.codes.iter().filter(|&&c| c == NO_MEMBER).count()
    }
}

/// One measure value routed for aggregation: integer-routed values
/// accumulate exactly (no `f64` round-trip), float-routed values go through
/// the order-independent compensated sum. See
/// [`MeasureVector::numeric_at`] for the routing rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureValue {
    /// An input the SPARQL engine reads as an integer.
    Integer(i64),
    /// An input the SPARQL engine reads as a float.
    Float(f64),
}

/// One column segment of a [`MeasureVector`], typed like the vector.
#[derive(Debug, Clone, Copy)]
pub enum MeasureSlice<'a> {
    /// `xsd:integer` values.
    Integer(&'a [i64]),
    /// `xsd:decimal` values.
    Decimal(&'a [f64]),
    /// `xsd:double` values.
    Double(&'a [f64]),
}

/// Routes one float-vector value exactly as the SPARQL engine routes the
/// corresponding literal into its aggregates: a lexical form that parses as
/// `i64` is an integer input, everything else a float input. The routing
/// decides which [`sparql::NumericSum`] path a value takes, so it must
/// match the literal-side routing bit-for-bit:
///
/// * `Integer` rows always route integer (canonical `xsd:integer` lexicals
///   always parse) and never come through here;
/// * `Double` values route integer when integral and within `i64` range
///   (the canonical lexical of `2.0` is `"2"`);
/// * `Decimal` values additionally need `|v| ≥ 1e15`: below that the
///   canonical lexical keeps a trailing `.0` and never parses as an
///   integer (see `rdf`'s decimal formatting).
///
/// `tests::numeric_routing_matches_the_literal_parse` pins the equivalence
/// against an actual parse of each row's literal.
#[inline]
pub(crate) fn route_float(value: f64, decimal: bool) -> MeasureValue {
    /// The `i64` the value's canonical lexical form denotes, if it parses
    /// as one. Below 2⁵³ the shortest round-trip form is the exact
    /// integer; beyond that it may denote a *neighbouring* integer
    /// (`4.611686018427388e18` prints as `"4611686018427388000"`, not
    /// 2⁶²), so the actual form is consulted — exactly what the engine's
    /// `as_integer` read does.
    fn int_if_lexically_integer(value: f64) -> Option<i64> {
        const TWO_53: f64 = 9_007_199_254_740_992.0;
        if value.fract() != 0.0 {
            return None;
        }
        if value.abs() < TWO_53 {
            return Some(value as i64);
        }
        value.to_string().parse::<i64>().ok()
    }
    match int_if_lexically_integer(value) {
        Some(int) if !decimal || value.abs() >= 1e15 => MeasureValue::Integer(int),
        _ => MeasureValue::Float(value),
    }
}

/// One element of a [`MeasureVector`], as stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum StoredMeasure {
    /// An element of an integer vector.
    Integer(i64),
    /// An element of a decimal or double vector.
    Float(f64),
}

/// A dense, typed vector of measure values.
///
/// An empty vector takes its variant from the XSD datatype of the first
/// literal the fact encoder accepts into it, and the encoder verifies that every literal round-trips exactly
/// through the variant's reconstruction (so MIN/MAX can return the same
/// [`rdf::Term`]s the SPARQL engine returns). Data that does not round-trip is
/// rejected as [`CubeStoreError::Unsupported`].
#[derive(Debug, Clone)]
pub enum MeasureVector {
    /// `xsd:integer` values.
    Integer(CowVec<i64>),
    /// `xsd:decimal` values.
    Decimal(CowVec<f64>),
    /// `xsd:double` values.
    Double(CowVec<f64>),
}

impl MeasureVector {
    /// Creates an empty vector of the variant matching `literal`'s datatype.
    pub fn for_literal(literal: &Literal) -> Result<Self, CubeStoreError> {
        let datatype = literal.datatype();
        if *datatype == rdf::vocab::xsd::integer() {
            Ok(MeasureVector::Integer(CowVec::new()))
        } else if *datatype == rdf::vocab::xsd::decimal() {
            Ok(MeasureVector::Decimal(CowVec::new()))
        } else if *datatype == rdf::vocab::xsd::double() {
            Ok(MeasureVector::Double(CowVec::new()))
        } else {
            Err(CubeStoreError::Unsupported(format!(
                "measure values of datatype <{}> are not supported by the columnar engine",
                datatype.as_str()
            )))
        }
    }

    /// The value this vector stores for `literal`, verified to reconstruct
    /// to exactly `literal`. Split from the append so the fact encoder
    /// parses each distinct literal once, however many rows carry it.
    pub(crate) fn stored_value(&self, literal: &Literal) -> Result<StoredMeasure, CubeStoreError> {
        let parsed = match self {
            MeasureVector::Integer(_) => literal
                .as_integer()
                .map(|v| (StoredMeasure::Integer(v), Literal::integer(v))),
            MeasureVector::Decimal(_) => literal
                .as_double()
                .map(|v| (StoredMeasure::Float(v), Literal::decimal(v))),
            MeasureVector::Double(_) => literal
                .as_double()
                .map(|v| (StoredMeasure::Float(v), Literal::double(v))),
        };
        match parsed {
            Some((value, rebuilt)) if rebuilt == *literal => Ok(value),
            _ => Err(CubeStoreError::Unsupported(format!(
                "measure literal \"{}\"^^<{}> does not round-trip through the columnar encoding",
                literal.lexical(),
                literal.datatype().as_str()
            ))),
        }
    }

    /// Appends a value [`MeasureVector::stored_value`] produced for this
    /// vector.
    pub(crate) fn push_stored(&mut self, value: StoredMeasure) {
        match (self, value) {
            (MeasureVector::Integer(values), StoredMeasure::Integer(v)) => values.push(v),
            (
                MeasureVector::Decimal(values) | MeasureVector::Double(values),
                StoredMeasure::Float(v),
            ) => values.push(v),
            _ => unreachable!("a stored value is pushed to the vector that produced it"),
        }
    }

    /// The numeric value of one row as `f64`. For [`MeasureVector::Integer`]
    /// this **rounds** above 2⁵³ (the `i64` → `f64` conversion is lossy
    /// there); aggregation goes through [`MeasureVector::numeric_at`]
    /// instead, which keeps integers exact end-to-end.
    #[inline]
    pub fn value(&self, row: usize) -> f64 {
        match self {
            MeasureVector::Integer(v) => *v.get(row) as f64,
            MeasureVector::Decimal(v) | MeasureVector::Double(v) => *v.get(row),
        }
    }

    /// One row routed exactly as the SPARQL engine routes the corresponding
    /// literal into its aggregates: integer rows always route integer,
    /// float rows by the lexical rules of this module's `route_float`.
    #[inline]
    pub fn numeric_at(&self, row: usize) -> MeasureValue {
        match self {
            MeasureVector::Integer(v) => MeasureValue::Integer(*v.get(row)),
            MeasureVector::Decimal(v) => route_float(*v.get(row), true),
            MeasureVector::Double(v) => route_float(*v.get(row), false),
        }
    }

    /// The contiguous values of one [`crate::cowvec::SEGMENT_LEN`]-row
    /// column segment (see [`CowVec::segment_slice`]), typed like the
    /// vector. Panics on a segment past the tail.
    #[inline]
    pub fn segment(&self, segment: usize) -> MeasureSlice<'_> {
        match self {
            MeasureVector::Integer(v) => MeasureSlice::Integer(v.segment_slice(segment)),
            MeasureVector::Decimal(v) => MeasureSlice::Decimal(v.segment_slice(segment)),
            MeasureVector::Double(v) => MeasureSlice::Double(v.segment_slice(segment)),
        }
    }

    /// A raw value of this vector, typed like the vector's literals (used
    /// by MIN/MAX, whose SPARQL result is one of the input terms).
    pub fn numeric_for(&self, value: f64) -> Numeric {
        match self {
            MeasureVector::Integer(_) => Numeric::Integer(value as i64),
            MeasureVector::Decimal(_) => Numeric::Decimal(value),
            MeasureVector::Double(_) => Numeric::Double(value),
        }
    }

    /// Reconstructs the exact term of one row — unlike
    /// [`MeasureVector::numeric_for`] this never round-trips an integer
    /// through `f64`, so it is lossless for the full `i64` range.
    #[cfg(test)]
    pub fn term_at(&self, row: usize) -> rdf::Term {
        rdf::Term::Literal(match self {
            MeasureVector::Integer(v) => Literal::integer(*v.get(row)),
            MeasureVector::Decimal(v) => Literal::decimal(*v.get(row)),
            MeasureVector::Double(v) => Literal::double(*v.get(row)),
        })
    }

    /// Number of physical rows (tombstoned rows included).
    pub fn len(&self) -> usize {
        match self {
            MeasureVector::Integer(v) => v.len(),
            MeasureVector::Decimal(v) | MeasureVector::Double(v) => v.len(),
        }
    }

    /// True if the vector has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One measure of the fact table.
#[derive(Debug, Clone)]
pub struct MeasureColumn {
    /// The measure property (e.g. `sdmx-measure:obsValue`).
    pub property: Iri,
    /// The aggregate function attached by the QB4OLAP schema.
    pub aggregate: AggregateFunction,
    /// The values, one per row.
    pub data: MeasureVector,
}

#[cfg(test)]
mod tests {
    use rdf::Term;

    use super::*;

    /// Appends a literal the way the fact encoder does: parse, then push.
    fn push(vector: &mut MeasureVector, literal: &Literal) -> Result<(), CubeStoreError> {
        let value = vector.stored_value(literal)?;
        vector.push_stored(value);
        Ok(())
    }

    #[test]
    fn dimension_column_accessors() {
        let mut dict = Dictionary::new();
        let a = dict.encode(&Term::iri("http://m/a"));
        let column = DimensionColumn::new(
            Iri::new("http://dim"),
            Iri::new("http://level"),
            vec![a, NO_MEMBER, a],
            dict,
        );
        assert_eq!(column.len(), 3);
        assert!(!column.is_empty());
        assert_eq!(column.code(1), NO_MEMBER);
        assert_eq!(column.unbound_rows(), 1);
        assert_eq!(column.codes().collect::<Vec<_>>(), vec![a, NO_MEMBER, a]);
    }

    #[test]
    fn integer_vector_roundtrip() {
        let lit = Literal::integer(42);
        let mut vector = MeasureVector::for_literal(&lit).unwrap();
        push(&mut vector, &lit).unwrap();
        push(&mut vector, &Literal::integer(-7)).unwrap();
        assert_eq!(vector.len(), 2);
        assert!(!vector.is_empty());
        assert_eq!(vector.value(0), 42.0);
        assert_eq!(vector.numeric_for(-7.0), Numeric::Integer(-7));
        // A decimal literal cannot be pushed into an integer vector.
        assert!(push(&mut vector, &Literal::decimal(1.5)).is_err());
        // A non-canonical lexical form does not round-trip.
        assert!(push(
            &mut vector,
            &Literal::typed("007", rdf::vocab::xsd::integer())
        )
        .is_err());
    }

    #[test]
    fn decimal_and_double_vectors() {
        let mut decimal = MeasureVector::for_literal(&Literal::decimal(1.5)).unwrap();
        push(&mut decimal, &Literal::decimal(1.5)).unwrap();
        assert_eq!(decimal.value(0), 1.5);
        assert_eq!(decimal.numeric_for(1.5), Numeric::Decimal(1.5));

        let mut double = MeasureVector::for_literal(&Literal::double(2.25)).unwrap();
        push(&mut double, &Literal::double(2.25)).unwrap();
        assert_eq!(double.numeric_for(2.25), Numeric::Double(2.25));
    }

    #[test]
    fn unsupported_datatypes_are_rejected() {
        assert!(MeasureVector::for_literal(&Literal::string("x")).is_err());
        assert!(MeasureVector::for_literal(&Literal::boolean(true)).is_err());
    }

    /// The aggregation routing of `numeric_at` must be exactly "does the
    /// canonical lexical form parse as i64" — the read the SPARQL engine
    /// performs on the literal `term_at` reconstructs.
    #[test]
    fn numeric_routing_matches_the_literal_parse() {
        let tricky = [
            0.0,
            -0.0,
            2.0,
            2.5,
            -3.75,
            1e15,
            1e15 - 0.5,
            -1e15,
            9.007199254740993e15,  // 2^53 + 1-ish: integral, huge
            9.223372036854776e18,  // 2^63: one past i64::MAX
            -9.223372036854776e18, // exactly i64::MIN
            4.611686018427388e18,  // 2^62
            1e300,
        ];
        for make in [MeasureVector::Decimal, MeasureVector::Double] {
            let vector = make(CowVec::from_vec(tricky.to_vec()));
            for (row, &raw) in tricky.iter().enumerate() {
                let literal = match vector.term_at(row) {
                    Term::Literal(l) => l,
                    other => panic!("measure term {other} is not a literal"),
                };
                let expected = match literal.as_integer() {
                    Some(i) => MeasureValue::Integer(i),
                    None => MeasureValue::Float(raw),
                };
                assert_eq!(
                    vector.numeric_at(row),
                    expected,
                    "routing diverges from the literal parse for {} ({:?})",
                    literal.lexical(),
                    vector
                );
            }
        }
    }

    /// Integer rows keep the full `i64` range exact end-to-end: neither
    /// `numeric_at` nor `term_at` round-trips through `f64`.
    #[test]
    fn integer_boundary_values_stay_exact() {
        let mut vector = MeasureVector::for_literal(&Literal::integer(0)).unwrap();
        for v in [i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1] {
            push(&mut vector, &Literal::integer(v)).unwrap();
        }
        assert_eq!(vector.numeric_at(0), MeasureValue::Integer(i64::MAX));
        assert_eq!(vector.numeric_at(1), MeasureValue::Integer(i64::MAX - 1));
        assert_eq!(vector.numeric_at(2), MeasureValue::Integer(i64::MIN));
        assert_eq!(vector.numeric_at(3), MeasureValue::Integer(i64::MIN + 1));
        assert_eq!(
            vector.term_at(1),
            Term::integer(i64::MAX - 1),
            "no f64 round-trip"
        );
        // The f64 view *does* round there — which is why aggregation must
        // not use it for integer vectors.
        assert_eq!(vector.value(0), vector.value(1));
    }
}
