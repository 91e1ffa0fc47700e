//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Terms are cheaply cloneable (the lexical payload is stored behind an
//! [`Arc<str>`]), hashable, and totally ordered so they can be used as keys
//! in the store indexes and in SPARQL solution orderings.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::vocab::xsd;

/// An IRI (named node).
///
/// IRIs are stored as their full lexical form; no normalisation beyond what
/// the parser applies is performed. Two IRIs are equal iff their lexical
/// forms are equal, per RDF 1.1 simple interpretation.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from any string-like value.
    pub fn new(iri: impl AsRef<str>) -> Self {
        Iri(Arc::from(iri.as_ref()))
    }

    /// The full IRI string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The local name: the suffix after the last `#` or `/`.
    ///
    /// Useful for rendering human-readable labels when no `rdfs:label` is
    /// available (the situation the paper calls out for level members).
    pub fn local_name(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['#', '/']) {
            Some(idx) if idx + 1 < s.len() => &s[idx + 1..],
            _ => s,
        }
    }

    /// The namespace part: everything up to and including the last `#` or `/`.
    pub fn namespace(&self) -> &str {
        let s = self.as_str();
        match s.rfind(['#', '/']) {
            Some(idx) => &s[..=idx],
            None => "",
        }
    }

    /// Returns a new IRI formed by appending `suffix` to this IRI.
    pub fn join(&self, suffix: &str) -> Iri {
        let mut s = String::with_capacity(self.0.len() + suffix.len());
        s.push_str(&self.0);
        s.push_str(suffix);
        Iri::new(s)
    }
}

impl fmt::Debug for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// A blank node, identified by a local label.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label (without the `_:` prefix).
    pub fn new(label: impl AsRef<str>) -> Self {
        BlankNode(Arc::from(label.as_ref()))
    }

    /// The blank node label (without the `_:` prefix).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus a datatype IRI and an optional
/// language tag (language-tagged strings always have datatype
/// `rdf:langString`, plain literals default to `xsd:string`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    lexical: Arc<str>,
    datatype: Iri,
    language: Option<Arc<str>>,
}

impl Literal {
    /// A plain `xsd:string` literal.
    pub fn string(value: impl AsRef<str>) -> Self {
        Literal {
            lexical: Arc::from(value.as_ref()),
            datatype: xsd::string(),
            language: None,
        }
    }

    /// A language-tagged string literal.
    pub fn lang_string(value: impl AsRef<str>, lang: impl AsRef<str>) -> Self {
        Literal {
            lexical: Arc::from(value.as_ref()),
            datatype: Iri::new("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"),
            language: Some(Arc::from(lang.as_ref().to_ascii_lowercase().as_str())),
        }
    }

    /// A typed literal with an explicit datatype.
    pub fn typed(value: impl AsRef<str>, datatype: Iri) -> Self {
        Literal {
            lexical: Arc::from(value.as_ref()),
            datatype,
            language: None,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Numeric::Integer(value).into()
    }

    /// An `xsd:decimal` literal.
    pub fn decimal(value: f64) -> Self {
        Numeric::Decimal(value).into()
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Numeric::Double(value).into()
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(if value { "true" } else { "false" }, xsd::boolean())
    }

    /// An `xsd:date` literal from year, month, day.
    pub fn date(year: i32, month: u32, day: u32) -> Self {
        Literal::typed(format!("{year:04}-{month:02}-{day:02}"), xsd::date())
    }

    /// An `xsd:gYearMonth` literal (used by Eurostat reference periods).
    pub fn year_month(year: i32, month: u32) -> Self {
        Literal::typed(format!("{year:04}-{month:02}"), xsd::g_year_month())
    }

    /// An `xsd:gYear` literal.
    pub fn year(year: i32) -> Self {
        Literal::typed(format!("{year:04}"), xsd::g_year())
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The datatype IRI.
    pub fn datatype(&self) -> &Iri {
        &self.datatype
    }

    /// The language tag, if this is a language-tagged string.
    pub fn language(&self) -> Option<&str> {
        self.language.as_deref()
    }

    /// Whether the datatype is one of the XSD numeric types.
    pub fn is_numeric(&self) -> bool {
        crate::vocab::is_numeric_datatype(&self.datatype)
    }

    /// Tries to interpret the literal as an `i64`.
    pub fn as_integer(&self) -> Option<i64> {
        if self.is_numeric() {
            self.lexical.trim().parse::<i64>().ok()
        } else {
            None
        }
    }

    /// Tries to interpret the literal as an `f64`.
    pub fn as_double(&self) -> Option<f64> {
        if self.is_numeric() {
            self.lexical.trim().parse::<f64>().ok()
        } else {
            None
        }
    }

    /// Tries to interpret the literal as a boolean.
    pub fn as_boolean(&self) -> Option<bool> {
        if self.datatype == xsd::boolean() {
            match self.lexical.trim() {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            }
        } else {
            None
        }
    }
}

/// A number typed `xsd:integer`, `xsd:decimal` or `xsd:double`, not yet
/// formatted: the value a [`Literal::integer`], [`Literal::decimal`] or
/// [`Literal::double`] literal holds. Its [`Display`](fmt::Display) form is
/// the one definition of those literals' lexical forms, so a writer that
/// formats a `Numeric` straight into its output writes exactly the bytes of
/// the literal, without building one.
///
/// Every lexical form is made of ASCII digits, `-` and `.` (Rust never
/// formats an `f64` with an exponent), so it needs no escaping in
/// N-Triples or JSON.
#[derive(Debug, Clone, Copy)]
pub enum Numeric {
    /// An `xsd:integer`.
    Integer(i64),
    /// An `xsd:decimal`: `5.0`, `5.25`; no exponent, and a `.0` on integral
    /// values below 10¹⁵.
    Decimal(f64),
    /// An `xsd:double`: the shortest form that reads back as the same `f64`.
    Double(f64),
}

impl Numeric {
    /// The datatype IRI's text.
    pub fn datatype_str(self) -> &'static str {
        match self {
            Numeric::Integer(_) => "http://www.w3.org/2001/XMLSchema#integer",
            Numeric::Decimal(_) => "http://www.w3.org/2001/XMLSchema#decimal",
            Numeric::Double(_) => "http://www.w3.org/2001/XMLSchema#double",
        }
    }

    /// The value as an `f64`: exactly what [`Literal::as_double`] parses
    /// back from the lexical form (an integer beyond 2⁵³ rounds to the
    /// nearest `f64`, as the parse does).
    pub fn as_f64(self) -> f64 {
        match self {
            Numeric::Integer(value) => value as f64,
            Numeric::Decimal(value) | Numeric::Double(value) => value,
        }
    }
}

/// Equal when both format to the same literal: same datatype, same
/// integer or same `f64` bits (so `0.0` and `-0.0` differ).
impl PartialEq for Numeric {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Numeric::Integer(a), Numeric::Integer(b)) => a == b,
            (Numeric::Decimal(a), Numeric::Decimal(b))
            | (Numeric::Double(a), Numeric::Double(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// The lexical form.
impl fmt::Display for Numeric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Numeric::Decimal(value) if value.fract() == 0.0 && value.abs() < 1e15 => {
                write!(f, "{value:.1}")
            }
            Numeric::Integer(value) => write!(f, "{value}"),
            Numeric::Decimal(value) | Numeric::Double(value) => write!(f, "{value}"),
        }
    }
}

impl From<Numeric> for Literal {
    fn from(value: Numeric) -> Self {
        Literal::typed(value.to_string(), Iri::new(value.datatype_str()))
    }
}

impl PartialOrd for Literal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Literal {
    /// A total order. Numeric-typed literals whose lexical form parses
    /// sort first, by value: exactly when both parse as `i64` (going
    /// through `f64` loses precision above 2^53, and MIN/MAX over
    /// i64::MAX-adjacent values must agree with the columnar engine's
    /// exact integer path), an `i64` against an `f64` exactly too, NaN
    /// last. Equal values, and all other literals, order by (lexical form,
    /// datatype, language). Comparing numbers with text instead would not
    /// be transitive: `"9"^^xsd:integer < "10"^^xsd:integer < "5" < "9"^^xsd:integer`.
    fn cmp(&self, other: &Self) -> Ordering {
        let by_value = match (self.numeric_value(), other.numeric_value()) {
            (Some(a), Some(b)) => a.total_cmp(b),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => Ordering::Equal,
        };
        by_value.then_with(|| {
            (self.lexical.as_ref(), &self.datatype, &self.language).cmp(&(
                other.lexical.as_ref(),
                &other.datatype,
                &other.language,
            ))
        })
    }
}

impl Literal {
    /// The value [`Ord`] sorts a numeric literal by: its `i64` when the
    /// lexical form parses as one, else its `f64`.
    fn numeric_value(&self) -> Option<OrderValue> {
        match self.as_integer() {
            Some(integer) => Some(OrderValue::Integer(integer)),
            None => self.as_double().map(OrderValue::Double),
        }
    }
}

/// A numeric literal's value as [`Literal`]'s order compares it.
#[derive(Clone, Copy)]
enum OrderValue {
    Integer(i64),
    Double(f64),
}

impl OrderValue {
    /// Exact comparison of the values, NaN after every number.
    fn total_cmp(self, other: OrderValue) -> Ordering {
        match (self, other) {
            (OrderValue::Integer(a), OrderValue::Integer(b)) => a.cmp(&b),
            (OrderValue::Integer(a), OrderValue::Double(b)) => integer_vs_double(a, b),
            (OrderValue::Double(a), OrderValue::Integer(b)) => integer_vs_double(b, a).reverse(),
            (OrderValue::Double(a), OrderValue::Double(b)) => match (a.is_nan(), b.is_nan()) {
                (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
                (nan_a, nan_b) => nan_a.cmp(&nan_b),
            },
        }
    }
}

/// Compares an integer with a double exactly (no rounding through `f64`),
/// NaN after every number.
fn integer_vs_double(integer: i64, double: f64) -> Ordering {
    // 2^63 is exact as an f64; every double in [-2^63, 2^63) truncates to
    // an i64 exactly.
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if double.is_nan() || double >= TWO_POW_63 {
        return Ordering::Less;
    }
    if double < -TWO_POW_63 {
        return Ordering::Greater;
    }
    let whole = double.trunc();
    integer
        .cmp(&(whole as i64))
        .then_with(|| whole.partial_cmp(&double).unwrap_or(Ordering::Equal))
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        write_escaped_literal(f, &self.lexical)?;
        f.write_str("\"")?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")
        } else if self.datatype.as_str().strip_prefix(xsd::NAMESPACE) != Some("string") {
            // Compared as text: `xsd::string()` would allocate an IRI.
            write!(f, "^^{}", self.datatype)
        } else {
            Ok(())
        }
    }
}

/// Escapes a literal lexical form for N-Triples/Turtle output.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped_literal(&mut out, s).expect("writing into a String cannot fail");
    out
}

/// [`escape_literal`] straight into a writer, so displaying a literal
/// builds no intermediate `String`.
fn write_escaped_literal(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    // Every escaped byte is ASCII: the stretches between them are whole
    // UTF-8 sequences.
    let mut written = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        out.write_str(&s[written..at])?;
        out.write_str(escape)?;
        written = at + 1;
    }
    out.write_str(&s[written..])
}

/// Any RDF term.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Term {
    /// A named node (IRI).
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl AsRef<str>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank-node term.
    pub fn blank(label: impl AsRef<str>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// Convenience constructor for a string literal term.
    pub fn string(value: impl AsRef<str>) -> Self {
        Term::Literal(Literal::string(value))
    }

    /// Convenience constructor for an integer literal term.
    pub fn integer(value: i64) -> Self {
        Term::Literal(Literal::integer(value))
    }

    /// Returns the IRI if this term is a named node.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(iri) => Some(iri),
            _ => None,
        }
    }

    /// Returns the literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// True if the term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True if the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True if the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// A human-readable label for the term: literal lexical form, IRI local
    /// name, or blank-node label.
    pub fn display_label(&self) -> String {
        match self {
            Term::Iri(iri) => iri.local_name().to_string(),
            Term::Blank(b) => format!("_:{}", b.as_str()),
            Term::Literal(lit) => lit.lexical().to_string(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => write!(f, "{iri}"),
            Term::Blank(b) => write!(f, "{b}"),
            Term::Literal(lit) => write!(f, "{lit}"),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(lit: Literal) -> Self {
        Term::Literal(lit)
    }
}

/// An RDF triple (subject, predicate, object).
///
/// The subject may be an IRI or blank node, the predicate is always an IRI,
/// and the object may be any term. For simplicity the subject is stored as a
/// [`Term`]; constructors reject literal subjects.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Triple {
    /// The subject (IRI or blank node).
    pub subject: Term,
    /// The predicate IRI.
    pub predicate: Iri,
    /// The object term.
    pub object: Term,
}

impl Triple {
    /// Creates a triple.
    ///
    /// # Panics
    /// Panics if `subject` is a literal (invalid in RDF 1.1).
    pub fn new(
        subject: impl Into<Term>,
        predicate: impl Into<Iri>,
        object: impl Into<Term>,
    ) -> Self {
        let subject = subject.into();
        assert!(
            !subject.is_literal(),
            "RDF triple subject must not be a literal: {subject}"
        );
        Triple {
            subject,
            predicate: predicate.into(),
            object: object.into(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_local_name_and_namespace() {
        let iri = Iri::new("http://example.org/ns#Country");
        assert_eq!(iri.local_name(), "Country");
        assert_eq!(iri.namespace(), "http://example.org/ns#");

        let slash = Iri::new("http://example.org/data/obs1");
        assert_eq!(slash.local_name(), "obs1");
        assert_eq!(slash.namespace(), "http://example.org/data/");

        let bare = Iri::new("urn:thing");
        assert_eq!(bare.local_name(), "urn:thing");
    }

    #[test]
    fn iri_join() {
        let ns = Iri::new("http://example.org/ns#");
        assert_eq!(ns.join("x").as_str(), "http://example.org/ns#x");
    }

    #[test]
    fn literal_accessors() {
        let int = Literal::integer(42);
        assert_eq!(int.as_integer(), Some(42));
        assert_eq!(int.as_double(), Some(42.0));
        assert_eq!(int.datatype(), &xsd::integer());

        let s = Literal::string("hello");
        assert_eq!(s.as_integer(), None);
        assert_eq!(s.lexical(), "hello");

        let b = Literal::boolean(true);
        assert_eq!(b.as_boolean(), Some(true));

        let lang = Literal::lang_string("Afrique", "FR");
        assert_eq!(lang.language(), Some("fr"));
    }

    #[test]
    fn literal_numeric_ordering() {
        let a = Literal::integer(9);
        let b = Literal::integer(10);
        assert!(a < b, "numeric literals must order numerically");
    }

    #[test]
    fn huge_adjacent_integers_order_exactly() {
        // Above 2^53 the f64 round-trip collapses adjacent integers; the
        // byte-wise fallback then sorts "-…06" before "-…05", the wrong
        // numeric order. The comparison must stay exact over all of i64.
        let lo = Literal::integer(i64::MIN + 2);
        let hi = Literal::integer(i64::MIN + 3);
        assert!(lo < hi);
        let lo = Literal::integer(i64::MAX - 1);
        let hi = Literal::integer(i64::MAX);
        assert!(lo < hi);
        // Signed zeros still fall back to the lexical tie-break.
        assert!(Literal::decimal(-0.0) < Literal::decimal(0.0));
    }

    #[test]
    fn literal_order_is_total_over_mixed_datatypes() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The cycle comparing numbers with text made: 9 < 10 by value,
        // "10" < "5" and "5" < "9" by text.
        let (nine, ten, five) = (
            Literal::integer(9),
            Literal::integer(10),
            Literal::string("5"),
        );
        assert!(nine < ten && ten < five && nine < five);

        let typed = |lexical: &str, datatype: &str| {
            Literal::typed(lexical, Iri::new(format!("{}{datatype}", xsd::NAMESPACE)))
        };
        let mut pool = Vec::new();
        for lexical in [
            "5",
            "9",
            "10",
            "-0",
            "0",
            "-0.5",
            "0.5",
            "1e18",
            "999999999999999999",
            "1000000000000000000",
            "9007199254740993",
            "9007199254740992.0",
            "NaN",
            "INF",
            "-INF",
            "9223372036854775807",
            "9.3e18",
            "-9.3e18",
            "abc",
            " 7",
            "",
        ] {
            for datatype in ["integer", "decimal", "double", "string", "boolean", "date"] {
                pool.push(typed(lexical, datatype));
            }
            pool.push(Literal::lang_string(lexical, "en"));
        }
        pool.extend([
            Literal::integer(i64::MIN),
            Literal::integer(i64::MAX),
            Literal::double(-0.0),
        ]);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..200_000 {
            let mut pick = || &pool[rng.gen_range(0..pool.len())];
            let (a, b, c) = (pick(), pick(), pick());
            assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetric: {a} vs {b}");
            assert_eq!(
                a.cmp(b) == Ordering::Equal,
                a == b,
                "consistent with Eq: {a} vs {b}"
            );
            if a <= b && b <= c {
                assert!(a <= c, "transitive: {a} <= {b} <= {c}");
            }
        }
        // A sort agrees with every pairwise comparison.
        let mut sorted = pool.clone();
        sorted.sort();
        for (i, a) in sorted.iter().enumerate() {
            assert!(
                sorted[i..].iter().all(|b| a <= b),
                "{a} sorts before a smaller literal"
            );
        }
    }

    #[test]
    fn literal_display_forms() {
        assert_eq!(Literal::string("x").to_string(), "\"x\"");
        assert_eq!(
            Literal::integer(5).to_string(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        assert_eq!(Literal::lang_string("x", "en").to_string(), "\"x\"@en");
    }

    #[test]
    fn literal_escaping() {
        let l = Literal::string("a\"b\\c\nd");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn term_display_label() {
        assert_eq!(
            Term::iri("http://x.org/ns#Africa").display_label(),
            "Africa"
        );
        assert_eq!(Term::string("Africa").display_label(), "Africa");
        assert_eq!(Term::blank("b0").display_label(), "_:b0");
    }

    #[test]
    #[should_panic(expected = "subject must not be a literal")]
    fn triple_rejects_literal_subject() {
        let _ = Triple::new(Term::string("bad"), Iri::new("http://p"), Term::integer(1));
    }

    #[test]
    fn triple_display() {
        let t = Triple::new(
            Term::iri("http://s"),
            Iri::new("http://p"),
            Term::iri("http://o"),
        );
        assert_eq!(t.to_string(), "<http://s> <http://p> <http://o> .");
    }

    #[test]
    fn date_literals() {
        assert_eq!(Literal::year_month(2014, 3).lexical(), "2014-03");
        assert_eq!(Literal::year(2013).lexical(), "2013");
        assert_eq!(Literal::date(2014, 1, 31).lexical(), "2014-01-31");
    }

    #[test]
    fn decimal_formatting() {
        assert_eq!(Literal::decimal(5.0).lexical(), "5.0");
        assert_eq!(Literal::decimal(5.25).lexical(), "5.25");
        assert_eq!(Literal::decimal(-0.0).lexical(), "-0.0");
        assert_eq!(Literal::decimal(1e15).lexical(), "1000000000000000");
    }

    #[test]
    fn numerics_format_as_their_literals() {
        for (value, datatype) in [
            (Numeric::Integer(i64::MIN), xsd::integer()),
            (Numeric::Decimal(2.5e-7), xsd::decimal()),
            (Numeric::Double(1e300), xsd::double()),
        ] {
            let literal = Literal::from(value);
            assert_eq!(literal.datatype(), &datatype);
            assert_eq!(value.datatype_str(), datatype.as_str());
            assert_eq!(literal.lexical(), value.to_string());
            assert_eq!(literal.as_double(), Some(value.as_f64()));
        }
        assert_eq!(
            Numeric::Integer(i64::MAX).as_f64(),
            Literal::integer(i64::MAX).as_double().unwrap()
        );
        assert_ne!(Numeric::Double(0.0), Numeric::Double(-0.0));
        assert_ne!(Numeric::Double(1.0), Numeric::Decimal(1.0));
        assert_eq!(Numeric::Decimal(0.5), Numeric::Decimal(0.5));
    }
}
