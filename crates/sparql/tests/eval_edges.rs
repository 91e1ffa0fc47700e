//! Edges of the id-level evaluator that the generated qlsmith campaigns
//! reach rarely, pinned against literal expected tables: computed terms
//! (side-interner ids) meeting stored ones, a variable repeated inside one
//! triple pattern, OPTIONAL / UNION / MINUS / EXISTS over rows with unbound
//! slots, `VALUES` with `UNDEF`, and the output order of GROUP BY, DISTINCT
//! and ORDER BY. Every expected table was produced by the `Term`-row
//! evaluator this one replaced.

use rdf::Term;
use sparql::{ConservativeEndpoint, EncodedSolutions, Endpoint, LocalEndpoint, Solutions};

const GRAPH: &str = r#"
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:obs1 a ex:Observation ; ex:country ex:SY ; ex:year "2013"^^xsd:gYear ; ex:value 10 .
ex:obs2 a ex:Observation ; ex:country ex:SY ; ex:year "2014"^^xsd:gYear ; ex:value 20 .
ex:obs3 a ex:Observation ; ex:country ex:NG ; ex:year "2014"^^xsd:gYear ; ex:value 5 .
ex:obs4 a ex:Observation ; ex:country ex:FR ; ex:year "2014"^^xsd:gYear ; ex:value 7 .
ex:obs5 a ex:Observation ; ex:country ex:XX ; ex:value 7.5 , "n/a" .

ex:SY ex:continent ex:Asia ; rdfs:label "Syria"@en , "Syrie"@fr .
ex:NG ex:continent ex:Africa ; rdfs:label "Nigeria"@en .
ex:FR ex:continent ex:Europe ; rdfs:label "France"@en ; ex:value 10 .
ex:Asia ex:part ex:World . ex:Africa ex:part ex:World .
ex:X ex:rel ex:X , ex:Y . ex:rel ex:rel ex:rel . ex:Y ex:rel ex:X .
ex:ten ex:is 10 . ex:tenD ex:is 10.0 . ex:tenS ex:is "10" .
"#;

const PREFIXES: &str = "PREFIX ex: <http://example.org/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n";

fn endpoint() -> LocalEndpoint {
    let endpoint = LocalEndpoint::new();
    endpoint.store().load_turtle(GRAPH).unwrap();
    endpoint
}

/// IRIs by local name, plain strings quoted, other literals by lexical
/// form, unbound as `-`.
fn render(solutions: &Solutions) -> Vec<String> {
    let cell = |term: &Option<Term>| match term {
        None => "-".to_string(),
        Some(Term::Literal(lit)) if lit.language().is_some() => {
            format!("\"{}\"@{}", lit.lexical(), lit.language().unwrap())
        }
        Some(Term::Literal(lit)) if lit.datatype() == &rdf::vocab::xsd::string() => {
            format!("\"{}\"", lit.lexical())
        }
        Some(term) => term.display_label(),
    };
    let header = solutions
        .variables
        .iter()
        .map(|v| v.name())
        .collect::<Vec<_>>()
        .join(" ");
    let rows = solutions
        .rows
        .iter()
        .map(|row| row.iter().map(cell).collect::<Vec<_>>().join(" "));
    std::iter::once(header).chain(rows).collect()
}

/// Evaluates `query` and compares the decoded result with the expected
/// table (header line, then one line per solution, in order); checks that
/// re-encoding the decoded table gives back the encoded result (the decode
/// round-trip), and that a forwarding wrapper answers the same encoded
/// result as the endpoint it wraps.
fn check(query: &str, expected: &[&str]) {
    let endpoint = endpoint();
    let text = format!("{PREFIXES}{query}");
    let solutions = endpoint.select(&text).unwrap();
    assert_eq!(render(&solutions), expected, "{query}");
    let encoded = endpoint.select_encoded(&text).unwrap();
    assert_eq!(EncodedSolutions::from(solutions), encoded, "{query}");
    let wrapped = ConservativeEndpoint::new(endpoint)
        .select_encoded(&text)
        .unwrap();
    assert_eq!(wrapped, encoded, "{query}");
}

#[test]
fn computed_terms_join_and_compare_with_stored_terms() {
    // A computed term the graph also stores has the graph's id: it joins.
    check(
        "SELECT * WHERE { BIND(5 + 5 AS ?ten) ?o ex:value ?ten }",
        &["ten o", "10 obs1", "10 FR"],
    );
    // One the graph has never seen matches nothing, but stays a value.
    check(
        "SELECT * WHERE { BIND(500 + 500 AS ?k) OPTIONAL { ?o ex:value ?k } }",
        &["k o", "1000 -"],
    );
    check(
        "SELECT * WHERE { ?o ex:value ?v . BIND(?v * 2 AS ?d) OPTIONAL { ?o2 ex:value ?d } FILTER(?d != ?v) }",
        &[
            "o v d o2",
            "obs1 10 20 obs2",
            "FR 10 20 obs2",
            "obs2 20 40 -",
            "obs3 5 10 obs1",
            "obs3 5 10 FR",
            "obs4 7 14 -",
            "obs5 7.5 15 -",
            // `"n/a" * 2` is an error: ?d stays unbound and the OPTIONAL
            // binds it to every value.
            "obs5 \"n/a\" 10 obs1",
            "obs5 \"n/a\" 10 FR",
            "obs5 \"n/a\" 20 obs2",
            "obs5 \"n/a\" 5 obs3",
            "obs5 \"n/a\" 7 obs4",
            "obs5 \"n/a\" 7.5 obs5",
        ],
    );
    // An aggregate result joined against stored terms, and one that only
    // exists as a computed term compared against a constant.
    check(
        "SELECT * WHERE { { SELECT ?c (MAX(?v) AS ?m) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c } ?o2 ex:value ?m ; ex:country ?c }",
        &["c m o2", "FR 7 obs4", "NG 5 obs3", "SY 20 obs2", "XX \"n/a\" obs5"],
    );
    check(
        "SELECT ?c ?total WHERE { ?c ex:continent ?k . { SELECT ?c (SUM(?v) AS ?total) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c } FILTER(?total = 30 || ?total < 6) }",
        &["c total", "SY 30", "NG 5"],
    );
    // Value equality is numeric, term identity is not; ids decide the latter.
    check(
        "SELECT ?a ?b WHERE { ?a ex:is ?x . ?b ex:is ?y . FILTER(?x = ?y) }",
        &[
            "a b",
            "ten ten",
            "ten tenD",
            "tenD ten",
            "tenD tenD",
            "tenS tenS",
        ],
    );
    check(
        "SELECT ?a ?b WHERE { ?a ex:is ?x . ?b ex:is ?y . FILTER(SAMETERM(?x, ?y + 0)) }",
        &["a b", "ten ten", "ten tenD"],
    );
    // VALUES constants the graph does not hold are values all the same.
    check(
        "SELECT * WHERE { VALUES ?x { \"foo\" 42 ex:nope 10 } BIND(STR(?x) AS ?s) OPTIONAL { ?who ex:is ?x } }",
        &[
            "x s who",
            "\"foo\" \"foo\" -",
            "42 \"42\" -",
            "nope \"http://example.org/nope\" -",
            "10 \"10\" ten",
        ],
    );
}

#[test]
fn a_variable_repeated_in_one_pattern_must_match_itself() {
    check("SELECT ?x WHERE { ?x ex:rel ?x }", &["x", "X", "rel"]);
    check("SELECT * WHERE { ?x ?x ?x }", &["x", "rel"]);
    check("SELECT * WHERE { ?s ?p ?s }", &["s p", "X rel", "rel rel"]);
    check(
        "SELECT * WHERE { ?x ex:rel ?y . ?y ex:rel ?x }",
        &["x y", "X X", "Y X", "rel rel", "X Y"],
    );
    // A literal bound to a predicate variable matches nothing.
    check(
        "SELECT * WHERE { ?obs ex:value ?v . ?s ?v ?o }",
        &["obs v s o"],
    );
}

#[test]
fn optional_union_minus_and_exists_over_unbound_slots() {
    // UNION inside OPTIONAL: each row's extensions stay together, in
    // branch order.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { { ?c ex:continent ?k } UNION { ?c rdfs:label ?k } } }",
        &[
            "obs c k",
            "obs1 SY Asia",
            "obs1 SY \"Syria\"@en",
            "obs1 SY \"Syrie\"@fr",
            "obs2 SY Asia",
            "obs2 SY \"Syria\"@en",
            "obs2 SY \"Syrie\"@fr",
            "obs3 NG Africa",
            "obs3 NG \"Nigeria\"@en",
            "obs4 FR Europe",
            "obs4 FR \"France\"@en",
            "obs5 XX -",
        ],
    );
    // Nested OPTIONALs, the inner ones over rows the outer left partial.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k . OPTIONAL { ?k ex:nope ?z } OPTIONAL { { ?k ex:part ?w } UNION { ?c rdfs:label ?w } } } OPTIONAL { ?obs ex:year ?y } }",
        &[
            "obs c k z w y",
            "obs1 SY Asia - World 2013",
            "obs1 SY Asia - \"Syria\"@en 2013",
            "obs1 SY Asia - \"Syrie\"@fr 2013",
            "obs2 SY Asia - World 2014",
            "obs2 SY Asia - \"Syria\"@en 2014",
            "obs2 SY Asia - \"Syrie\"@fr 2014",
            "obs3 NG Africa - World 2014",
            "obs3 NG Africa - \"Nigeria\"@en 2014",
            "obs4 FR Europe - \"France\"@en 2014",
            "obs5 XX - - - -",
        ],
    );
    // MINUS only removes on a shared *bound* variable.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k } MINUS { ?c2 ex:continent ?k . FILTER(?k = ex:Asia) } }",
        &["obs c k c2", "obs3 NG Africa -", "obs4 FR Europe -", "obs5 XX - -"],
    );
    check(
        "SELECT ?obs WHERE { ?obs ex:country ?c . MINUS { ?x ex:continent ex:Asia } }",
        &["obs", "obs1", "obs2", "obs3", "obs4", "obs5"],
    );
    // EXISTS sees the row's bindings; an unbound slot is a wildcard in it.
    check(
        "SELECT ?obs ?k WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k . FILTER EXISTS { ?obs ex:value ?v . FILTER(?v > 6) } } }",
        &["obs k", "obs1 Asia", "obs2 Asia", "obs3 -", "obs4 Europe", "obs5 -"],
    );
    check(
        "SELECT ?c ?k WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k . FILTER NOT EXISTS { { ?obs ex:value 10 } UNION { ?obs ex:value 5 } } } } ORDER BY ?k",
        &["c k", "SY -", "NG -", "XX -", "SY Asia", "FR Europe"],
    );
    check(
        "SELECT * WHERE { ?c ex:continent ?k . BIND(EXISTS { ?c ex:value ?v } AS ?hasValue) }",
        &[
            "c k hasValue v",
            "SY Asia false -",
            "NG Africa false -",
            "FR Europe true -",
        ],
    );
    // `SELECT *` reports the variables evaluation reached, in that order: a
    // body that never ran (no rows reached it) contributes none.
    check(
        "SELECT * WHERE { ?s ex:nothing ?x . OPTIONAL { ?s ex:p ?opt } }",
        &["s x"],
    );
    check(
        "SELECT * WHERE { ?obs ex:nope ?v . FILTER EXISTS { ?obs ex:value ?n } }",
        &["obs v"],
    );
    check(
        "SELECT * WHERE { ?obs ex:value ?v . FILTER EXISTS { ?obs ex:nope ?n } }",
        &["obs v n"],
    );
}

#[test]
fn values_with_undef_joins_on_what_is_bound() {
    let expected = ["obs1 SY 10", "obs2 SY 20", "obs3 NG 5", "obs4 FR 7"];
    let rows = "{ (ex:SY UNDEF) (UNDEF 5) (ex:FR 7) (ex:FR 8) }";
    check(
        &format!(
            "SELECT ?obs ?c ?v WHERE {{ VALUES (?c ?v) {rows} ?obs ex:country ?c ; ex:value ?v }}"
        ),
        &[&["obs c v"][..], &expected[..]].concat(),
    );
    check(
        &format!("SELECT ?obs ?c ?v WHERE {{ ?obs ex:country ?c ; ex:value ?v . VALUES (?c ?v) {rows} }}"),
        &[&["obs c v"][..], &expected[..]].concat(),
    );
    // UNDEF meeting an unbound slot: the row survives once per compatible
    // VALUES row.
    check(
        "SELECT * WHERE { ?obs ex:country ?c . OPTIONAL { ?obs ex:year ?y } VALUES (?y ?c) { (\"2014\"^^xsd:gYear UNDEF) (UNDEF ex:XX) } }",
        &["obs c y", "obs2 SY 2014", "obs3 NG 2014", "obs4 FR 2014", "obs5 XX 2014", "obs5 XX -"],
    );
}

#[test]
fn group_distinct_and_order_by_output_order() {
    // Groups come in `Term` order of their keys — unbound first, IRIs by
    // string — whatever order the rows arrived in.
    check(
        "SELECT ?k (COUNT(*) AS ?n) (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SAMPLE(?v) AS ?any) (GROUP_CONCAT(?v) AS ?all) WHERE { ?obs ex:country ?c ; ex:value ?v . OPTIONAL { ?c ex:continent ?k } } GROUP BY ?k",
        &[
            "k n s a lo hi any all",
            "- 2 - - 7.5 \"n/a\" 7.5 \"7.5 n/a\"",
            "Africa 1 5 5.0 5 5 5 \"5\"",
            "Asia 2 30 15.0 10 20 10 \"10 20\"",
            "Europe 1 7 7.0 7 7 7 \"7\"",
        ],
    );
    check(
        "SELECT ?k ?y (COUNT(DISTINCT ?c) AS ?n) WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k } OPTIONAL { ?obs ex:year ?y } } GROUP BY ?k ?y",
        &["k y n", "- - 1", "Africa 2014 1", "Asia 2013 1", "Asia 2014 1", "Europe 2014 1"],
    );
    // Numeric literals order by value inside the key order.
    check(
        "SELECT ?v (COUNT(*) AS ?n) WHERE { ?s ex:value ?v . FILTER(DATATYPE(?v) = xsd:integer) } GROUP BY ?v",
        &["v n", "5 1", "7 1", "10 2", "20 1"],
    );
    check(
        "SELECT ?c (SUM(?v) AS ?total) WHERE { ?o ex:country ?c ; ex:value ?v } GROUP BY ?c HAVING (SUM(?v) > 6 && COUNT(*) < 2) ORDER BY DESC(?total)",
        &["c total", "FR 7"],
    );
    // An implicit group exists even over no rows; an explicit one does not.
    check(
        "SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?a) (SUM(?v) AS ?s) (MIN(?v) AS ?m) WHERE { ?x ex:doesNotExist ?v }",
        &["n a s m", "0 0 0 -"],
    );
    check(
        "SELECT ?c (COUNT(*) AS ?n) WHERE { ?x ex:doesNotExist ?c } GROUP BY ?c",
        &["c n"],
    );
    // DISTINCT keeps first occurrences, in arrival order.
    check(
        "SELECT DISTINCT ?k ?y WHERE { ?obs ex:country ?c . OPTIONAL { ?c ex:continent ?k } OPTIONAL { ?obs ex:year ?y } }",
        &["k y", "Asia 2013", "Asia 2014", "Africa 2014", "Europe 2014", "- -"],
    );
    check(
        "SELECT DISTINCT ?c WHERE { ?obs ex:country ?c ; ex:value ?v } ORDER BY DESC(?v) LIMIT 3 OFFSET 1",
        &["c", "XX", "FR", "NG"],
    );
    // ORDER BY is numeric-aware and stable on ties.
    check(
        "SELECT * WHERE { ?obs ex:value ?v } ORDER BY ?v ?obs",
        &[
            "obs v",
            "obs3 5",
            "obs4 7",
            "obs5 7.5",
            "FR 10",
            "obs1 10",
            "obs2 20",
            "obs5 \"n/a\"",
        ],
    );
    check(
        "SELECT ?obs WHERE { ?obs ex:country ?c } ORDER BY DESC(?c)",
        &["obs", "obs5", "obs1", "obs2", "obs3", "obs4"],
    );
}

/// `Term`'s order is not total over literals of mixed kinds, so neither is
/// ORDER BY's nor the group order. Such a query must still answer (the
/// standard library's sorts may panic on an inconsistent order), each key
/// must form exactly one group, and every row must come back.
#[test]
fn an_inconsistent_term_order_neither_panics_nor_splits_groups() {
    let endpoint = endpoint();
    let all = endpoint
        .select(&format!(
            "{PREFIXES}SELECT * WHERE {{ ?s ?p ?o }} ORDER BY ?o DESC(?s)"
        ))
        .unwrap();
    assert_eq!(all.len(), endpoint.triple_count());
    let groups = endpoint
        .select(&format!(
            "{PREFIXES}SELECT ?o (COUNT(*) AS ?n) WHERE {{ ?s ?p ?o }} GROUP BY ?o"
        ))
        .unwrap();
    let mut keys: Vec<&Option<Term>> = groups.rows.iter().map(|row| &row[0]).collect();
    let distinct = endpoint
        .select(&format!(
            "{PREFIXES}SELECT DISTINCT ?o WHERE {{ ?s ?p ?o }}"
        ))
        .unwrap();
    assert_eq!(keys.len(), distinct.len());
    keys.dedup();
    assert_eq!(keys.len(), distinct.len(), "one group per distinct key");
    let year = Some(Term::Literal(rdf::Literal::year(2014)));
    let of_2014 = groups.rows.iter().find(|row| row[0] == year).unwrap();
    assert_eq!(of_2014[1], Some(Term::integer(3)));
}
