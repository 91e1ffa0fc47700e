//! Pretty-printer: turns a [`Query`] AST back into SPARQL text.
//!
//! The QL → SPARQL Query Translation phase builds ASTs and uses this module
//! to produce the query text shown to the user (and counted when the paper
//! says Mary's query "translates to more than 30 lines of SPARQL").
//! The printer's output is guaranteed to re-parse into an equivalent AST.

use rdf::{PrefixMap, Term};

use crate::ast::*;

/// Renders a query as SPARQL text, including PREFIX declarations for every
/// prefix of `query.prefixes` that is actually used.
pub fn query_to_string(query: &Query) -> String {
    match query {
        Query::Select(q) => select_to_string(q),
        Query::Ask(q) => {
            let mut printer = Printer::new(&q.prefixes);
            let mut body = String::from("ASK ");
            printer.write_group(&mut body, &q.pattern, 0);
            body.push('\n');
            printer.with_prefix_header(body)
        }
    }
}

/// Renders a SELECT query as SPARQL text.
pub fn select_to_string(query: &SelectQuery) -> String {
    let mut printer = Printer::new(&query.prefixes);
    let mut body = String::new();
    printer.write_select(&mut body, query, 0);
    body.push('\n');
    printer.with_prefix_header(body)
}

struct Printer<'a> {
    prefixes: &'a PrefixMap,
    used: std::collections::BTreeSet<String>,
}

impl<'a> Printer<'a> {
    fn new(prefixes: &'a PrefixMap) -> Self {
        Printer {
            prefixes,
            used: std::collections::BTreeSet::new(),
        }
    }

    fn with_prefix_header(self, body: String) -> String {
        let mut header = String::new();
        for (prefix, ns) in self.prefixes.iter() {
            if self.used.contains(prefix) {
                header.push_str(&format!("PREFIX {prefix}: <{ns}>\n"));
            }
        }
        header + &body
    }

    fn indent(out: &mut String, level: usize) {
        for _ in 0..level {
            out.push_str("  ");
        }
    }

    fn term(&mut self, term: &Term) -> String {
        match term {
            Term::Iri(iri) => {
                let compact = self.prefixes.compact(iri);
                if !compact.starts_with('<') {
                    if let Some((prefix, _)) = compact.split_once(':') {
                        self.used.insert(prefix.to_string());
                    }
                }
                compact
            }
            Term::Literal(lit) => {
                if lit.language().is_none() && lit.datatype() != &rdf::vocab::xsd::string() {
                    let dt = self.prefixes.compact(lit.datatype());
                    if !dt.starts_with('<') {
                        if let Some((prefix, _)) = dt.split_once(':') {
                            self.used.insert(prefix.to_string());
                        }
                        return format!("\"{}\"^^{dt}", rdf::term::escape_literal(lit.lexical()));
                    }
                }
                term.to_string()
            }
            Term::Blank(_) => term.to_string(),
        }
    }

    fn var_or_term(&mut self, vt: &VarOrTerm) -> String {
        match vt {
            VarOrTerm::Var(v) => v.to_string(),
            VarOrTerm::Term(t) => self.term(t),
        }
    }

    fn var_or_iri(&mut self, vi: &VarOrIri) -> String {
        match vi {
            VarOrIri::Var(v) => v.to_string(),
            VarOrIri::Iri(iri) => {
                if *iri == rdf::vocab::rdf::type_() {
                    "a".to_string()
                } else {
                    self.term(&Term::Iri(iri.clone()))
                }
            }
        }
    }

    fn write_select(&mut self, out: &mut String, query: &SelectQuery, level: usize) {
        Self::indent(out, level);
        out.push_str("SELECT ");
        if query.distinct {
            out.push_str("DISTINCT ");
        }
        match &query.projection {
            Projection::Wildcard => out.push('*'),
            Projection::Items(items) => {
                let rendered: Vec<String> = items
                    .iter()
                    .map(|item| match item {
                        SelectItem::Var(v) => v.to_string(),
                        SelectItem::Expr { expr, alias } => {
                            format!("({} AS {})", self.expr(expr), alias)
                        }
                    })
                    .collect();
                out.push_str(&rendered.join(" "));
            }
        }
        out.push('\n');
        Self::indent(out, level);
        out.push_str("WHERE ");
        self.write_group(out, &query.pattern, level);
        if !query.group_by.is_empty() {
            out.push('\n');
            Self::indent(out, level);
            let keys: Vec<String> = query.group_by.iter().map(|e| self.group_key(e)).collect();
            out.push_str(&format!("GROUP BY {}", keys.join(" ")));
        }
        if !query.having.is_empty() {
            out.push('\n');
            Self::indent(out, level);
            let constraints: Vec<String> = query
                .having
                .iter()
                .map(|e| format!("({})", self.expr(e)))
                .collect();
            out.push_str(&format!("HAVING {}", constraints.join(" ")));
        }
        if !query.order_by.is_empty() {
            out.push('\n');
            Self::indent(out, level);
            let keys: Vec<String> = query
                .order_by
                .iter()
                .map(|cond| {
                    if cond.descending {
                        format!("DESC({})", self.expr(&cond.expr))
                    } else {
                        format!("ASC({})", self.expr(&cond.expr))
                    }
                })
                .collect();
            out.push_str(&format!("ORDER BY {}", keys.join(" ")));
        }
        if let Some(limit) = query.limit {
            out.push('\n');
            Self::indent(out, level);
            out.push_str(&format!("LIMIT {limit}"));
        }
        if let Some(offset) = query.offset {
            out.push('\n');
            Self::indent(out, level);
            out.push_str(&format!("OFFSET {offset}"));
        }
    }

    fn group_key(&mut self, expr: &Expression) -> String {
        match expr {
            Expression::Var(v) => v.to_string(),
            other => format!("({})", self.expr(other)),
        }
    }

    fn write_group(&mut self, out: &mut String, group: &GroupGraphPattern, level: usize) {
        out.push_str("{\n");
        for element in &group.elements {
            match element {
                PatternElement::Triple(t) => {
                    Self::indent(out, level + 1);
                    out.push_str(&format!(
                        "{} {} {} .\n",
                        self.var_or_term(&t.subject),
                        self.var_or_iri(&t.predicate),
                        self.var_or_term(&t.object)
                    ));
                }
                PatternElement::Filter(expr) => {
                    Self::indent(out, level + 1);
                    out.push_str(&format!("FILTER({})\n", self.expr(expr)));
                }
                PatternElement::Optional(inner) => {
                    Self::indent(out, level + 1);
                    out.push_str("OPTIONAL ");
                    self.write_group(out, inner, level + 1);
                    out.push('\n');
                }
                PatternElement::Minus(inner) => {
                    Self::indent(out, level + 1);
                    out.push_str("MINUS ");
                    self.write_group(out, inner, level + 1);
                    out.push('\n');
                }
                PatternElement::Union(left, right) => {
                    Self::indent(out, level + 1);
                    self.write_group(out, left, level + 1);
                    out.push_str(" UNION ");
                    self.write_group(out, right, level + 1);
                    out.push('\n');
                }
                PatternElement::Bind { expr, var } => {
                    Self::indent(out, level + 1);
                    out.push_str(&format!("BIND({} AS {})\n", self.expr(expr), var));
                }
                PatternElement::Values { vars, rows } => {
                    Self::indent(out, level + 1);
                    let var_list: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                    out.push_str(&format!("VALUES ({}) {{\n", var_list.join(" ")));
                    for row in rows {
                        Self::indent(out, level + 2);
                        let cells: Vec<String> = row
                            .iter()
                            .map(|t| match t {
                                Some(t) => self.term(t),
                                None => "UNDEF".to_string(),
                            })
                            .collect();
                        out.push_str(&format!("({})\n", cells.join(" ")));
                    }
                    Self::indent(out, level + 1);
                    out.push_str("}\n");
                }
                PatternElement::SubSelect(sub) => {
                    Self::indent(out, level + 1);
                    out.push_str("{\n");
                    self.write_select(out, sub, level + 2);
                    out.push('\n');
                    Self::indent(out, level + 1);
                    out.push_str("}\n");
                }
                PatternElement::Group(inner) => {
                    Self::indent(out, level + 1);
                    self.write_group(out, inner, level + 1);
                    out.push('\n');
                }
            }
        }
        Self::indent(out, level);
        out.push('}');
    }

    fn expr(&mut self, expr: &Expression) -> String {
        match expr {
            Expression::Var(v) => v.to_string(),
            Expression::Constant(t) => self.term(t),
            Expression::Not(e) => format!("!({})", self.expr(e)),
            Expression::And(a, b) => format!("({} && {})", self.expr(a), self.expr(b)),
            Expression::Or(a, b) => format!("({} || {})", self.expr(a), self.expr(b)),
            Expression::Compare(a, op, b) => {
                format!("{} {} {}", self.expr(a), op.as_str(), self.expr(b))
            }
            Expression::Arithmetic(a, op, b) => {
                format!("({} {} {})", self.expr(a), op.as_str(), self.expr(b))
            }
            Expression::Neg(e) => format!("-({})", self.expr(e)),
            Expression::Call(f, args) => {
                let rendered: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                format!("{}({})", f.as_str(), rendered.join(", "))
            }
            Expression::Aggregate(agg) => {
                let inner = match &agg.expr {
                    None => "*".to_string(),
                    Some(e) => self.expr(e),
                };
                let distinct = if agg.distinct { "DISTINCT " } else { "" };
                format!("{}({distinct}{inner})", agg.function.as_str())
            }
            Expression::In(e, list) => {
                let rendered: Vec<String> = list.iter().map(|a| self.expr(a)).collect();
                format!("{} IN ({})", self.expr(e), rendered.join(", "))
            }
            Expression::Exists(pattern) => {
                let mut body = String::new();
                self.write_group(&mut body, pattern, 0);
                format!("EXISTS {body}")
            }
            Expression::NotExists(pattern) => {
                let mut body = String::new();
                self.write_group(&mut body, pattern, 0);
                format!("NOT EXISTS {body}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;
    use crate::testutil::evaluate_select;
    use rdf::parser::parse_turtle;

    fn roundtrip(query_text: &str) -> (SelectQuery, SelectQuery) {
        let original = parse_select(query_text).unwrap();
        let printed = select_to_string(&original);
        let reparsed = parse_select(&printed)
            .unwrap_or_else(|e| panic!("printed query must reparse: {e}\n{printed}"));
        (original, reparsed)
    }

    #[test]
    fn roundtrip_simple_query() {
        let (_a, b) = roundtrip(
            "PREFIX ex: <http://example.org/>
             SELECT ?s WHERE { ?s a ex:Country . FILTER(?s != ex:FR) }",
        );
        assert_eq!(b.pattern.triple_pattern_count(), 1);
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let data = parse_turtle(
            "@prefix ex: <http://example.org/> .
             ex:o1 ex:c ex:SY ; ex:v 10 . ex:o2 ex:c ex:NG ; ex:v 3 .
             ex:SY ex:cont ex:Asia . ex:NG ex:cont ex:Africa .",
        )
        .unwrap()
        .into_graph();
        let text = "PREFIX ex: <http://example.org/>
             SELECT ?cont (SUM(?v) AS ?total) WHERE {
               ?o ex:c ?c ; ex:v ?v . ?c ex:cont ?cont .
             } GROUP BY ?cont ORDER BY DESC(?total)";
        let original = parse_select(text).unwrap();
        let printed = select_to_string(&original);
        let reparsed = parse_select(&printed).unwrap();
        let r1 = evaluate_select(&data, &original);
        let r2 = evaluate_select(&data, &reparsed);
        assert_eq!(r1, r2);
    }

    #[test]
    fn prefix_header_only_lists_used_prefixes() {
        let mut q = SelectQuery::new();
        q.prefixes = PrefixMap::with_common_prefixes();
        q.pattern.push_triple(TriplePattern::new(
            VarOrTerm::var("obs"),
            rdf::vocab::qb::data_set(),
            VarOrTerm::iri("http://eurostat.linked-statistics.org/data/migr_asyappctzm"),
        ));
        let text = select_to_string(&Query::Select(q.clone()).as_select().unwrap().clone());
        assert!(text.contains("PREFIX qb:"));
        assert!(text.contains("PREFIX data:"));
        assert!(!text.contains("PREFIX dbo:"));
    }

    #[test]
    fn rdf_type_prints_as_a() {
        let mut q = SelectQuery::new();
        q.prefixes = PrefixMap::with_common_prefixes();
        q.pattern.push_triple(TriplePattern::new(
            VarOrTerm::var("x"),
            rdf::vocab::rdf::type_(),
            rdf::vocab::qb::observation(),
        ));
        let text = select_to_string(&q);
        assert!(text.contains("?x a qb:Observation ."), "{text}");
    }

    #[test]
    fn roundtrip_values_subselect_optional() {
        let (_a, b) = roundtrip(
            "PREFIX ex: <http://example.org/>
             SELECT ?x ?total WHERE {
               VALUES (?x) { (ex:SY) (ex:NG) }
               OPTIONAL { ?x ex:label ?l }
               { SELECT ?x (COUNT(*) AS ?total) WHERE { ?o ex:c ?x } GROUP BY ?x }
               FILTER(BOUND(?l) || ?total > 0)
             } LIMIT 10",
        );
        assert!(matches!(
            b.pattern.elements[0],
            PatternElement::Values { .. }
        ));
        assert_eq!(b.limit, Some(10));
    }

    #[test]
    fn line_count_reflects_structure() {
        let q = parse_select(
            "PREFIX ex: <http://example.org/>
             SELECT ?a ?b WHERE { ?a ex:p ?b . ?b ex:q ?c . FILTER(?c > 3) } GROUP BY ?a ?b",
        )
        .unwrap();
        let printed = select_to_string(&q);
        assert!(printed.lines().count() >= 7, "{printed}");
    }
}
