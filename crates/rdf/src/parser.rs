//! Parsers for the N-Triples and Turtle serialisations.
//!
//! The Turtle parser supports the subset of Turtle that QB/QB4OLAP datasets
//! in the wild actually use (and that our serialiser emits): `@prefix` /
//! `PREFIX` directives, `@base`, prefixed names, `a`, predicate lists with
//! `;`, object lists with `,`, anonymous blank nodes `[ ... ]`, labelled
//! blank nodes `_:x`, string / numeric / boolean literals, datatype and
//! language tags, and comments. N-Triples input is a subset of this grammar,
//! so [`parse_ntriples`] simply delegates to the Turtle parser with prefix
//! directives disabled.

use crate::error::ParseError;
use crate::graph::Graph;
use crate::namespace::PrefixMap;
use crate::term::{BlankNode, Iri, Literal, Term, Triple};
use crate::vocab::{rdf, xsd};

/// The result of parsing a Turtle document: the triples plus the prefix map
/// declared by the document.
#[derive(Debug, Clone, Default)]
pub struct ParsedDocument {
    /// All triples in document order (duplicates preserved).
    pub triples: Vec<Triple>,
    /// Prefixes declared with `@prefix` / `PREFIX`.
    pub prefixes: PrefixMap,
}

impl ParsedDocument {
    /// Builds a graph from the parsed triples.
    pub fn into_graph(self) -> Graph {
        Graph::from_triples(self.triples)
    }
}

/// Parses a Turtle document.
pub fn parse_turtle(input: &str) -> Result<ParsedDocument, ParseError> {
    TurtleParser::new(input, true).parse()
}

/// Parses an N-Triples document.
pub fn parse_ntriples(input: &str) -> Result<ParsedDocument, ParseError> {
    TurtleParser::new(input, false).parse()
}

struct TurtleParser<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    column: usize,
    allow_directives: bool,
    prefixes: PrefixMap,
    base: Option<String>,
    triples: Vec<Triple>,
    blank_counter: usize,
    source: &'a str,
}

impl<'a> TurtleParser<'a> {
    fn new(input: &'a str, allow_directives: bool) -> Self {
        TurtleParser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            column: 1,
            allow_directives,
            prefixes: PrefixMap::new(),
            base: None,
            triples: Vec::new(),
            blank_counter: 0,
            source: input,
        }
    }

    fn parse(mut self) -> Result<ParsedDocument, ParseError> {
        loop {
            self.skip_ws();
            if self.at_end() {
                break;
            }
            if self.allow_directives
                && (self.peek() == Some('@')
                    || self.peek_keyword("PREFIX")
                    || self.peek_keyword("BASE"))
            {
                self.parse_directive()?;
                continue;
            }
            self.parse_statement()?;
        }
        // The source reference is only kept for error context; silence the
        // unused-field lint on builds without error paths exercised.
        let _ = self.source;
        Ok(ParsedDocument {
            triples: self.triples,
            prefixes: self.prefixes,
        })
    }

    // ---- low-level cursor -------------------------------------------------

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<char> {
        self.chars.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.column, message)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn expect(&mut self, expected: char) -> Result<(), ParseError> {
        match self.peek() {
            Some(c) if c == expected => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(self.error(format!("expected '{expected}', found '{c}'"))),
            None => Err(self.error(format!("expected '{expected}', found end of input"))),
        }
    }

    fn peek_keyword(&self, keyword: &str) -> bool {
        let upper: Vec<char> = keyword.chars().collect();
        for (i, k) in upper.iter().enumerate() {
            match self.peek_at(i) {
                Some(c) if c.eq_ignore_ascii_case(k) => {}
                _ => return false,
            }
        }
        // must be followed by whitespace
        matches!(self.peek_at(upper.len()), Some(c) if c.is_whitespace())
    }

    // ---- directives -------------------------------------------------------

    fn parse_directive(&mut self) -> Result<(), ParseError> {
        let at_form = self.peek() == Some('@');
        if at_form {
            self.bump();
        }
        let word = self.read_while(|c| c.is_alphabetic());
        match word.to_ascii_lowercase().as_str() {
            "prefix" => {
                self.skip_ws();
                let prefix = self.read_while(|c| c != ':' && !c.is_whitespace());
                self.expect(':')?;
                self.skip_ws();
                let iri = self.parse_iri_ref()?;
                self.prefixes.insert(prefix, iri.as_str());
                self.skip_ws();
                if at_form {
                    self.expect('.')?;
                } else if self.peek() == Some('.') {
                    self.bump();
                }
                Ok(())
            }
            "base" => {
                self.skip_ws();
                let iri = self.parse_iri_ref()?;
                self.base = Some(iri.as_str().to_string());
                self.skip_ws();
                if at_form {
                    self.expect('.')?;
                } else if self.peek() == Some('.') {
                    self.bump();
                }
                Ok(())
            }
            other => Err(self.error(format!("unknown directive '@{other}'"))),
        }
    }

    fn read_while(&mut self, pred: impl Fn(char) -> bool) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if pred(c) {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }

    // ---- statements -------------------------------------------------------

    fn parse_statement(&mut self) -> Result<(), ParseError> {
        let subject = self.parse_subject()?;
        self.skip_ws();
        self.parse_predicate_object_list(&subject)?;
        self.skip_ws();
        self.expect('.')?;
        Ok(())
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            let predicate = self.parse_predicate()?;
            loop {
                self.skip_ws();
                let object = self.parse_object()?;
                self.triples
                    .push(Triple::new(subject.clone(), predicate.clone(), object));
                self.skip_ws();
                if self.peek() == Some(',') {
                    self.bump();
                } else {
                    break;
                }
            }
            if self.peek() == Some(';') {
                self.bump();
                self.skip_ws();
                // A trailing ';' before '.' or ']' is legal Turtle.
                if matches!(self.peek(), Some('.') | Some(']')) || self.at_end() {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(())
    }

    fn parse_subject(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri_ref()?)),
            Some('_') => Ok(Term::Blank(self.parse_blank_node_label()?)),
            Some('[') => self.parse_anonymous_blank(),
            Some(c) if c == '"' || c == '\'' => Err(self.error("literal subjects are not allowed")),
            Some(_) => {
                if !self.allow_directives {
                    return Err(self.error("N-Triples subjects must be IRIs or blank nodes"));
                }
                Ok(Term::Iri(self.parse_prefixed_name()?))
            }
            None => Err(self.error("unexpected end of input while reading subject")),
        }
    }

    fn parse_predicate(&mut self) -> Result<Iri, ParseError> {
        match self.peek() {
            Some('<') => self.parse_iri_ref(),
            Some('a') if self.is_bare_a() => {
                self.bump();
                Ok(rdf::type_())
            }
            Some(_) if self.allow_directives => self.parse_prefixed_name(),
            _ => Err(self.error("expected predicate IRI")),
        }
    }

    fn is_bare_a(&self) -> bool {
        self.peek() == Some('a')
            && matches!(self.peek_at(1), Some(c) if c.is_whitespace() || c == '<' || c == '[' || c == '_')
    }

    fn parse_object(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some('<') => Ok(Term::Iri(self.parse_iri_ref()?)),
            Some('_') => Ok(Term::Blank(self.parse_blank_node_label()?)),
            Some('[') => self.parse_anonymous_blank(),
            Some('"') | Some('\'') => Ok(Term::Literal(self.parse_string_literal()?)),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' => {
                Ok(Term::Literal(self.parse_numeric_literal()?))
            }
            Some('t') | Some('f') if self.allow_directives && self.peek_boolean().is_some() => {
                let value = self.peek_boolean().expect("checked above");
                let len = if value { 4 } else { 5 };
                for _ in 0..len {
                    self.bump();
                }
                Ok(Term::Literal(Literal::boolean(value)))
            }
            Some('(') => Err(self.error("RDF collections '(...)' are not supported")),
            Some(_) if self.allow_directives => Ok(Term::Iri(self.parse_prefixed_name()?)),
            _ => Err(self.error("expected object term")),
        }
    }

    fn peek_boolean(&self) -> Option<bool> {
        let rest: String = self.chars[self.pos..self.chars.len().min(self.pos + 6)]
            .iter()
            .collect();
        if rest.starts_with("true") && !Self::is_name_char(rest.chars().nth(4)) {
            Some(true)
        } else if rest.starts_with("false") && !Self::is_name_char(rest.chars().nth(5)) {
            Some(false)
        } else {
            None
        }
    }

    fn is_name_char(c: Option<char>) -> bool {
        matches!(c, Some(c) if c.is_alphanumeric() || c == '_' || c == ':')
    }

    fn parse_anonymous_blank(&mut self) -> Result<Term, ParseError> {
        self.expect('[')?;
        self.blank_counter += 1;
        let node = Term::Blank(BlankNode::new(format!("anon{}", self.blank_counter)));
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(node);
        }
        self.parse_predicate_object_list(&node)?;
        self.skip_ws();
        self.expect(']')?;
        Ok(node)
    }

    fn parse_iri_ref(&mut self) -> Result<Iri, ParseError> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some('\\') => match self.bump() {
                    Some('u') => iri.push(self.parse_unicode_escape(4)?),
                    Some('U') => iri.push(self.parse_unicode_escape(8)?),
                    Some(c) => iri.push(c),
                    None => return Err(self.error("unterminated IRI escape")),
                },
                Some('\n') => return Err(self.error("newline inside IRI")),
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI")),
            }
        }
        if let Some(base) = &self.base {
            if !iri.contains(':') {
                return Ok(Iri::new(format!("{base}{iri}")));
            }
        }
        Ok(Iri::new(iri))
    }

    fn parse_unicode_escape(&mut self, len: usize) -> Result<char, ParseError> {
        let mut hex = String::with_capacity(len);
        for _ in 0..len {
            match self.bump() {
                Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                _ => return Err(self.error("invalid unicode escape")),
            }
        }
        let code = u32::from_str_radix(&hex, 16)
            .map_err(|_| self.error("invalid unicode escape value"))?;
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))
    }

    fn parse_blank_node_label(&mut self) -> Result<BlankNode, ParseError> {
        self.expect('_')?;
        self.expect(':')?;
        let label = self.read_while(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.');
        if label.is_empty() {
            return Err(self.error("empty blank node label"));
        }
        Ok(BlankNode::new(label.trim_end_matches('.')))
    }

    fn parse_prefixed_name(&mut self) -> Result<Iri, ParseError> {
        let prefix = self.read_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        self.expect(':')?;
        let raw_local = self.read_while(|c| {
            c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%' || c == '+'
        });
        // A trailing '.' terminates the statement, not the name: trim it and
        // rewind the cursor by exactly the number of characters trimmed so
        // the statement parser still sees the terminating dot(s).
        let local = raw_local.trim_end_matches('.');
        let trimmed_dots = raw_local.len() - local.len();
        self.pos -= trimmed_dots;
        self.column = self.column.saturating_sub(trimmed_dots);
        match self.prefixes.namespace(&prefix) {
            Some(ns) => Ok(Iri::new(format!("{ns}{local}"))),
            None => Err(self.error(format!("undefined prefix '{prefix}:'"))),
        }
    }

    fn parse_string_literal(&mut self) -> Result<Literal, ParseError> {
        let quote = self.bump().expect("caller checked quote");
        let long = self.peek() == Some(quote) && self.peek_at(1) == Some(quote);
        if long {
            self.bump();
            self.bump();
        }
        let mut value = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => {
                    if long {
                        if self.peek() == Some(quote) && self.peek_at(1) == Some(quote) {
                            self.bump();
                            self.bump();
                            break;
                        }
                        value.push(c);
                    } else {
                        break;
                    }
                }
                Some('\\') => match self.bump() {
                    Some('n') => value.push('\n'),
                    Some('r') => value.push('\r'),
                    Some('t') => value.push('\t'),
                    Some('"') => value.push('"'),
                    Some('\'') => value.push('\''),
                    Some('\\') => value.push('\\'),
                    Some('u') => value.push(self.parse_unicode_escape(4)?),
                    Some('U') => value.push(self.parse_unicode_escape(8)?),
                    Some(c) => return Err(self.error(format!("invalid escape '\\{c}'"))),
                    None => return Err(self.error("unterminated string escape")),
                },
                Some('\n') if !long => return Err(self.error("newline in single-line string")),
                Some(c) => value.push(c),
                None => return Err(self.error("unterminated string literal")),
            }
        }
        // Optional language tag or datatype.
        match self.peek() {
            Some('@') => {
                self.bump();
                let lang = self.read_while(|c| c.is_ascii_alphanumeric() || c == '-');
                if lang.is_empty() {
                    return Err(self.error("empty language tag"));
                }
                Ok(Literal::lang_string(value, lang))
            }
            Some('^') => {
                self.bump();
                self.expect('^')?;
                let datatype = match self.peek() {
                    Some('<') => self.parse_iri_ref()?,
                    Some(_) if self.allow_directives => self.parse_prefixed_name()?,
                    _ => return Err(self.error("expected datatype IRI after '^^'")),
                };
                Ok(Literal::typed(value, datatype))
            }
            _ => Ok(Literal::string(value)),
        }
    }

    fn parse_numeric_literal(&mut self) -> Result<Literal, ParseError> {
        let mut text = String::new();
        if matches!(self.peek(), Some('+') | Some('-')) {
            text.push(self.bump().expect("sign"));
        }
        let mut is_decimal = false;
        let mut is_double = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek_at(1).map(|d| d.is_ascii_digit()).unwrap_or(false) {
                is_decimal = true;
                text.push(c);
                self.bump();
            } else if (c == 'e' || c == 'E')
                && self
                    .peek_at(1)
                    .map(|d| d.is_ascii_digit() || d == '+' || d == '-')
                    .unwrap_or(false)
            {
                is_double = true;
                text.push(c);
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    text.push(self.bump().expect("exp sign"));
                }
            } else {
                break;
            }
        }
        if text.is_empty() || text == "+" || text == "-" {
            return Err(self.error("invalid numeric literal"));
        }
        let datatype = if is_double {
            xsd::double()
        } else if is_decimal {
            xsd::decimal()
        } else {
            xsd::integer()
        };
        Ok(Literal::typed(text, datatype))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{qb, qb4o};

    #[test]
    fn parse_simple_ntriples() {
        let doc = parse_ntriples(
            "<http://s> <http://p> <http://o> .\n<http://s> <http://p2> \"hello\" .\n",
        )
        .expect("parse");
        assert_eq!(doc.triples.len(), 2);
        assert_eq!(doc.triples[0].predicate.as_str(), "http://p");
        assert_eq!(
            doc.triples[1].object,
            Term::Literal(Literal::string("hello"))
        );
    }

    #[test]
    fn parse_ntriples_typed_and_lang_literals() {
        let doc = parse_ntriples(
            "<http://s> <http://p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n\
             <http://s> <http://p> \"Africa\"@en .\n",
        )
        .expect("parse");
        assert_eq!(
            doc.triples[0].object.as_literal().unwrap().as_integer(),
            Some(5)
        );
        assert_eq!(
            doc.triples[1].object.as_literal().unwrap().language(),
            Some("en")
        );
    }

    #[test]
    fn parse_turtle_with_prefixes_and_lists() {
        let ttl = r#"
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix qb4o: <http://purl.org/qb4olap/cubes#> .
@prefix ex: <http://example.org/> .

ex:dsd a qb:DataStructureDefinition ;
    qb:component [ qb4o:level ex:citizen ; qb4o:cardinality qb4o:ManyToOne ] ,
                 [ qb:measure ex:obsValue ] .
"#;
        let doc = parse_turtle(ttl).expect("parse");
        let graph = doc.clone().into_graph();
        assert_eq!(doc.prefixes.namespace("qb"), Some(qb::NAMESPACE));
        // 1 type triple + 2 component triples + 2 triples in first bnode + 1 in second.
        assert_eq!(graph.len(), 6);
        let dsd = Term::iri("http://example.org/dsd");
        assert_eq!(graph.objects(&dsd, &qb::component()).len(), 2);
        // The anonymous component nodes carry qb4o:level / qb:measure.
        let levels = graph.triples_matching(None, Some(&qb4o::level()), None);
        assert_eq!(levels.len(), 1);
    }

    #[test]
    fn parse_turtle_a_and_comma_objects() {
        let ttl = r#"
@prefix ex: <http://example.org/> .
ex:hier a ex:Hierarchy ; ex:hasLevel ex:a, ex:b, ex:c .
"#;
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        assert_eq!(graph.len(), 4);
        assert_eq!(
            graph
                .objects(
                    &Term::iri("http://example.org/hier"),
                    &Iri::new("http://example.org/hasLevel")
                )
                .len(),
            3
        );
    }

    #[test]
    fn parse_numbers_and_booleans() {
        let ttl = r#"
@prefix ex: <http://example.org/> .
ex:o ex:int 42 ; ex:neg -7 ; ex:dec 3.25 ; ex:dbl 1.0e3 ; ex:flag true ; ex:off false .
"#;
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        let o = Term::iri("http://example.org/o");
        let get = |p: &str| {
            graph
                .object(&o, &Iri::new(format!("http://example.org/{p}")))
                .unwrap()
        };
        assert_eq!(get("int").as_literal().unwrap().as_integer(), Some(42));
        assert_eq!(get("neg").as_literal().unwrap().as_integer(), Some(-7));
        assert_eq!(get("dec").as_literal().unwrap().as_double(), Some(3.25));
        assert_eq!(get("dbl").as_literal().unwrap().as_double(), Some(1000.0));
        assert_eq!(get("flag").as_literal().unwrap().as_boolean(), Some(true));
        assert_eq!(get("off").as_literal().unwrap().as_boolean(), Some(false));
    }

    #[test]
    fn parse_comments_and_blank_lines() {
        let ttl = r#"
# a QB observation
@prefix ex: <http://example.org/> .

ex:obs1 ex:value 10 . # trailing comment
"#;
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn parse_labelled_blank_nodes() {
        let doc =
            parse_turtle("@prefix ex: <http://example.org/> .\n_:b1 ex:p ex:o . ex:s ex:q _:b1 .")
                .expect("parse");
        assert_eq!(doc.triples.len(), 2);
        assert_eq!(doc.triples[0].subject, Term::blank("b1"));
        assert_eq!(doc.triples[1].object, Term::blank("b1"));
    }

    #[test]
    fn undefined_prefix_is_an_error() {
        let err = parse_turtle("ex:s ex:p ex:o .").expect_err("must fail");
        assert!(err.message.contains("undefined prefix"));
    }

    #[test]
    fn unterminated_iri_is_an_error() {
        let err = parse_ntriples("<http://s <http://p> <http://o> .").expect_err("must fail");
        assert!(err.message.contains("IRI") || err.message.contains("expected"));
    }

    #[test]
    fn collections_are_rejected() {
        let err = parse_turtle("@prefix ex: <http://e/> . ex:s ex:p (1 2) .").expect_err("fail");
        assert!(err.message.contains("not supported"));
    }

    #[test]
    fn long_strings_and_escapes() {
        let ttl = "@prefix ex: <http://e/> . ex:s ex:p \"\"\"multi\nline\"\"\" ; ex:q \"tab\\tseparated\" .";
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        let s = Term::iri("http://e/s");
        assert_eq!(
            graph
                .object(&s, &Iri::new("http://e/p"))
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical(),
            "multi\nline"
        );
        assert_eq!(
            graph
                .object(&s, &Iri::new("http://e/q"))
                .unwrap()
                .as_literal()
                .unwrap()
                .lexical(),
            "tab\tseparated"
        );
    }

    #[test]
    fn base_resolution_for_relative_iris() {
        let ttl = "@base <http://example.org/> . <s> <http://p> <o> .";
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        assert!(graph.contains(&Triple::new(
            Term::iri("http://example.org/s"),
            Iri::new("http://p"),
            Term::iri("http://example.org/o"),
        )));
    }

    #[test]
    fn sparql_style_prefix_directive() {
        let ttl = "PREFIX ex: <http://example.org/>\nex:s ex:p ex:o .";
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn paper_dsd_snippet_parses() {
        // The QB4OLAP DSD snippet from Section II of the paper (prefixes added).
        let ttl = r#"
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix qb: <http://purl.org/linked-data/cube#> .
@prefix qb4o: <http://purl.org/qb4olap/cubes#> .
@prefix sdmx-dimension: <http://purl.org/linked-data/sdmx/2009/dimension#> .
@prefix sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#> .
@prefix property: <http://eurostat.linked-statistics.org/property#> .
@prefix schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#> .

schema:migr_asyappctzmQB4O rdf:type qb:DataStructureDefinition ;
  qb:component [ qb4o:level sdmx-dimension:refPeriod ; qb4o:cardinality qb4o:ManyToOne ] ;
  qb:component [ qb4o:level property:citizen ; qb4o:cardinality qb4o:ManyToOne ] ;
  qb:component [ qb:measure sdmx-measure:obsValue ; qb4o:aggregateFunction qb4o:sum ] .
"#;
        let graph = parse_turtle(ttl).expect("parse").into_graph();
        let dsd =
            Term::iri("http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#migr_asyappctzmQB4O");
        assert_eq!(graph.objects(&dsd, &qb::component()).len(), 3);
        assert_eq!(
            graph
                .triples_matching(None, Some(&qb4o::aggregate_function()), None)
                .len(),
            1
        );
    }
}
