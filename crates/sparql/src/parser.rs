//! Recursive-descent parser for the SPARQL subset.
//!
//! Supported query forms: `SELECT` (with `DISTINCT`, expression projections,
//! `GROUP BY`, `HAVING`, `ORDER BY`, `LIMIT`, `OFFSET`, sub-selects) and
//! `ASK`. Supported pattern elements: basic graph patterns with `;`/`,`
//! abbreviations, `FILTER`, `OPTIONAL`, `UNION`, `MINUS`, `BIND`, `VALUES`
//! and nested groups. This covers every query QB2OLAP generates (both the
//! direct and the alternative translation) plus the exploratory queries the
//! Enrichment and Exploration modules issue.

use rdf::{Iri, Literal, PrefixMap, Term};

use crate::ast::*;
use crate::error::SparqlError;
use crate::token::{tokenize, Punct, Spanned, Token};

/// Parses a SPARQL query string into a [`Query`].
pub fn parse_query(input: &str) -> Result<Query, SparqlError> {
    let tokens = tokenize(input)?;
    Parser::new(tokens).parse_query()
}

/// Parses a SPARQL SELECT query, rejecting other query forms.
pub fn parse_select(input: &str) -> Result<SelectQuery, SparqlError> {
    match parse_query(input)? {
        Query::Select(q) => Ok(q),
        Query::Ask(_) => Err(SparqlError::unsupported(
            "expected a SELECT query, found ASK",
        )),
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    prefixes: PrefixMap,
}

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Self {
        Parser {
            tokens,
            pos: 0,
            prefixes: PrefixMap::new(),
        }
    }

    // ---- token helpers ------------------------------------------------

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn position(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|s| (s.line, s.column))
            .unwrap_or((0, 0))
    }

    fn error(&self, message: impl Into<String>) -> SparqlError {
        let (line, column) = self.position();
        SparqlError::parse(line, column, message)
    }

    fn at_keyword(&self, keyword: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(keyword))
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.at_keyword(keyword) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Result<(), SparqlError> {
        if self.eat_keyword(keyword) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{keyword}', found {:?}", self.peek())))
        }
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), Some(Token::Punct(q)) if *q == p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), SparqlError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected {p:?}, found {:?}", self.peek())))
        }
    }

    // ---- query forms ---------------------------------------------------

    fn parse_query(mut self) -> Result<Query, SparqlError> {
        self.parse_prologue()?;
        if self.at_keyword("SELECT") {
            let q = self.parse_select_query()?;
            self.expect_end()?;
            Ok(Query::Select(q))
        } else if self.at_keyword("ASK") {
            self.bump();
            // Optional WHERE keyword.
            self.eat_keyword("WHERE");
            let pattern = self.parse_group_graph_pattern()?;
            self.expect_end()?;
            Ok(Query::Ask(AskQuery {
                prefixes: self.prefixes.clone(),
                pattern,
            }))
        } else {
            Err(self.error("expected SELECT or ASK"))
        }
    }

    fn expect_end(&mut self) -> Result<(), SparqlError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing token {:?}", self.peek())))
        }
    }

    fn parse_prologue(&mut self) -> Result<(), SparqlError> {
        loop {
            if self.at_keyword("PREFIX") {
                self.bump();
                let (prefix, local) = match self.bump() {
                    Some(Token::PrefixedName(p, l)) => (p, l),
                    other => {
                        return Err(self.error(format!("expected prefix name, found {other:?}")))
                    }
                };
                if !local.is_empty() {
                    return Err(self.error("prefix declaration must end with ':'"));
                }
                let iri = match self.bump() {
                    Some(Token::IriRef(iri)) => iri,
                    other => return Err(self.error(format!("expected IRI, found {other:?}"))),
                };
                self.prefixes.insert(prefix, iri);
            } else if self.at_keyword("BASE") {
                self.bump();
                match self.bump() {
                    Some(Token::IriRef(_)) => {}
                    other => return Err(self.error(format!("expected IRI, found {other:?}"))),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_select_query(&mut self) -> Result<SelectQuery, SparqlError> {
        self.expect_keyword("SELECT")?;
        let mut query = SelectQuery::new();
        query.prefixes = self.prefixes.clone();
        if self.eat_keyword("DISTINCT") {
            query.distinct = true;
        } else {
            self.eat_keyword("REDUCED");
        }

        // Projection.
        if self.eat_punct(Punct::Star) {
            query.projection = Projection::Wildcard;
        } else {
            let mut items = Vec::new();
            loop {
                match self.peek() {
                    Some(Token::Var(_)) => {
                        if let Some(Token::Var(name)) = self.bump() {
                            items.push(SelectItem::Var(Variable::new(name)));
                        }
                    }
                    Some(Token::Punct(Punct::LParen)) => {
                        self.bump();
                        let expr = self.parse_expression()?;
                        self.expect_keyword("AS")?;
                        let alias = self.parse_variable()?;
                        self.expect_punct(Punct::RParen)?;
                        items.push(SelectItem::Expr { expr, alias });
                    }
                    _ => break,
                }
            }
            if items.is_empty() {
                return Err(self.error("SELECT requires '*' or at least one projection item"));
            }
            query.projection = Projection::Items(items);
        }

        // WHERE clause.
        self.eat_keyword("WHERE");
        query.pattern = self.parse_group_graph_pattern()?;

        // Solution modifiers.
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek() {
                    Some(Token::Var(_)) => {
                        if let Some(Token::Var(name)) = self.bump() {
                            query.group_by.push(Expression::Var(Variable::new(name)));
                        }
                    }
                    Some(Token::Punct(Punct::LParen)) => {
                        self.bump();
                        let expr = self.parse_expression()?;
                        self.expect_punct(Punct::RParen)?;
                        query.group_by.push(expr);
                    }
                    _ => break,
                }
            }
            if query.group_by.is_empty() {
                return Err(self.error("GROUP BY requires at least one grouping expression"));
            }
        }
        if self.eat_keyword("HAVING") {
            loop {
                if self.at_punct(Punct::LParen) {
                    self.bump();
                    let expr = self.parse_expression()?;
                    self.expect_punct(Punct::RParen)?;
                    query.having.push(expr);
                } else {
                    break;
                }
            }
            if query.having.is_empty() {
                return Err(self.error("HAVING requires at least one constraint"));
            }
        }
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                if self.eat_keyword("ASC") {
                    self.expect_punct(Punct::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect_punct(Punct::RParen)?;
                    query.order_by.push(OrderCondition {
                        expr,
                        descending: false,
                    });
                } else if self.eat_keyword("DESC") {
                    self.expect_punct(Punct::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect_punct(Punct::RParen)?;
                    query.order_by.push(OrderCondition {
                        expr,
                        descending: true,
                    });
                } else if let Some(Token::Var(_)) = self.peek() {
                    if let Some(Token::Var(name)) = self.bump() {
                        query.order_by.push(OrderCondition {
                            expr: Expression::Var(Variable::new(name)),
                            descending: false,
                        });
                    }
                } else {
                    break;
                }
            }
            if query.order_by.is_empty() {
                return Err(self.error("ORDER BY requires at least one sort key"));
            }
        }
        loop {
            if self.eat_keyword("LIMIT") {
                query.limit = Some(self.parse_unsigned()?);
            } else if self.eat_keyword("OFFSET") {
                query.offset = Some(self.parse_unsigned()?);
            } else {
                break;
            }
        }
        Ok(query)
    }

    fn parse_unsigned(&mut self) -> Result<usize, SparqlError> {
        match self.bump() {
            Some(Token::Number(text, true)) => text
                .parse::<usize>()
                .map_err(|_| self.error("invalid integer")),
            other => Err(self.error(format!("expected integer, found {other:?}"))),
        }
    }

    fn parse_variable(&mut self) -> Result<Variable, SparqlError> {
        match self.bump() {
            Some(Token::Var(name)) => Ok(Variable::new(name)),
            other => Err(self.error(format!("expected variable, found {other:?}"))),
        }
    }

    // ---- graph patterns --------------------------------------------------

    fn parse_group_graph_pattern(&mut self) -> Result<GroupGraphPattern, SparqlError> {
        self.expect_punct(Punct::LBrace)?;
        let mut group = GroupGraphPattern::new();

        loop {
            if self.at_punct(Punct::RBrace) {
                self.bump();
                return Ok(group);
            }
            match self.peek() {
                None => return Err(self.error("unterminated group graph pattern")),
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    let expr = self.parse_constraint()?;
                    group.elements.push(PatternElement::Filter(expr));
                    self.eat_punct(Punct::Dot);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.bump();
                    let inner = self.parse_group_graph_pattern()?;
                    group.elements.push(PatternElement::Optional(inner));
                    self.eat_punct(Punct::Dot);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("MINUS") => {
                    self.bump();
                    let inner = self.parse_group_graph_pattern()?;
                    group.elements.push(PatternElement::Minus(inner));
                    self.eat_punct(Punct::Dot);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("BIND") => {
                    self.bump();
                    self.expect_punct(Punct::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect_keyword("AS")?;
                    let var = self.parse_variable()?;
                    self.expect_punct(Punct::RParen)?;
                    group.elements.push(PatternElement::Bind { expr, var });
                    self.eat_punct(Punct::Dot);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("VALUES") => {
                    self.bump();
                    let values = self.parse_values_block()?;
                    group.elements.push(values);
                    self.eat_punct(Punct::Dot);
                }
                Some(Token::Punct(Punct::LBrace)) => {
                    // Sub-select or nested group (possibly followed by UNION).
                    if matches!(self.peek_at(1), Some(Token::Word(w)) if w.eq_ignore_ascii_case("SELECT"))
                    {
                        self.bump();
                        let sub = self.parse_select_query()?;
                        self.expect_punct(Punct::RBrace)?;
                        group
                            .elements
                            .push(PatternElement::SubSelect(Box::new(sub)));
                        self.eat_punct(Punct::Dot);
                    } else {
                        let first = self.parse_group_graph_pattern()?;
                        if self.at_keyword("UNION") {
                            let mut arms = vec![first];
                            while self.eat_keyword("UNION") {
                                arms.push(self.parse_group_graph_pattern()?);
                            }
                            // Fold a chain of UNIONs left-associatively.
                            let mut iter = arms.into_iter();
                            let mut acc = iter.next().expect("at least one arm");
                            for arm in iter {
                                let mut wrapper = GroupGraphPattern::new();
                                wrapper.elements.push(PatternElement::Union(acc, arm));
                                acc = wrapper;
                            }
                            // Unwrap the final single-element wrapper if it is one.
                            if acc.elements.len() == 1 {
                                group.elements.push(acc.elements.pop().expect("one"));
                            } else {
                                group.elements.push(PatternElement::Group(acc));
                            }
                        } else {
                            group.elements.push(PatternElement::Group(first));
                        }
                        self.eat_punct(Punct::Dot);
                    }
                }
                _ => {
                    self.parse_triples_block(&mut group)?;
                }
            }
        }
    }

    fn parse_values_block(&mut self) -> Result<PatternElement, SparqlError> {
        let mut vars = Vec::new();
        let single_var = if let Some(Token::Var(_)) = self.peek() {
            if let Some(Token::Var(name)) = self.bump() {
                vars.push(Variable::new(name));
            }
            true
        } else {
            self.expect_punct(Punct::LParen)?;
            while let Some(Token::Var(_)) = self.peek() {
                if let Some(Token::Var(name)) = self.bump() {
                    vars.push(Variable::new(name));
                }
            }
            self.expect_punct(Punct::RParen)?;
            false
        };
        self.expect_punct(Punct::LBrace)?;
        let mut rows = Vec::new();
        loop {
            if self.eat_punct(Punct::RBrace) {
                break;
            }
            if single_var {
                if self.at_keyword("UNDEF") {
                    self.bump();
                    rows.push(vec![None]);
                } else {
                    let term = self.parse_term()?;
                    rows.push(vec![Some(term)]);
                }
            } else {
                self.expect_punct(Punct::LParen)?;
                let mut row = Vec::new();
                while !self.at_punct(Punct::RParen) {
                    if self.at_keyword("UNDEF") {
                        self.bump();
                        row.push(None);
                    } else {
                        row.push(Some(self.parse_term()?));
                    }
                }
                self.expect_punct(Punct::RParen)?;
                if row.len() != vars.len() {
                    return Err(self.error("VALUES row arity does not match variable list"));
                }
                rows.push(row);
            }
        }
        Ok(PatternElement::Values { vars, rows })
    }

    fn parse_triples_block(&mut self, group: &mut GroupGraphPattern) -> Result<(), SparqlError> {
        let subject = self.parse_var_or_term()?;
        loop {
            let predicate = self.parse_var_or_iri()?;
            loop {
                let object = self.parse_var_or_term()?;
                group.push_triple(TriplePattern {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                if self.eat_punct(Punct::Comma) {
                    continue;
                }
                break;
            }
            if self.eat_punct(Punct::Semicolon) {
                // Allow a dangling ';' before '.' or '}'.
                if self.at_punct(Punct::Dot) || self.at_punct(Punct::RBrace) {
                    break;
                }
                continue;
            }
            break;
        }
        self.eat_punct(Punct::Dot);
        Ok(())
    }

    fn parse_var_or_term(&mut self) -> Result<VarOrTerm, SparqlError> {
        match self.peek() {
            Some(Token::Var(_)) => {
                if let Some(Token::Var(name)) = self.bump() {
                    Ok(VarOrTerm::Var(Variable::new(name)))
                } else {
                    unreachable!("peeked variable")
                }
            }
            _ => Ok(VarOrTerm::Term(self.parse_term()?)),
        }
    }

    fn parse_var_or_iri(&mut self) -> Result<VarOrIri, SparqlError> {
        match self.peek() {
            Some(Token::Var(_)) => {
                if let Some(Token::Var(name)) = self.bump() {
                    Ok(VarOrIri::Var(Variable::new(name)))
                } else {
                    unreachable!("peeked variable")
                }
            }
            Some(Token::Word(w)) if w == "a" => {
                self.bump();
                Ok(VarOrIri::Iri(rdf::vocab::rdf::type_()))
            }
            _ => {
                let term = self.parse_term()?;
                match term {
                    Term::Iri(iri) => Ok(VarOrIri::Iri(iri)),
                    other => Err(self.error(format!("predicate must be an IRI, found {other}"))),
                }
            }
        }
    }

    fn expand_prefixed(&self, prefix: &str, local: &str) -> Result<Iri, SparqlError> {
        match self.prefixes.namespace(prefix) {
            Some(ns) => Ok(Iri::new(format!("{ns}{local}"))),
            None => Err(self.error(format!("undefined prefix '{prefix}:'"))),
        }
    }

    fn parse_term(&mut self) -> Result<Term, SparqlError> {
        match self.bump() {
            Some(Token::IriRef(iri)) => Ok(Term::Iri(Iri::new(iri))),
            Some(Token::PrefixedName(prefix, local)) => {
                Ok(Term::Iri(self.expand_prefixed(&prefix, &local)?))
            }
            Some(Token::BlankLabel(label)) => Ok(Term::blank(label)),
            Some(Token::StringLit(value)) => match self.peek() {
                Some(Token::LangTag(_)) => {
                    if let Some(Token::LangTag(lang)) = self.bump() {
                        Ok(Term::Literal(Literal::lang_string(value, lang)))
                    } else {
                        unreachable!("peeked lang tag")
                    }
                }
                Some(Token::DatatypeMarker) => {
                    self.bump();
                    let datatype = match self.bump() {
                        Some(Token::IriRef(iri)) => Iri::new(iri),
                        Some(Token::PrefixedName(prefix, local)) => {
                            self.expand_prefixed(&prefix, &local)?
                        }
                        other => {
                            return Err(
                                self.error(format!("expected datatype IRI, found {other:?}"))
                            )
                        }
                    };
                    Ok(Term::Literal(Literal::typed(value, datatype)))
                }
                _ => Ok(Term::Literal(Literal::string(value))),
            },
            Some(Token::Number(text, integral)) => {
                let datatype = if integral {
                    rdf::vocab::xsd::integer()
                } else {
                    rdf::vocab::xsd::decimal()
                };
                Ok(Term::Literal(Literal::typed(text, datatype)))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("true") => {
                Ok(Term::Literal(Literal::boolean(true)))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("false") => {
                Ok(Term::Literal(Literal::boolean(false)))
            }
            other => Err(self.error(format!("expected RDF term, found {other:?}"))),
        }
    }

    // ---- expressions ------------------------------------------------------

    fn parse_constraint(&mut self) -> Result<Expression, SparqlError> {
        // FILTER takes either a bracketted expression or a builtin call.
        if self.at_punct(Punct::LParen) {
            self.bump();
            let e = self.parse_expression()?;
            self.expect_punct(Punct::RParen)?;
            Ok(e)
        } else {
            self.parse_primary_expression()
        }
    }

    fn parse_expression(&mut self) -> Result<Expression, SparqlError> {
        self.parse_or_expression()
    }

    fn parse_or_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_and_expression()?;
        while self.eat_punct(Punct::OrOr) {
            let right = self.parse_and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_relational_expression()?;
        while self.eat_punct(Punct::AndAnd) {
            let right = self.parse_relational_expression()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational_expression(&mut self) -> Result<Expression, SparqlError> {
        let left = self.parse_additive_expression()?;
        let op = match self.peek() {
            Some(Token::Punct(Punct::Eq)) => Some(CmpOp::Eq),
            Some(Token::Punct(Punct::Ne)) => Some(CmpOp::Ne),
            Some(Token::Punct(Punct::Lt)) => Some(CmpOp::Lt),
            Some(Token::Punct(Punct::Le)) => Some(CmpOp::Le),
            Some(Token::Punct(Punct::Gt)) => Some(CmpOp::Gt),
            Some(Token::Punct(Punct::Ge)) => Some(CmpOp::Ge),
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("IN") => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let mut list = Vec::new();
                if !self.at_punct(Punct::RParen) {
                    loop {
                        list.push(self.parse_expression()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen)?;
                return Ok(Expression::In(Box::new(left), list));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive_expression()?;
            Ok(Expression::Compare(Box::new(left), op, Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn parse_additive_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_multiplicative_expression()?;
        loop {
            if self.eat_punct(Punct::Plus) {
                let right = self.parse_multiplicative_expression()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Add, Box::new(right));
            } else if self.eat_punct(Punct::Minus) {
                let right = self.parse_multiplicative_expression()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Sub, Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_multiplicative_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_unary_expression()?;
        loop {
            if self.eat_punct(Punct::Star) {
                let right = self.parse_unary_expression()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Mul, Box::new(right));
            } else if self.eat_punct(Punct::Slash) {
                let right = self.parse_unary_expression()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Div, Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_unary_expression(&mut self) -> Result<Expression, SparqlError> {
        if self.eat_punct(Punct::Bang) {
            Ok(Expression::Not(Box::new(self.parse_unary_expression()?)))
        } else if self.eat_punct(Punct::Minus) {
            Ok(Expression::Neg(Box::new(self.parse_unary_expression()?)))
        } else if self.eat_punct(Punct::Plus) {
            self.parse_unary_expression()
        } else {
            self.parse_primary_expression()
        }
    }

    fn parse_primary_expression(&mut self) -> Result<Expression, SparqlError> {
        match self.peek() {
            Some(Token::Punct(Punct::LParen)) => {
                self.bump();
                let e = self.parse_expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Var(_)) => {
                if let Some(Token::Var(name)) = self.bump() {
                    Ok(Expression::Var(Variable::new(name)))
                } else {
                    unreachable!("peeked variable")
                }
            }
            Some(Token::Word(w)) => {
                let word = w.clone();
                if word.eq_ignore_ascii_case("EXISTS") {
                    self.bump();
                    let pattern = self.parse_group_graph_pattern()?;
                    return Ok(Expression::Exists(Box::new(pattern)));
                }
                if word.eq_ignore_ascii_case("NOT") {
                    self.bump();
                    self.expect_keyword("EXISTS")?;
                    let pattern = self.parse_group_graph_pattern()?;
                    return Ok(Expression::NotExists(Box::new(pattern)));
                }
                if word.eq_ignore_ascii_case("true") || word.eq_ignore_ascii_case("false") {
                    self.bump();
                    return Ok(Expression::Constant(Term::Literal(Literal::boolean(
                        word.eq_ignore_ascii_case("true"),
                    ))));
                }
                if let Some(agg) = AggregateFunction::from_name(&word) {
                    // Aggregates only when followed by '('.
                    if matches!(self.peek_at(1), Some(Token::Punct(Punct::LParen))) {
                        self.bump();
                        self.bump();
                        let distinct = self.eat_keyword("DISTINCT");
                        let expr = if self.eat_punct(Punct::Star) {
                            None
                        } else {
                            Some(Box::new(self.parse_expression()?))
                        };
                        self.expect_punct(Punct::RParen)?;
                        return Ok(Expression::Aggregate(AggregateExpr {
                            function: agg,
                            distinct,
                            expr,
                        }));
                    }
                }
                if let Some(function) = Function::from_name(&word) {
                    if matches!(self.peek_at(1), Some(Token::Punct(Punct::LParen))) {
                        self.bump();
                        self.bump();
                        let mut args = Vec::new();
                        if !self.at_punct(Punct::RParen) {
                            loop {
                                args.push(self.parse_expression()?);
                                if !self.eat_punct(Punct::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                        return Ok(Expression::Call(function, args));
                    }
                }
                // Fall back to parsing as a term (bare word is an error).
                Err(self.error(format!("unexpected word '{word}' in expression")))
            }
            _ => Ok(Expression::Constant(self.parse_term()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_select() {
        let q = parse_select("SELECT * WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(q.projection, Projection::Wildcard);
        assert_eq!(q.pattern.triple_pattern_count(), 1);
    }

    #[test]
    fn parse_prefixes_and_abbreviations() {
        let q = parse_select(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             SELECT ?obs WHERE {
               ?obs a qb:Observation ;
                    qb:dataSet <http://example.org/ds> .
             }",
        )
        .unwrap();
        assert_eq!(q.pattern.triple_pattern_count(), 2);
        match &q.pattern.elements[0] {
            PatternElement::Triple(t) => {
                assert_eq!(t.predicate, VarOrIri::Iri(rdf::vocab::rdf::type_()));
            }
            other => panic!("expected triple, got {other:?}"),
        }
    }

    #[test]
    fn parse_aggregation_query() {
        let q = parse_select(
            "SELECT ?year (SUM(?m) AS ?total) WHERE { ?o ?p ?m } GROUP BY ?year HAVING (SUM(?m) > 10) ORDER BY DESC(?total) LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert!(q.is_aggregated());
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.having.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, Some(2));
    }

    #[test]
    fn parse_filters_and_functions() {
        let q = parse_select(
            r#"SELECT ?x WHERE {
                 ?x <http://p> ?v .
                 FILTER(?v >= 10 && ?v < 20)
                 FILTER(CONTAINS(STR(?x), "africa") || REGEX(STR(?x), "EU", "i"))
                 FILTER(?v != 13)
               }"#,
        )
        .unwrap();
        let filters: Vec<_> = q
            .pattern
            .elements
            .iter()
            .filter(|e| matches!(e, PatternElement::Filter(_)))
            .collect();
        assert_eq!(filters.len(), 3);
    }

    #[test]
    fn parse_optional_union_minus_bind_values() {
        let q = parse_select(
            r#"SELECT ?s ?label WHERE {
                 ?s a <http://example.org/Country> .
                 OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label }
                 { ?s <http://p> ?x } UNION { ?s <http://q> ?x }
                 MINUS { ?s <http://hidden> ?h }
                 BIND(STR(?s) AS ?str)
                 VALUES ?x { <http://a> <http://b> }
               }"#,
        )
        .unwrap();
        let kinds: Vec<&'static str> = q
            .pattern
            .elements
            .iter()
            .map(|e| match e {
                PatternElement::Triple(_) => "triple",
                PatternElement::Filter(_) => "filter",
                PatternElement::Optional(_) => "optional",
                PatternElement::Union(_, _) => "union",
                PatternElement::Minus(_) => "minus",
                PatternElement::Bind { .. } => "bind",
                PatternElement::Values { .. } => "values",
                PatternElement::SubSelect(_) => "subselect",
                PatternElement::Group(_) => "group",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["triple", "optional", "union", "minus", "bind", "values"]
        );
    }

    #[test]
    fn parse_subselect() {
        let q = parse_select(
            "SELECT ?total WHERE {
               { SELECT (SUM(?v) AS ?total) WHERE { ?o <http://value> ?v } }
             }",
        )
        .unwrap();
        assert!(matches!(
            q.pattern.elements[0],
            PatternElement::SubSelect(_)
        ));
    }

    #[test]
    fn parse_values_multi_var() {
        let q =
            parse_select("SELECT * WHERE { VALUES (?a ?b) { (<http://x> 1) (UNDEF 2) } }").unwrap();
        match &q.pattern.elements[0] {
            PatternElement::Values { vars, rows } => {
                assert_eq!(vars.len(), 2);
                assert_eq!(rows.len(), 2);
                assert!(rows[1][0].is_none());
            }
            other => panic!("expected values, got {other:?}"),
        }
    }

    #[test]
    fn parse_ask() {
        let q = parse_query("ASK { ?s ?p ?o }").unwrap();
        assert!(matches!(q, Query::Ask(_)));
    }

    #[test]
    fn parse_distinct_and_expression_ordering() {
        let q = parse_select("SELECT DISTINCT ?x WHERE { ?x ?p ?y } ORDER BY ASC(?y) ?x").unwrap();
        assert!(q.distinct);
        assert_eq!(q.order_by.len(), 2);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_select("SELECT WHERE { ?s ?p ?o }").is_err());
        assert!(parse_select("SELECT * WHERE { ?s ?p }").is_err());
        assert!(parse_select("SELECT * WHERE { ?s qb:missing ?o }").is_err());
        assert!(parse_select("SELECT * { ?s ?p ?o } extra").is_err());
        assert!(parse_query("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }").is_err());
    }

    #[test]
    fn parse_literal_objects() {
        let q = parse_select(
            r#"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               SELECT * WHERE {
                 ?s <http://p> "France" .
                 ?s <http://q> "5"^^xsd:integer .
                 ?s <http://r> 3.5 .
                 ?s <http://t> "Afrique"@fr .
                 ?s <http://u> true .
               }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.triple_pattern_count(), 5);
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_select("SELECT (1 + 2 * 3 AS ?x) WHERE { }").unwrap();
        match &q.projection {
            Projection::Items(items) => match &items[0] {
                SelectItem::Expr { expr, .. } => match expr {
                    Expression::Arithmetic(_, ArithOp::Add, right) => {
                        assert!(matches!(
                            **right,
                            Expression::Arithmetic(_, ArithOp::Mul, _)
                        ));
                    }
                    other => panic!("unexpected expr {other:?}"),
                },
                other => panic!("unexpected item {other:?}"),
            },
            other => panic!("unexpected projection {other:?}"),
        }
    }
}
