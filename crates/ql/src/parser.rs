//! Parser for the QL surface syntax used in the paper's demonstration:
//!
//! ```text
//! PREFIX data: <http://eurostat.linked-statistics.org/data/>;
//! PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
//! QUERY
//! $C1 := SLICE (data:migr_asyappctzm, schema:asylappDim);
//! $C2 := ROLLUP ($C1, schema:citizenshipDim, schema:continent);
//! $C4 := DICE ($C3, (schema:citizenshipDim|schema:continent|schema:continentName = "Africa"));
//! ```

use rdf::{Iri, PrefixMap};

use crate::ast::*;
use crate::error::QlError;

/// Parses a QL program.
pub fn parse_ql(input: &str) -> Result<QlProgram, QlError> {
    Parser::new(input).parse()
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    prefixes: PrefixMap,
}

impl Parser {
    fn new(input: &str) -> Self {
        Parser {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            prefixes: PrefixMap::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> QlError {
        QlError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
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

    fn eat(&mut self, expected: char) -> Result<(), QlError> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == expected => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected '{expected}', found {other:?}"))),
        }
    }

    fn read_word(&mut self) -> String {
        self.skip_ws();
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        out
    }

    fn at_keyword(&mut self, keyword: &str) -> bool {
        self.skip_ws();
        let saved = self.pos;
        let word = self.read_word();
        let matches = word.eq_ignore_ascii_case(keyword);
        if !matches {
            self.pos = saved;
        }
        matches
    }

    fn parse(mut self) -> Result<QlProgram, QlError> {
        // Prologue: PREFIX declarations, each terminated by ';'.
        loop {
            self.skip_ws();
            if self.at_keyword("PREFIX") {
                let prefix = self.read_word();
                self.eat(':')?;
                let iri = self.parse_iri_ref()?;
                self.prefixes.insert(prefix, iri.as_str());
                self.skip_ws();
                if self.peek() == Some(';') {
                    self.bump();
                }
            } else {
                break;
            }
        }
        if !self.at_keyword("QUERY") {
            return Err(self.error("expected the QUERY keyword after the prefix declarations"));
        }

        let mut statements = Vec::new();
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                break;
            }
            statements.push(self.parse_statement()?);
        }
        if statements.is_empty() {
            return Err(self.error("a QL program must contain at least one statement"));
        }
        Ok(QlProgram {
            prefixes: self.prefixes,
            statements,
        })
    }

    fn parse_statement(&mut self) -> Result<QlStatement, QlError> {
        self.eat('$')?;
        let target = self.read_word();
        if target.is_empty() {
            return Err(self.error("expected a cube variable name after '$'"));
        }
        self.eat(':')?;
        self.eat('=')?;
        let op_name = self.read_word().to_ascii_uppercase();
        self.eat('(')?;
        let cube = self.parse_cube_ref()?;
        let operation = match op_name.as_str() {
            "SLICE" => {
                self.eat(',')?;
                let dimension = self.parse_iri()?;
                QlOperation::Slice { cube, dimension }
            }
            "ROLLUP" => {
                self.eat(',')?;
                let dimension = self.parse_iri()?;
                self.eat(',')?;
                let level = self.parse_iri()?;
                QlOperation::Rollup {
                    cube,
                    dimension,
                    level,
                }
            }
            "DRILLDOWN" => {
                self.eat(',')?;
                let dimension = self.parse_iri()?;
                self.eat(',')?;
                let level = self.parse_iri()?;
                QlOperation::Drilldown {
                    cube,
                    dimension,
                    level,
                }
            }
            "DICE" => {
                self.eat(',')?;
                let condition = self.parse_condition()?;
                QlOperation::Dice { cube, condition }
            }
            other => return Err(self.error(format!("unknown QL operation '{other}'"))),
        };
        self.eat(')')?;
        self.skip_ws();
        if self.peek() == Some(';') {
            self.bump();
        }
        Ok(QlStatement { target, operation })
    }

    fn parse_cube_ref(&mut self) -> Result<CubeRef, QlError> {
        self.skip_ws();
        if self.peek() == Some('$') {
            self.bump();
            let name = self.read_word();
            if name.is_empty() {
                return Err(self.error("expected a cube variable name after '$'"));
            }
            Ok(CubeRef::Variable(name))
        } else {
            Ok(CubeRef::Dataset(self.parse_iri()?))
        }
    }

    fn parse_iri_ref(&mut self) -> Result<Iri, QlError> {
        self.skip_ws();
        if self.peek() != Some('<') {
            return Err(self.error("expected '<' starting an IRI"));
        }
        self.bump();
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(Iri::new(iri)),
                Some(c) if c.is_whitespace() => return Err(self.error("whitespace inside IRI")),
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI")),
            }
        }
    }

    /// Parses either a full IRI (`<...>`) or a prefixed name (`schema:continent`).
    fn parse_iri(&mut self) -> Result<Iri, QlError> {
        self.skip_ws();
        if self.peek() == Some('<') {
            return self.parse_iri_ref();
        }
        let prefix = self.read_word();
        self.eat(':')?;
        let local = self.read_local();
        match self.prefixes.namespace(&prefix) {
            Some(ns) => Ok(Iri::new(format!("{ns}{local}"))),
            None => Err(self.error(format!("undefined prefix '{prefix}:'"))),
        }
    }

    fn read_local(&mut self) -> String {
        let mut out = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // A trailing '.' belongs to the statement, not the local name.
        while out.ends_with('.') {
            out.pop();
            self.pos -= 1;
        }
        out
    }

    // ---- dice conditions ----------------------------------------------------

    fn parse_condition(&mut self) -> Result<DiceCondition, QlError> {
        self.parse_or_condition()
    }

    fn parse_or_condition(&mut self) -> Result<DiceCondition, QlError> {
        let mut left = self.parse_and_condition()?;
        loop {
            if self.at_keyword("OR") {
                let right = self.parse_and_condition()?;
                left = DiceCondition::Or(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_and_condition(&mut self) -> Result<DiceCondition, QlError> {
        let mut left = self.parse_primary_condition()?;
        loop {
            if self.at_keyword("AND") {
                let right = self.parse_primary_condition()?;
                left = DiceCondition::And(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_primary_condition(&mut self) -> Result<DiceCondition, QlError> {
        self.skip_ws();
        if self.peek() == Some('(') {
            self.bump();
            let inner = self.parse_condition()?;
            self.eat(')')?;
            return Ok(inner);
        }
        // Operand: IRI, optionally followed by |level|attribute.
        let first = self.parse_iri()?;
        self.skip_ws();
        let operand = if self.peek() == Some('|') {
            self.bump();
            let level = self.parse_iri()?;
            self.eat('|')?;
            let attribute = self.parse_iri()?;
            DiceOperand::Attribute {
                dimension: first,
                level,
                attribute,
            }
        } else {
            DiceOperand::Measure(first)
        };
        let op = self.parse_operator()?;
        let value = self.parse_value()?;
        Ok(DiceCondition::Comparison { operand, op, value })
    }

    fn parse_operator(&mut self) -> Result<DiceOp, QlError> {
        self.skip_ws();
        let first = self
            .bump()
            .ok_or_else(|| self.error("expected a comparison operator"))?;
        Ok(match (first, self.peek()) {
            ('=', _) => DiceOp::Eq,
            ('!', Some('=')) => {
                self.bump();
                DiceOp::Ne
            }
            ('<', Some('=')) => {
                self.bump();
                DiceOp::Le
            }
            ('<', _) => DiceOp::Lt,
            ('>', Some('=')) => {
                self.bump();
                DiceOp::Ge
            }
            ('>', _) => DiceOp::Gt,
            (other, _) => return Err(self.error(format!("unknown comparison operator '{other}'"))),
        })
    }

    fn parse_value(&mut self) -> Result<DiceValue, QlError> {
        self.skip_ws();
        match self.peek() {
            Some('"') => {
                self.bump();
                let mut out = String::new();
                loop {
                    match self.bump() {
                        Some('"') => return Ok(DiceValue::String(out)),
                        Some('\\') => match self.bump() {
                            Some(c) => out.push(c),
                            None => return Err(self.error("unterminated string")),
                        },
                        Some(c) => out.push(c),
                        None => return Err(self.error("unterminated string")),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                let mut text = String::new();
                if c == '-' || c == '+' {
                    text.push(c);
                    self.bump();
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || c == '.' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                text.parse::<f64>()
                    .map(DiceValue::Number)
                    .map_err(|_| self.error(format!("invalid number '{text}'")))
            }
            Some('<') => Ok(DiceValue::Iri(self.parse_iri_ref()?)),
            Some(_) => Ok(DiceValue::Iri(self.parse_iri()?)),
            None => Err(self.error("expected a value after the comparison operator")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf::vocab::{demo_schema, eurostat_property};

    #[test]
    fn parses_the_paper_query() {
        let program = parse_ql(&datagen::workload::mary_query()).unwrap();
        assert_eq!(program.statements.len(), 5);
        assert_eq!(program.operation_counts(), (1, 2, 0, 2));
        assert_eq!(
            program.dataset(),
            Some(&rdf::vocab::eurostat_data::migr_asyappctzm())
        );
        // The first statement slices the applicant-type dimension.
        match &program.statements[0].operation {
            QlOperation::Slice { dimension, .. } => {
                assert_eq!(dimension, &demo_schema::asylapp_dim());
            }
            other => panic!("expected SLICE, got {other:?}"),
        }
        // The Africa dice uses the dimension|level|attribute path.
        match &program.statements[3].operation {
            QlOperation::Dice { condition, .. } => match condition {
                DiceCondition::Comparison { operand, op, value } => {
                    assert_eq!(*op, DiceOp::Eq);
                    assert_eq!(value, &DiceValue::String("Africa".into()));
                    match operand {
                        DiceOperand::Attribute {
                            dimension,
                            level,
                            attribute,
                        } => {
                            assert_eq!(dimension, &demo_schema::citizenship_dim());
                            assert_eq!(level, &demo_schema::continent());
                            assert_eq!(attribute, &demo_schema::continent_name());
                        }
                        other => panic!("expected attribute operand, got {other:?}"),
                    }
                }
                other => panic!("expected a comparison, got {other:?}"),
            },
            other => panic!("expected DICE, got {other:?}"),
        }
    }

    #[test]
    fn parses_all_workload_queries() {
        for (name, text) in datagen::workload::bench_queries() {
            let program = parse_ql(&text)
                .unwrap_or_else(|e| panic!("workload query '{name}' failed to parse: {e}"));
            assert!(!program.statements.is_empty(), "{name}");
        }
    }

    #[test]
    fn parses_measure_dice_and_numbers() {
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX sdmx-measure: <http://purl.org/linked-data/sdmx/2009/measure#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := ROLLUP (data:migr_asyappctzm, schema:timeDim, schema:year);
             $C2 := DICE ($C1, sdmx-measure:obsValue >= 42.5);",
        )
        .unwrap();
        match &program.statements[1].operation {
            QlOperation::Dice { condition, .. } => match condition {
                DiceCondition::Comparison { operand, op, value } => {
                    assert!(matches!(operand, DiceOperand::Measure(_)));
                    assert_eq!(*op, DiceOp::Ge);
                    assert_eq!(value, &DiceValue::Number(42.5));
                }
                other => panic!("unexpected condition {other:?}"),
            },
            other => panic!("expected DICE, got {other:?}"),
        }
    }

    #[test]
    fn parses_and_or_conditions() {
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX property: <http://eurostat.linked-statistics.org/property#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := DICE (data:migr_asyappctzm,
                (schema:citizenshipDim|schema:continent|schema:continentName = \"Africa\"
                 AND schema:destinationDim|property:geo|schema:countryName = \"France\")
                OR schema:citizenshipDim|schema:continent|schema:continentName = \"Asia\");",
        )
        .unwrap();
        match &program.statements[0].operation {
            QlOperation::Dice { condition, .. } => {
                assert!(matches!(condition, DiceCondition::Or(_, _)));
                assert_eq!(condition.comparisons().len(), 3);
            }
            other => panic!("expected DICE, got {other:?}"),
        }
    }

    #[test]
    fn full_iris_are_accepted() {
        let program = parse_ql(
            "QUERY
             $C1 := ROLLUP (<http://eurostat.linked-statistics.org/data/migr_asyappctzm>,
                            <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#citizenshipDim>,
                            <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#continent>);",
        )
        .unwrap();
        match &program.statements[0].operation {
            QlOperation::Rollup { level, .. } => assert_eq!(level, &demo_schema::continent()),
            other => panic!("expected ROLLUP, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_to_ql_string() {
        let program = parse_ql(&datagen::workload::mary_query()).unwrap();
        let text = program.to_ql_string();
        let reparsed = parse_ql(&text).unwrap();
        assert_eq!(program.statements, reparsed.statements);
    }

    #[test]
    fn errors_are_reported_with_context() {
        assert!(parse_ql("no query keyword").is_err());
        assert!(parse_ql("QUERY").is_err());
        assert!(parse_ql("QUERY $C1 := EXPLODE (data:x);").is_err());
        let err = parse_ql("QUERY\n$C1 := SLICE (schema:unknownPrefix, schema:x);").unwrap_err();
        assert!(err.to_string().contains("undefined prefix"));
        assert!(
            parse_ql("PREFIX data: <http://d/>;\nQUERY\n$C1 := SLICE (data:x data:y);").is_err()
        );
    }

    #[test]
    fn drilldown_is_parsed() {
        let program = parse_ql(
            "PREFIX schema: <http://www.fing.edu.uy/inco/cubes/schemas/migr_asyapp#>;
             PREFIX property: <http://eurostat.linked-statistics.org/property#>;
             PREFIX data: <http://eurostat.linked-statistics.org/data/>;
             QUERY
             $C1 := ROLLUP (data:migr_asyappctzm, schema:citizenshipDim, schema:continent);
             $C2 := DRILLDOWN ($C1, schema:citizenshipDim, property:citizen);",
        )
        .unwrap();
        assert_eq!(program.operation_counts(), (0, 1, 1, 0));
        match &program.statements[1].operation {
            QlOperation::Drilldown { level, .. } => {
                assert_eq!(level, &eurostat_property::citizen());
            }
            other => panic!("expected DRILLDOWN, got {other:?}"),
        }
    }
}
