//! Tokenizer for the SPARQL subset.

use crate::error::SparqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A bare word: keyword, function name, `a`, `true`, `false`, ...
    Word(String),
    /// A variable `?name` or `$name` (name stored without the sigil).
    Var(String),
    /// `<...>` IRI reference (stored without the angle brackets).
    IriRef(String),
    /// `prefix:local` (prefix may be empty).
    PrefixedName(String, String),
    /// A string literal (unescaped).
    StringLit(String),
    /// `@lang` tag following a string literal.
    LangTag(String),
    /// A numeric literal in its lexical form plus whether it is integral.
    Number(String, bool),
    /// `^^` datatype marker.
    DatatypeMarker,
    /// A blank node label `_:x`.
    BlankLabel(String),
    /// Punctuation and operators.
    Punct(Punct),
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Punct {
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

/// A token plus its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// Tokenizes a SPARQL query string.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, SparqlError> {
    Lexer::new(input).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    column: usize,
    tokens: Vec<Spanned>,
}

impl Lexer {
    fn new(input: &str) -> Self {
        Lexer {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
            column: 1,
            tokens: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> SparqlError {
        SparqlError::parse(self.line, self.column, message)
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

    fn push(&mut self, token: Token, line: usize, column: usize) {
        self.tokens.push(Spanned {
            token,
            line,
            column,
        });
    }

    fn run(mut self) -> Result<Vec<Spanned>, SparqlError> {
        loop {
            self.skip_ws();
            let (line, column) = (self.line, self.column);
            let Some(c) = self.peek() else { break };
            match c {
                '{' => {
                    self.bump();
                    self.push(Token::Punct(Punct::LBrace), line, column);
                }
                '}' => {
                    self.bump();
                    self.push(Token::Punct(Punct::RBrace), line, column);
                }
                '(' => {
                    self.bump();
                    self.push(Token::Punct(Punct::LParen), line, column);
                }
                ')' => {
                    self.bump();
                    self.push(Token::Punct(Punct::RParen), line, column);
                }
                ',' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Comma), line, column);
                }
                ';' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Semicolon), line, column);
                }
                '*' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Star), line, column);
                }
                '/' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Slash), line, column);
                }
                '+' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Plus), line, column);
                }
                '-' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Minus), line, column);
                }
                '=' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Eq), line, column);
                }
                '!' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        self.push(Token::Punct(Punct::Ne), line, column);
                    } else {
                        self.push(Token::Punct(Punct::Bang), line, column);
                    }
                }
                '&' => {
                    self.bump();
                    if self.peek() == Some('&') {
                        self.bump();
                        self.push(Token::Punct(Punct::AndAnd), line, column);
                    } else {
                        return Err(self.error("expected '&&'"));
                    }
                }
                '|' => {
                    self.bump();
                    if self.peek() == Some('|') {
                        self.bump();
                        self.push(Token::Punct(Punct::OrOr), line, column);
                    } else {
                        return Err(self.error("expected '||'"));
                    }
                }
                '^' => {
                    self.bump();
                    if self.peek() == Some('^') {
                        self.bump();
                        self.push(Token::DatatypeMarker, line, column);
                    } else {
                        return Err(self.error("expected '^^'"));
                    }
                }
                '.' => {
                    self.bump();
                    self.push(Token::Punct(Punct::Dot), line, column);
                }
                '<' => {
                    if self.looks_like_iri_ref() {
                        let iri = self.read_iri_ref()?;
                        self.push(Token::IriRef(iri), line, column);
                    } else {
                        self.bump();
                        if self.peek() == Some('=') {
                            self.bump();
                            self.push(Token::Punct(Punct::Le), line, column);
                        } else {
                            self.push(Token::Punct(Punct::Lt), line, column);
                        }
                    }
                }
                '>' => {
                    self.bump();
                    if self.peek() == Some('=') {
                        self.bump();
                        self.push(Token::Punct(Punct::Ge), line, column);
                    } else {
                        self.push(Token::Punct(Punct::Gt), line, column);
                    }
                }
                '?' | '$' => {
                    self.bump();
                    let name = self.read_name();
                    if name.is_empty() {
                        return Err(self.error("empty variable name"));
                    }
                    self.push(Token::Var(name), line, column);
                }
                '"' | '\'' => {
                    let s = self.read_string(c)?;
                    self.push(Token::StringLit(s), line, column);
                }
                '@' => {
                    self.bump();
                    let lang = self.read_while(|c| c.is_ascii_alphanumeric() || c == '-');
                    if lang.is_empty() {
                        return Err(self.error("empty language tag"));
                    }
                    self.push(Token::LangTag(lang), line, column);
                }
                '_' if self.peek_at(1) == Some(':') => {
                    self.bump();
                    self.bump();
                    let label = self.read_name();
                    self.push(Token::BlankLabel(label), line, column);
                }
                c if c.is_ascii_digit() => {
                    let (text, integral) = self.read_number();
                    self.push(Token::Number(text, integral), line, column);
                }
                c if c.is_alphabetic() || c == '_' => {
                    let word = self.read_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
                    if self.peek() == Some(':') {
                        self.bump();
                        let local = self.read_local_name();
                        self.push(Token::PrefixedName(word, local), line, column);
                    } else {
                        self.push(Token::Word(word), line, column);
                    }
                }
                ':' => {
                    // Prefixed name with the empty prefix.
                    self.bump();
                    let local = self.read_local_name();
                    self.push(Token::PrefixedName(String::new(), local), line, column);
                }
                other => return Err(self.error(format!("unexpected character '{other}'"))),
            }
        }
        Ok(self.tokens)
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

    /// Heuristic: `<` starts an IRI reference if a matching `>` appears
    /// before any whitespace.
    fn looks_like_iri_ref(&self) -> bool {
        let mut offset = 1;
        while let Some(c) = self.peek_at(offset) {
            if c == '>' {
                return true;
            }
            if c.is_whitespace() || c == '<' {
                return false;
            }
            offset += 1;
        }
        false
    }

    fn read_iri_ref(&mut self) -> Result<String, SparqlError> {
        self.bump(); // '<'
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(iri),
                Some(c) if c.is_whitespace() => return Err(self.error("whitespace inside IRI")),
                Some(c) => iri.push(c),
                None => return Err(self.error("unterminated IRI reference")),
            }
        }
    }

    fn read_string(&mut self, quote: char) -> Result<String, SparqlError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('"') => out.push('"'),
                    Some('\'') => out.push('\''),
                    Some('\\') => out.push('\\'),
                    Some(c) => return Err(self.error(format!("invalid escape '\\{c}'"))),
                    None => return Err(self.error("unterminated string")),
                },
                Some(c) => out.push(c),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn read_number(&mut self) -> (String, bool) {
        let mut text = String::new();
        let mut integral = true;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else if c == '.' && self.peek_at(1).map(|d| d.is_ascii_digit()).unwrap_or(false) {
                integral = false;
                text.push(c);
                self.bump();
            } else if (c == 'e' || c == 'E')
                && self
                    .peek_at(1)
                    .map(|d| d.is_ascii_digit() || d == '+' || d == '-')
                    .unwrap_or(false)
            {
                integral = false;
                text.push(c);
                self.bump();
                if matches!(self.peek(), Some('+') | Some('-')) {
                    text.push(self.bump().expect("sign"));
                }
            } else {
                break;
            }
        }
        (text, integral)
    }

    fn read_name(&mut self) -> String {
        self.read_while(|c| c.is_alphanumeric() || c == '_')
    }

    fn read_local_name(&mut self) -> String {
        let raw = self.read_while(|c| {
            c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '%' || c == '+'
        });
        let trimmed = raw.trim_end_matches('.');
        let dots = raw.len() - trimmed.len();
        self.pos -= dots;
        self.column = self.column.saturating_sub(dots);
        trimmed.to_string()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .collect()
    }

    #[test]
    fn tokenize_basic_select() {
        let t = toks("SELECT ?x WHERE { ?x a <http://example.org/C> . }");
        assert_eq!(t[0], Token::Word("SELECT".into()));
        assert_eq!(t[1], Token::Var("x".into()));
        assert!(t.contains(&Token::IriRef("http://example.org/C".into())));
        assert!(t.contains(&Token::Punct(Punct::LBrace)));
        assert!(t.contains(&Token::Punct(Punct::Dot)));
    }

    #[test]
    fn tokenize_prefixed_names_and_strings() {
        let t = toks("qb:DataSet schema:continentName \"Africa\"@en 'x' \"5\"^^xsd:integer");
        assert_eq!(t[0], Token::PrefixedName("qb".into(), "DataSet".into()));
        assert_eq!(
            t[1],
            Token::PrefixedName("schema".into(), "continentName".into())
        );
        assert_eq!(t[2], Token::StringLit("Africa".into()));
        assert_eq!(t[3], Token::LangTag("en".into()));
        assert_eq!(t[4], Token::StringLit("x".into()));
        assert_eq!(t[5], Token::StringLit("5".into()));
        assert_eq!(t[6], Token::DatatypeMarker);
        assert_eq!(t[7], Token::PrefixedName("xsd".into(), "integer".into()));
    }

    #[test]
    fn tokenize_comparison_vs_iri() {
        let t = toks("FILTER(?v < 10 && ?w >= 2)");
        assert!(t.contains(&Token::Punct(Punct::Lt)));
        assert!(t.contains(&Token::Punct(Punct::Ge)));
        assert!(t.contains(&Token::Punct(Punct::AndAnd)));

        let t2 = toks("?s <http://p> ?o");
        assert!(t2.contains(&Token::IriRef("http://p".into())));
    }

    #[test]
    fn tokenize_numbers() {
        let t = toks("42 3.25 1e3");
        assert_eq!(t[0], Token::Number("42".into(), true));
        assert_eq!(t[1], Token::Number("3.25".into(), false));
        assert_eq!(t[2], Token::Number("1e3".into(), false));
    }

    #[test]
    fn tokenize_comments() {
        let t = toks("SELECT ?x # comment with < and ?\nWHERE { }");
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn tokenize_blank_and_empty_prefix() {
        let t = toks("_:b1 :local");
        assert_eq!(t[0], Token::BlankLabel("b1".into()));
        assert_eq!(t[1], Token::PrefixedName(String::new(), "local".into()));
    }

    #[test]
    fn tokenize_errors() {
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("& x").is_err());
        assert!(tokenize("? ").is_err());
    }

    #[test]
    fn local_name_keeps_statement_dot() {
        let t = toks("ex:thing.");
        assert_eq!(t[0], Token::PrefixedName("ex".into(), "thing".into()));
        assert_eq!(t[1], Token::Punct(Punct::Dot));
    }
}
