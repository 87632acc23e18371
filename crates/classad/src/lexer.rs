//! Tokenizer for ClassAd expressions.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes and escapes already processed).
    Str(String),
    /// Identifier or keyword (`true` / `false` / `undefined` are resolved by
    /// the parser).
    Ident(String),
    /// `.` (scope separator in `MY.attr`).
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `||`
    OrOr,
    /// `&&`
    AndAnd,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `=?=`
    Is,
    /// `=!=`
    Isnt,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `!`
    Bang,
    /// `?` (ternary)
    Question,
    /// `:` (ternary)
    Colon,
    /// `,` (argument separator)
    Comma,
}

/// A lexing failure with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize an expression string.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Question);
                i += 1;
            }
            ':' => {
                tokens.push(Token::Colon);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' if !next_is_digit(bytes, i + 1) => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::OrOr);
                    i += 2;
                } else {
                    return Err(err(i, "expected '||'"));
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::AndAnd);
                    i += 2;
                } else {
                    return Err(err(i, "expected '&&'"));
                }
            }
            '=' => match (bytes.get(i + 1), bytes.get(i + 2)) {
                (Some(b'='), _) => {
                    tokens.push(Token::EqEq);
                    i += 2;
                }
                (Some(b'?'), Some(b'=')) => {
                    tokens.push(Token::Is);
                    i += 3;
                }
                (Some(b'!'), Some(b'=')) => {
                    tokens.push(Token::Isnt);
                    i += 3;
                }
                _ => return Err(err(i, "expected '==', '=?=' or '=!='")),
            },
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Bang);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '"' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            _ if c.is_ascii_digit() || (c == '.' && next_is_digit(bytes, i + 1)) => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'@')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            _ => return Err(err(i, &format!("unexpected character {c:?}"))),
        }
    }
    Ok(tokens)
}

fn next_is_digit(bytes: &[u8], i: usize) -> bool {
    bytes.get(i).is_some_and(|b| (*b as char).is_ascii_digit())
}

fn err(pos: usize, message: &str) -> LexError {
    LexError {
        pos,
        message: message.to_string(),
    }
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize), LexError> {
    let bytes = input.as_bytes();
    let mut s = String::new();
    let mut i = start + 1; // skip opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok((s, i + 1)),
            b'\\' => {
                let esc = bytes
                    .get(i + 1)
                    .ok_or_else(|| err(i, "dangling escape at end of input"))?;
                s.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b't' => '\t',
                    other => return Err(err(i, &format!("unknown escape '\\{}'", *other as char))),
                });
                i += 2;
            }
            b => {
                s.push(b as char);
                i += 1;
            }
        }
    }
    Err(err(start, "unterminated string literal"))
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize), LexError> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut saw_dot = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !saw_dot && next_is_digit(bytes, i + 1) {
            saw_dot = true;
            i += 1;
        } else {
            break;
        }
    }
    let text = &input[start..i];
    if saw_dot {
        text.parse::<f64>()
            .map(|f| (Token::Float(f), i))
            .map_err(|e| err(start, &format!("bad float literal {text:?}: {e}")))
    } else {
        text.parse::<i64>()
            .map(|n| (Token::Int(n), i))
            .map_err(|e| err(start, &format!("bad integer literal {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_operators_and_idents() {
        let toks = lex("MY.PhiMemory >= 1024 && Name == \"slot1@node3\"").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("MY".into()),
                Token::Dot,
                Token::Ident("PhiMemory".into()),
                Token::Ge,
                Token::Int(1024),
                Token::AndAnd,
                Token::Ident("Name".into()),
                Token::EqEq,
                Token::Str("slot1@node3".into()),
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(lex("3.5").unwrap(), vec![Token::Float(3.5)]);
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        // A dot not followed by a digit is a scope separator, not a float.
        assert_eq!(
            lex("a.b").unwrap(),
            vec![
                Token::Ident("a".into()),
                Token::Dot,
                Token::Ident("b".into())
            ]
        );
    }

    #[test]
    fn lexes_identity_operators() {
        assert_eq!(lex("=?=").unwrap(), vec![Token::Is]);
        assert_eq!(lex("=!=").unwrap(), vec![Token::Isnt]);
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            lex(r#""a\"b\\c\n""#).unwrap(),
            vec![Token::Str("a\"b\\c\n".into())]
        );
    }

    #[test]
    fn errors_are_positioned() {
        let e = lex("a # b").unwrap_err();
        assert_eq!(e.pos, 2);
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a | b").is_err());
        assert!(lex("a = b").is_err());
    }

    #[test]
    fn bang_vs_noteq() {
        assert_eq!(lex("!a").unwrap()[0], Token::Bang);
        assert_eq!(lex("a != b").unwrap()[1], Token::NotEq);
    }
}
