//! Tokenizer for CQ-SQL.

use tcq_common::{Result, TcqError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (unquoted; keywords are matched
    /// case-insensitively by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=` (also accepts `==`)
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `++`
    PlusPlus,
    /// `--` (decrement; SQL comments are not supported in queries)
    MinusMinus,
    /// `+=`
    PlusEq,
    /// `-=`
    MinusEq,
}

/// A token with its byte offset in the source (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Byte offset where it starts.
    pub offset: usize,
}

/// Tokenize `src` completely.
pub fn tokenize(src: &str) -> Result<Vec<Spanned>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                // `$` continues (but cannot start) an identifier, for the
                // system introspection streams (`tcq$queues`, ...).
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'$')
                {
                    j += 1;
                }
                out.push(Spanned {
                    tok: Tok::Ident(src[i..j].to_string()),
                    offset: start,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                let mut is_float = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.'
                        && !is_float
                        && j + 1 < bytes.len()
                        && (bytes[j + 1] as char).is_ascii_digit()
                    {
                        is_float = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[i..j];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| TcqError::ParseError {
                        offset: start,
                        message: format!("bad float literal {text}"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| TcqError::ParseError {
                        offset: start,
                        message: format!("bad integer literal {text}"),
                    })?)
                };
                out.push(Spanned { tok, offset: start });
                i = j;
            }
            '\'' => {
                // Quotes are ASCII, so every cut below lands on a char
                // boundary and the literal keeps its UTF-8 text intact.
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    let Some(k) = src[j..].find('\'') else {
                        return Err(TcqError::ParseError {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    };
                    s.push_str(&src[j..j + k]);
                    j += k;
                    // '' escapes a quote.
                    if bytes.get(j + 1) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    j += 2;
                }
                out.push(Spanned {
                    tok: Tok::Str(s),
                    offset: start,
                });
                i = j + 1;
            }
            _ => {
                let (tok, len) = match bytes.get(i..i + 2) {
                    Some(b"<=") => (Tok::Le, 2),
                    Some(b">=") => (Tok::Ge, 2),
                    Some(b"<>") => (Tok::Ne, 2),
                    Some(b"!=") => (Tok::Ne, 2),
                    Some(b"==") => (Tok::Eq, 2),
                    Some(b"++") => (Tok::PlusPlus, 2),
                    Some(b"--") => (Tok::MinusMinus, 2),
                    Some(b"+=") => (Tok::PlusEq, 2),
                    Some(b"-=") => (Tok::MinusEq, 2),
                    _ => match c {
                        ',' => (Tok::Comma, 1),
                        '(' => (Tok::LParen, 1),
                        ')' => (Tok::RParen, 1),
                        '{' => (Tok::LBrace, 1),
                        '}' => (Tok::RBrace, 1),
                        ';' => (Tok::Semi, 1),
                        '.' => (Tok::Dot, 1),
                        '*' => (Tok::Star, 1),
                        '+' => (Tok::Plus, 1),
                        '-' => (Tok::Minus, 1),
                        '/' => (Tok::Slash, 1),
                        '%' => (Tok::Percent, 1),
                        '=' => (Tok::Eq, 1),
                        '<' => (Tok::Lt, 1),
                        '>' => (Tok::Gt, 1),
                        _ => {
                            // `c` is only the first byte; name the whole
                            // (possibly multi-byte) character.
                            let other = src[i..].chars().next().unwrap_or(c);
                            return Err(TcqError::ParseError {
                                offset: start,
                                message: format!("unexpected character {other:?}"),
                            });
                        }
                    },
                };
                out.push(Spanned { tok, offset: start });
                i += len;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_symbols() {
        assert_eq!(
            toks("SELECT * FROM s WHERE a >= 5"),
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Star,
                Tok::Ident("FROM".into()),
                Tok::Ident("s".into()),
                Tok::Ident("WHERE".into()),
                Tok::Ident("a".into()),
                Tok::Ge,
                Tok::Int(5),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("50.00 42 3.5"),
            vec![Tok::Float(50.0), Tok::Int(42), Tok::Float(3.5)]
        );
        // A trailing dot is a Dot token, not part of the number.
        assert_eq!(toks("5."), vec![Tok::Int(5), Tok::Dot]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(toks("'MSFT'"), vec![Tok::Str("MSFT".into())]);
        assert_eq!(toks("'it''s'"), vec![Tok::Str("it's".into())]);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            toks("t++ t-- t+=2 t-=2 t==0 a<>b a!=b"),
            vec![
                Tok::Ident("t".into()),
                Tok::PlusPlus,
                Tok::Ident("t".into()),
                Tok::MinusMinus,
                Tok::Ident("t".into()),
                Tok::PlusEq,
                Tok::Int(2),
                Tok::Ident("t".into()),
                Tok::MinusEq,
                Tok::Int(2),
                Tok::Ident("t".into()),
                Tok::Eq,
                Tok::Int(0),
                Tok::Ident("a".into()),
                Tok::Ne,
                Tok::Ident("b".into()),
                Tok::Ident("a".into()),
                Tok::Ne,
                Tok::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn qualified_names() {
        assert_eq!(
            toks("c1.closingPrice"),
            vec![
                Tok::Ident("c1".into()),
                Tok::Dot,
                Tok::Ident("closingPrice".into()),
            ]
        );
    }

    #[test]
    fn dollar_continues_identifiers_for_system_streams() {
        assert_eq!(toks("tcq$queues"), vec![Tok::Ident("tcq$queues".into())]);
        // But `$` cannot start an identifier.
        match tokenize("$x") {
            Err(TcqError::ParseError { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn offsets_reported() {
        let ts = tokenize("ab  cd").unwrap();
        assert_eq!(ts[0].offset, 0);
        assert_eq!(ts[1].offset, 4);
    }

    #[test]
    fn bad_character_errors_with_offset() {
        match tokenize("a @ b") {
            Err(TcqError::ParseError { offset, .. }) => assert_eq!(offset, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn non_ascii_outside_strings_is_an_error_naming_the_character() {
        for (src, at, ch) in [("SELECT €", 7, '€'), ("a <é", 3, 'é'), ("a > 1 ✓", 6, '✓')]
        {
            match tokenize(src) {
                Err(TcqError::ParseError { offset, message }) => {
                    assert_eq!(offset, at, "{src}");
                    assert!(message.contains(ch), "{src}: {message}");
                }
                other => panic!("{src}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn strings_keep_non_ascii_text() {
        assert_eq!(toks("'café'"), vec![Tok::Str("café".into())]);
        assert_eq!(
            toks("'中''🦀' ,"),
            vec![Tok::Str("中'🦀".into()), Tok::Comma]
        );
    }
}
