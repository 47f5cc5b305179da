//! Lexer for TinyC.

use std::fmt;

/// A lexical token. Variants mirror the surface syntax one-to-one.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    // Literals and identifiers
    Int(i64),
    Ident(String),
    // Keywords
    KwInt,
    KwStruct,
    KwDef,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    KwFn,
    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Arrow, // ->
    Dot,
    Assign, // =
    // Operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,   // &
    Pipe,  // |
    Caret, // ^
    Tilde, // ~
    Bang,  // !
    Shl,   // <<
    Shr,   // >>
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Ident(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its source line (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
}

/// A lexical error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub kind: LexErrorKind,
    /// 1-based source line: the offending character's, or the line where
    /// an unterminated block comment opened.
    pub line: u32,
}

/// The kinds of [`LexError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LexErrorKind {
    /// A character that starts no token.
    UnexpectedChar(char),
    /// A `/*` with no closing `*/` before the end of the input.
    UnterminatedComment,
}

impl fmt::Display for LexErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexErrorKind::UnexpectedChar(ch) => write!(f, "unexpected character {ch:?}"),
            LexErrorKind::UnterminatedComment => f.write_str("unterminated block comment"),
        }
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LexErrorKind::UnexpectedChar(_) => write!(f, "{} on line {}", self.kind, self.line),
            LexErrorKind::UnterminatedComment => {
                write!(f, "{} opened on line {}", self.kind, self.line)
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes TinyC source.
///
/// # Errors
///
/// Returns a [`LexError`] on the first unrecognized character, or on a
/// block comment that never closes.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let opened = line;
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= bytes.len() {
                    return Err(LexError {
                        kind: LexErrorKind::UnterminatedComment,
                        line: opened,
                    });
                }
                i += 2;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().unwrap_or(i64::MAX);
                out.push(Spanned {
                    tok: Tok::Int(n),
                    line,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let tok = match word {
                    "int" => Tok::KwInt,
                    "struct" => Tok::KwStruct,
                    "def" => Tok::KwDef,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "while" => Tok::KwWhile,
                    "for" => Tok::KwFor,
                    "return" => Tok::KwReturn,
                    "break" => Tok::KwBreak,
                    "continue" => Tok::KwContinue,
                    "fn" => Tok::KwFn,
                    _ => Tok::Ident(word.to_string()),
                };
                out.push(Spanned { tok, line });
            }
            _ if !c.is_ascii() => {
                // Non-ASCII input: decode the real scalar value for the
                // error instead of slicing (a byte-offset slice inside a
                // multi-byte character would panic).
                let ch = src[i..].chars().next().unwrap_or('\u{fffd}');
                return Err(LexError {
                    kind: LexErrorKind::UnexpectedChar(ch),
                    line,
                });
            }
            _ => {
                // `i` is on an ASCII character; `i + 1` is a char boundary,
                // but `i + 2` may fall inside a following multi-byte
                // character — `get` declines the slice instead of panicking.
                let two = src.get(i..i + 2).unwrap_or("");
                let (tok, len) = match two {
                    "->" => (Tok::Arrow, 2),
                    "<<" => (Tok::Shl, 2),
                    ">>" => (Tok::Shr, 2),
                    "==" => (Tok::EqEq, 2),
                    "!=" => (Tok::NotEq, 2),
                    "<=" => (Tok::Le, 2),
                    ">=" => (Tok::Ge, 2),
                    "&&" => (Tok::AndAnd, 2),
                    "||" => (Tok::OrOr, 2),
                    _ => {
                        let t = match c {
                            '(' => Tok::LParen,
                            ')' => Tok::RParen,
                            '{' => Tok::LBrace,
                            '}' => Tok::RBrace,
                            '[' => Tok::LBracket,
                            ']' => Tok::RBracket,
                            ',' => Tok::Comma,
                            ';' => Tok::Semi,
                            '.' => Tok::Dot,
                            '=' => Tok::Assign,
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            '/' => Tok::Slash,
                            '%' => Tok::Percent,
                            '&' => Tok::Amp,
                            '|' => Tok::Pipe,
                            '^' => Tok::Caret,
                            '~' => Tok::Tilde,
                            '!' => Tok::Bang,
                            '<' => Tok::Lt,
                            '>' => Tok::Gt,
                            _ => {
                                return Err(LexError {
                                    kind: LexErrorKind::UnexpectedChar(c),
                                    line,
                                })
                            }
                        };
                        (t, 1)
                    }
                };
                out.push(Spanned { tok, line });
                i += len;
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            toks("def foo int x"),
            vec![
                Tok::KwDef,
                Tok::Ident("foo".into()),
                Tok::KwInt,
                Tok::Ident("x".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            toks("-> == != <= >= << >> && ||"),
            vec![
                Tok::Arrow,
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Shl,
                Tok::Shr,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn distinguishes_assign_from_eq() {
        assert_eq!(toks("= =="), vec![Tok::Assign, Tok::EqEq, Tok::Eof]);
    }

    #[test]
    fn skips_line_and_block_comments() {
        let src = "a // comment\n/* multi\nline */ b";
        assert_eq!(
            toks(src),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn tracks_lines() {
        let ts = lex("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = ts.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn rejects_unknown_character() {
        let e = lex("a $ b").unwrap_err();
        assert_eq!(e.kind, LexErrorKind::UnexpectedChar('$'));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_unterminated_block_comment_at_its_opening_line() {
        for src in ["a\n/* open\nb\n", "a /*", "a /*/", "a /* *"] {
            let e = lex(src).unwrap_err();
            let opened = if src.contains('\n') { 2 } else { 1 };
            assert_eq!(e.kind, LexErrorKind::UnterminatedComment, "{src:?}");
            assert_eq!(e.line, opened, "{src:?}");
        }
        assert_eq!(toks("a /**/ b /* * */"), toks("a b"));
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            toks("0 42 1000000"),
            vec![Tok::Int(0), Tok::Int(42), Tok::Int(1000000), Tok::Eof]
        );
    }
}
