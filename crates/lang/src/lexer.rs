//! Lexer for the Rox surface language.
//!
//! Rox is the ownership-typed Rust subset used throughout this reproduction
//! as the stand-in for Rust itself. The lexer turns source text into a
//! vector of [`Token`]s with [`Span`]s; comments (`// ...`) and whitespace
//! are skipped.

use crate::span::{Diagnostic, Span};
use std::fmt;

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    // Literals and identifiers
    /// Integer literal, e.g. `42`.
    Int(i64),
    /// Identifier, e.g. `foo`.
    Ident(String),
    /// Lifetime, e.g. `'a` (stored without the leading quote).
    Lifetime(String),

    // Keywords
    /// `fn`
    Fn,
    /// `struct`
    Struct,
    /// `let`
    Let,
    /// `mut`
    Mut,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `loop`
    Loop,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `true`
    True,
    /// `false`
    False,
    /// `where`
    Where,
    /// `i32`
    I32,
    /// `bool`
    Bool,

    // Punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `->`
    Arrow,
    /// `.`
    Dot,
    /// `&`
    Amp,
    /// `&&`
    AmpAmp,
    /// `||`
    PipePipe,
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
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Bang,
    /// `#` (attribute opener)
    Pound,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Int(n) => write!(f, "{n}"),
            Ident(s) => write!(f, "{s}"),
            Lifetime(s) => write!(f, "'{s}"),
            Fn => write!(f, "fn"),
            Struct => write!(f, "struct"),
            Let => write!(f, "let"),
            Mut => write!(f, "mut"),
            If => write!(f, "if"),
            Else => write!(f, "else"),
            While => write!(f, "while"),
            Loop => write!(f, "loop"),
            Return => write!(f, "return"),
            Break => write!(f, "break"),
            Continue => write!(f, "continue"),
            True => write!(f, "true"),
            False => write!(f, "false"),
            Where => write!(f, "where"),
            I32 => write!(f, "i32"),
            Bool => write!(f, "bool"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            Comma => write!(f, ","),
            Semi => write!(f, ";"),
            Colon => write!(f, ":"),
            Arrow => write!(f, "->"),
            Dot => write!(f, "."),
            Amp => write!(f, "&"),
            AmpAmp => write!(f, "&&"),
            PipePipe => write!(f, "||"),
            Star => write!(f, "*"),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            Eq => write!(f, "="),
            EqEq => write!(f, "=="),
            NotEq => write!(f, "!="),
            Lt => write!(f, "<"),
            Le => write!(f, "<="),
            Gt => write!(f, ">"),
            Ge => write!(f, ">="),
            Bang => write!(f, "!"),
            Pound => write!(f, "#"),
            LBracket => write!(f, "["),
            RBracket => write!(f, "]"),
            Eof => write!(f, "<eof>"),
        }
    }
}

/// A token: a [`TokenKind`] plus the [`Span`] it was lexed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from in the source.
    pub span: Span,
}

/// Lexes `src` into tokens, ending with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unrecognized characters or malformed
/// lifetimes/integers.
///
/// # Examples
///
/// ```
/// use flowistry_lang::lexer::{tokenize, TokenKind};
/// let toks = tokenize("let x = 1;").unwrap();
/// assert_eq!(toks[0].kind, TokenKind::Let);
/// assert!(matches!(toks.last().unwrap().kind, TokenKind::Eof));
/// ```
pub fn tokenize(src: &str) -> Result<Vec<Token>, Diagnostic> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn push(&mut self, kind: TokenKind, lo: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(lo as u32, self.pos as u32),
        });
    }

    fn run(mut self) -> Result<Vec<Token>, Diagnostic> {
        while let Some(b) = self.peek() {
            let lo = self.pos;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                b'0'..=b'9' => self.lex_int(lo)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(lo),
                b'\'' => self.lex_lifetime(lo)?,
                _ => self.lex_punct(lo)?,
            }
        }
        let end = self.pos as u32;
        self.tokens.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(end, end),
        });
        Ok(self.tokens)
    }

    fn lex_int(&mut self, lo: usize) -> Result<(), Diagnostic> {
        while let Some(b'0'..=b'9') = self.peek() {
            self.bump();
        }
        let text = &self.src[lo..self.pos];
        let value: i64 = text.parse().map_err(|_| {
            Diagnostic::error(
                format!("integer literal `{text}` is out of range"),
                Span::new(lo as u32, self.pos as u32),
            )
        })?;
        self.push(TokenKind::Int(value), lo);
        Ok(())
    }

    fn lex_ident(&mut self, lo: usize) {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.src[lo..self.pos];
        let kind = match text {
            "fn" => TokenKind::Fn,
            "struct" => TokenKind::Struct,
            "let" => TokenKind::Let,
            "mut" => TokenKind::Mut,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "loop" => TokenKind::Loop,
            "return" => TokenKind::Return,
            "break" => TokenKind::Break,
            "continue" => TokenKind::Continue,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "where" => TokenKind::Where,
            "i32" | "u32" | "usize" => TokenKind::I32,
            "bool" => TokenKind::Bool,
            _ => TokenKind::Ident(text.to_string()),
        };
        self.push(kind, lo);
    }

    fn lex_lifetime(&mut self, lo: usize) -> Result<(), Diagnostic> {
        self.bump(); // consume the quote
        let name_start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == name_start {
            return Err(Diagnostic::error(
                "expected lifetime name after `'`",
                Span::new(lo as u32, self.pos as u32),
            ));
        }
        let name = self.src[name_start..self.pos].to_string();
        self.push(TokenKind::Lifetime(name), lo);
        Ok(())
    }

    fn lex_punct(&mut self, lo: usize) -> Result<(), Diagnostic> {
        let b = self.bump().expect("caller checked non-empty");
        let kind = match b {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b',' => TokenKind::Comma,
            b'#' => TokenKind::Pound,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b':' => TokenKind::Colon,
            b'.' => TokenKind::Dot,
            b'*' => TokenKind::Star,
            b'+' => TokenKind::Plus,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AmpAmp
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::PipePipe
                } else {
                    return Err(Diagnostic::error(
                        "single `|` is not a valid token",
                        Span::new(lo as u32, self.pos as u32),
                    ));
                }
            }
            b'-' => {
                if self.peek() == Some(b'>') {
                    self.bump();
                    TokenKind::Arrow
                } else {
                    TokenKind::Minus
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::EqEq
                } else {
                    TokenKind::Eq
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            other => {
                return Err(Diagnostic::error(
                    format!("unrecognized character `{}`", other as char),
                    Span::new(lo as u32, self.pos as u32),
                ));
            }
        };
        self.push(kind, lo);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        let ks = kinds("fn foo struct Bar let mut");
        assert_eq!(
            ks,
            vec![
                TokenKind::Fn,
                TokenKind::Ident("foo".into()),
                TokenKind::Struct,
                TokenKind::Ident("Bar".into()),
                TokenKind::Let,
                TokenKind::Mut,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_integers() {
        assert_eq!(
            kinds("0 12 345"),
            vec![
                TokenKind::Int(0),
                TokenKind::Int(12),
                TokenKind::Int(345),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn integer_overflow_is_error() {
        assert!(tokenize("99999999999999999999999").is_err());
    }

    #[test]
    fn lexes_lifetimes() {
        assert_eq!(
            kinds("'a 'static"),
            vec![
                TokenKind::Lifetime("a".into()),
                TokenKind::Lifetime("static".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn bare_quote_is_error() {
        assert!(tokenize("' x").is_err());
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("-> == != <= >= && ||"),
            vec![
                TokenKind::Arrow,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AmpAmp,
                TokenKind::PipePipe,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_single_char_operators() {
        assert_eq!(
            kinds("& * + - / % = < > ! . , ; : ( ) { } # [ ]"),
            vec![
                TokenKind::Amp,
                TokenKind::Star,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eq,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::Bang,
                TokenKind::Dot,
                TokenKind::Comma,
                TokenKind::Semi,
                TokenKind::Colon,
                TokenKind::LParen,
                TokenKind::RParen,
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Pound,
                TokenKind::LBracket,
                TokenKind::RBracket,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_comments_and_whitespace() {
        let ks = kinds("let x = 1; // trailing comment\n// full line\nlet y = 2;");
        assert_eq!(ks.len(), 11); // 2 * (let ident = int ;) + eof
    }

    #[test]
    fn unknown_character_is_error() {
        let err = tokenize("let x = @;").unwrap_err();
        assert!(err.message.contains("unrecognized"));
    }

    #[test]
    fn spans_point_into_source() {
        let src = "let abc = 42;";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks[1].span.snippet(src), "abc");
        assert_eq!(toks[3].span.snippet(src), "42");
    }

    #[test]
    fn u32_and_usize_alias_to_i32() {
        assert_eq!(
            kinds("u32 usize i32"),
            vec![
                TokenKind::I32,
                TokenKind::I32,
                TokenKind::I32,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn single_pipe_is_error() {
        assert!(tokenize("a | b").is_err());
    }
}
