//! A byte lexer for the directive mini-language.
//!
//! The language is line-oriented (directives, braces, loop headers and
//! statements each live on their own line), so the lexer works one
//! line at a time and attaches full [`Span`]s — the parser classifies
//! whole lines first and then walks the tokens within them. It reads
//! bytes, appends to one token buffer the parser keeps per program, and
//! borrows identifier text from the source. Columns count characters:
//! every token is ASCII, and the first non-ASCII character on a line is
//! the lexer's error, so up to it a byte is a column.

use crate::ast::Span;

/// One token with its span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tok<'s> {
    /// The token kind (and payload).
    pub kind: TokKind<'s>,
    /// Where it sits in the source.
    pub span: Span,
}

/// The token vocabulary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TokKind<'s> {
    /// An identifier or keyword, borrowed from the source.
    Ident(&'s str),
    /// An unsigned integer literal (sign handled by the parser).
    Num(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `..`
    DotDot,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
}

impl TokKind<'_> {
    /// A short human name for error messages.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Self::Ident(s) => format!("`{s}`"),
            Self::Num(n) => format!("`{n}`"),
            Self::LParen => "`(`".into(),
            Self::RParen => "`)`".into(),
            Self::Comma => "`,`".into(),
            Self::Colon => "`:`".into(),
            Self::Semi => "`;`".into(),
            Self::Assign => "`=`".into(),
            Self::Plus => "`+`".into(),
            Self::Minus => "`-`".into(),
            Self::Star => "`*`".into(),
            Self::Slash => "`/`".into(),
            Self::Amp => "`&`".into(),
            Self::Pipe => "`|`".into(),
            Self::Caret => "`^`".into(),
            Self::DotDot => "`..`".into(),
            Self::LBrace => "`{`".into(),
            Self::RBrace => "`}`".into(),
        }
    }
}

/// Tokenize one source line (1-based `line_no`) whose first character
/// sits at column `col0 + 1`, appending to `out`. On the first
/// unrecognised input returns its span and character, and leaves `out`
/// as it was.
pub fn lex_line<'s>(
    line_no: usize,
    col0: usize,
    text: &'s str,
    out: &mut Vec<Tok<'s>>,
) -> Result<(), (Span, char)> {
    let start_len = out.len();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let col = col0 + i + 1;
        let single = match bytes[i] {
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'(' => TokKind::LParen,
            b')' => TokKind::RParen,
            b',' => TokKind::Comma,
            b':' => TokKind::Colon,
            b';' => TokKind::Semi,
            b'=' => TokKind::Assign,
            b'+' => TokKind::Plus,
            b'-' => TokKind::Minus,
            b'*' => TokKind::Star,
            b'/' => TokKind::Slash,
            b'&' => TokKind::Amp,
            b'|' => TokKind::Pipe,
            b'^' => TokKind::Caret,
            b'{' => TokKind::LBrace,
            b'}' => TokKind::RBrace,
            b'.' if bytes.get(i + 1) == Some(&b'.') => {
                out.push(Tok { kind: TokKind::DotDot, span: Span::new(line_no, col, 2) });
                i += 2;
                continue;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut value: Option<i64> = Some(0);
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    let digit = i64::from(bytes[i] - b'0');
                    value = value.and_then(|v| v.checked_mul(10)?.checked_add(digit));
                    i += 1;
                }
                let span = Span::new(line_no, col, i - start);
                let Some(value) = value else {
                    out.truncate(start_len);
                    return Err((span, '0'));
                };
                out.push(Tok { kind: TokKind::Num(value), span });
                continue;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let kind = TokKind::Ident(&text[start..i]);
                out.push(Tok { kind, span: Span::new(line_no, col, i - start) });
                continue;
            }
            _ => {
                let c = text[i..].chars().next().expect("a character starts at every checked byte");
                out.truncate(start_len);
                return Err((Span::new(line_no, col, 1), c));
            }
        };
        out.push(Tok { kind: single, span: Span::new(line_no, col, 1) });
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(line_no: usize, col0: usize, text: &str) -> Result<Vec<Tok<'_>>, (Span, char)> {
        let mut toks = Vec::new();
        lex_line(line_no, col0, text, &mut toks).map(|()| toks)
    }

    #[test]
    fn lexes_a_loop_header() {
        let toks = lex(3, 0, "for i in 0..4 {").unwrap();
        let kinds: Vec<TokKind<'_>> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Ident("for"),
                TokKind::Ident("i"),
                TokKind::Ident("in"),
                TokKind::Num(0),
                TokKind::DotDot,
                TokKind::Num(4),
                TokKind::LBrace,
            ]
        );
        assert_eq!(toks[0].span, Span::new(3, 1, 3));
        assert_eq!(toks[4].span, Span::new(3, 11, 2));
    }

    #[test]
    fn lexes_reduction_punctuation() {
        let toks = lex(1, 0, "reduction(+:sum)").unwrap();
        assert_eq!(toks.len(), 6);
        assert_eq!(toks[2].kind, TokKind::Plus);
        assert_eq!(toks[3].kind, TokKind::Colon);
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex(2, 0, "x = #;").unwrap_err();
        assert_eq!(err.0, Span::new(2, 5, 1));
        assert_eq!(err.1, '#');
    }

    #[test]
    fn columns_start_past_the_offset_and_errors_keep_the_buffer() {
        let mut toks = Vec::new();
        lex_line(1, 0, "x", &mut toks).unwrap();
        assert_eq!(lex_line(4, 7, " y = é;", &mut toks), Err((Span::new(4, 13, 1), 'é')));
        assert_eq!(toks.len(), 1, "a rejected line adds no tokens");
        lex_line(4, 7, " y", &mut toks).unwrap();
        assert_eq!(toks[1].span, Span::new(4, 9, 1));
        let overflow = lex(1, 0, "x = 99999999999999999999;").unwrap_err();
        assert_eq!(overflow, (Span::new(1, 5, 20), '0'));
    }
}
