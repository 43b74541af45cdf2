//! Recursive-descent parser for the Pyjama-style directive language.
//!
//! The language is block-structured and line-oriented:
//!
//! ```text
//! //#omp parallel num_threads(2) private(t)
//! {
//!     //#omp for reduction(+:sum)
//!     for i in 0..4 {
//!         sum = sum + i;
//!     }
//!     //#omp barrier
//!     //#omp critical tally
//!     {
//!         total = total + 1;
//!     }
//! }
//! ```
//!
//! Directives are `//#omp` comment lines — exactly Pyjama's trick of
//! hiding OpenMP-style annotations in comments so the program stays
//! legal source for an unmodified compiler. Structure errors (unclosed
//! blocks, stray `}`, a directive without its block, malformed
//! clauses) are reported as [`Code::E005`] diagnostics with spans.
//!
//! The parser *recovers* from directive-level mistakes: an unknown or
//! malformed directive reports its `E005`, skips the balanced block
//! that follows it, and parsing continues so later regions still get
//! analysed ([`parse_recover`]). Only structural failures that make
//! block alignment unreliable — an unclosed block or an unmatched
//! `}` — are fatal and withhold the tree.

use std::ops::Range;

use crate::ast::{
    Assign, BinOp, Clause, Expr, Ident, Item, Loop, Program, RedOp, Region, RegionKind,
    ScheduleSpec, Span,
};
use crate::diag::{sort_diagnostics, Code, Diagnostic};
use crate::lexer::{lex_line, Tok, TokKind};

/// One significant (non-blank, non-comment) source line.
#[derive(Debug)]
struct SrcLine {
    /// Its tokens in the program's token buffer.
    toks: Range<usize>,
    /// Span of the whole significant text on the line.
    span: Span,
    /// Was this a `//#omp` directive line?
    directive: bool,
    /// Did the lexer reject this line (tokens are empty but the error
    /// was already reported)?
    lex_failed: bool,
}

/// Parse a directive program. On success returns the region tree; if
/// *any* diagnostic fires (even a recoverable one) returns the
/// (sorted) list of `E005` diagnostics instead. Use [`parse_recover`]
/// to keep the partial tree alongside recoverable diagnostics.
pub fn parse(source: &str) -> Result<Program, Vec<Diagnostic>> {
    let (program, diags) = parse_inner(source);
    match program {
        Some(program) if diags.is_empty() => Ok(program),
        _ => Err(diags),
    }
}

/// Parse with error recovery: recoverable directive mistakes (unknown
/// directive, malformed clause or statement) report their `E005`,
/// skip the offending construct's block, and leave the rest of the
/// tree intact. The program is `None` only on *fatal* structural
/// failures (unclosed block, unmatched `}`), where block alignment —
/// and therefore every later region — is unreliable.
#[must_use]
pub fn parse_recover(source: &str) -> (Option<Program>, Vec<Diagnostic>) {
    parse_inner(source)
}

/// The marker that opens a directive line.
const MARKER: &str = "//#omp";

fn parse_inner(source: &str) -> (Option<Program>, Vec<Diagnostic>) {
    // One token buffer per program. Over `genprog::generate(1, 20000)`
    // a program runs 7.2 bytes per token (3.8 at the densest) and 16.3
    // per non-blank line.
    let mut toks = Vec::with_capacity(source.len() / 4);
    let mut lines = Vec::with_capacity(source.len() / 16 + 1);
    let mut diags = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = raw.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        // Columns count characters, not bytes.
        let lead_cols = raw[..raw.len() - trimmed.len()].chars().count();
        let span = Span::new(line_no, lead_cols + 1, trimmed.trim_end().chars().count());
        let first = toks.len();
        if let Some(rest) = trimmed.strip_prefix(MARKER) {
            // Tokens of the directive body, offset past the marker.
            let lexed = lex_line(line_no, lead_cols + MARKER.len(), rest, &mut toks);
            if let Err((err_span, c)) = lexed {
                diags.push(Diagnostic::new(
                    Code::E005,
                    err_span,
                    format!("unrecognised character `{c}` in directive"),
                ));
            }
            // A rejected line keeps a placeholder so the directive's
            // block (if any) is skipped instead of mis-parsed.
            let lex_failed = lexed.is_err();
            lines.push(SrcLine { toks: first..toks.len(), span, directive: true, lex_failed });
        } else if trimmed.starts_with("//") {
            continue; // ordinary comment
        } else {
            match lex_line(line_no, 0, raw, &mut toks) {
                Ok(()) if toks.len() == first => {}
                Ok(()) => lines.push(SrcLine {
                    toks: first..toks.len(),
                    span,
                    directive: false,
                    lex_failed: false,
                }),
                Err((span, c)) => {
                    diags.push(Diagnostic::new(
                        Code::E005,
                        span,
                        format!("unrecognised character `{c}`"),
                    ));
                }
            }
        }
    }
    let mut parser = Parser { toks: &toks, lines, pos: 0, diags, fatal: false };
    let items = parser.items(None);
    let fatal = parser.fatal;
    let mut diags = parser.diags;
    sort_diagnostics(&mut diags);
    let program = if fatal { None } else { Some(Program { items }) };
    (program, diags)
}

struct Parser<'t, 's> {
    /// The program's tokens; each line holds a range of them.
    toks: &'t [Tok<'s>],
    lines: Vec<SrcLine>,
    pos: usize,
    diags: Vec<Diagnostic>,
    /// Block alignment broke: the (partial) tree must not be trusted.
    fatal: bool,
}

impl<'t, 's> Parser<'t, 's> {
    fn err(&mut self, span: Span, message: impl Into<String>) {
        self.diags.push(Diagnostic::new(Code::E005, span, message));
    }

    fn fatal_err(&mut self, span: Span, message: impl Into<String>) {
        self.fatal = true;
        self.err(span, message);
    }

    /// The tokens of line `i`.
    fn line_toks(&self, i: usize) -> &'t [Tok<'s>] {
        let toks = self.toks;
        &toks[self.lines[i].toks.clone()]
    }

    /// Does line `i` exist and open a block (a lone `{`)?
    fn opens_block(&self, i: usize) -> bool {
        self.lines.get(i).is_some_and(|l| {
            !l.directive && matches!(self.line_toks(i), [Tok { kind: TokKind::LBrace, .. }])
        })
    }

    /// Does line `i` exist and start a loop header (`for ...`)?
    fn starts_loop(&self, i: usize) -> bool {
        self.lines.get(i).is_some_and(|l| {
            !l.directive
                && matches!(self.line_toks(i).first(), Some(Tok { kind: TokKind::Ident("for"), .. }))
        })
    }

    /// Skip lines until `depth` opened braces have closed (counting
    /// every `{`/`}` token, so loop headers and lone braces both
    /// balance). Runs to end of input if the block never closes — the
    /// construct that owned the block already reported its error.
    fn skip_depth(&mut self, mut depth: i64) {
        while depth > 0 && self.pos < self.lines.len() {
            depth += brace_depth(self.line_toks(self.pos));
            self.pos += 1;
        }
    }

    /// If the next line opens a block (`{`), consume it and everything
    /// through its matching `}` — used after a malformed directive so
    /// its body doesn't reparse as stray top-level items.
    fn skip_block_if_present(&mut self) {
        if self.opens_block(self.pos) {
            self.pos += 1;
            self.skip_depth(1);
        }
    }

    /// If the next line is a loop header, consume it and its block —
    /// used after a malformed `//#omp for` directive.
    fn skip_loop_if_present(&mut self) {
        if self.starts_loop(self.pos) {
            let depth = brace_depth(self.line_toks(self.pos));
            self.pos += 1;
            self.skip_depth(depth.max(0));
        }
    }

    /// Parse items until a closing `}` (when `until` carries the
    /// opener's span) or end of input.
    fn items(&mut self, until: Option<Span>) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < self.lines.len() {
            let directive = self.lines[self.pos].directive;
            if let (false, Some(Tok { kind: TokKind::RBrace, span })) =
                (directive, self.line_toks(self.pos).first())
            {
                self.pos += 1;
                if until.is_some() {
                    return items;
                }
                self.fatal_err(*span, "unmatched `}`");
                continue;
            }
            if directive {
                if let Some(item) = self.directive() {
                    items.push(item);
                }
            } else if self.starts_loop(self.pos) {
                if let Some(l) = self.loop_item() {
                    items.push(Item::Loop(l));
                }
            } else if let Some(a) = self.assign() {
                items.push(Item::Assign(a));
            }
        }
        if let Some(opener) = until {
            self.fatal_err(opener, "unclosed block: missing `}` before end of input");
        }
        items
    }

    /// Parse the directive at the cursor (and its block, if any).
    /// On a recoverable error the directive's block (or loop) is
    /// skipped so later items still parse cleanly.
    fn directive(&mut self) -> Option<Item> {
        let line = &self.lines[self.pos];
        let (dir_span, lex_failed) = (line.span, line.lex_failed);
        let mut cur = Cursor { toks: self.line_toks(self.pos), i: 0 };
        self.pos += 1;
        let Some((keyword, keyword_span)) = cur.word() else {
            // A lex failure already reported its own diagnostic.
            if !lex_failed {
                self.err(dir_span, "expected a directive name after `//#omp`");
            }
            self.skip_block_if_present();
            return None;
        };
        let kind = match keyword {
            "parallel" => RegionKind::Parallel,
            "for" => RegionKind::For,
            "sections" => RegionKind::Sections,
            "section" => RegionKind::Section,
            "single" => RegionKind::Single,
            "master" => RegionKind::Master,
            "critical" => RegionKind::Critical,
            "barrier" => RegionKind::Barrier,
            "gui" => RegionKind::Gui,
            other => {
                self.err(keyword_span, format!("unknown directive `{other}`"));
                self.skip_block_if_present();
                return None;
            }
        };
        // `critical` takes an optional lock name before its clauses.
        let mut name = None;
        if kind == RegionKind::Critical {
            if let Some(TokKind::Ident(word)) = cur.peek() {
                if !is_clause_keyword(word) {
                    name = cur.ident();
                }
            }
        }
        let Some(clauses) = self.clauses(&mut cur) else {
            // The directive's construct still follows — skip it so
            // its body doesn't reparse as stray top-level items.
            match kind {
                RegionKind::Barrier => {}
                RegionKind::For => self.skip_loop_if_present(),
                _ => self.skip_block_if_present(),
            }
            return None;
        };
        match kind {
            RegionKind::Barrier => {
                Some(Item::Region(Region { kind, name, clauses, span: dir_span, body: Vec::new() }))
            }
            RegionKind::For => {
                // The annotated loop must follow immediately.
                if !self.starts_loop(self.pos) {
                    self.err(dir_span, "`//#omp for` must be followed by a `for v in lo..hi {` loop");
                    return None;
                }
                let l = self.loop_item()?;
                Some(Item::Region(Region {
                    kind,
                    name,
                    clauses,
                    span: dir_span,
                    body: vec![Item::Loop(l)],
                }))
            }
            _ => {
                let body = self.block(dir_span)?;
                Some(Item::Region(Region { kind, name, clauses, span: dir_span, body }))
            }
        }
    }

    /// Expect `{` on the next line and parse items up to its `}`.
    fn block(&mut self, opener: Span) -> Option<Vec<Item>> {
        if !self.opens_block(self.pos) {
            self.err(opener, "expected `{` on the next line to open this region's block");
            return None;
        }
        let open_span = self.line_toks(self.pos)[0].span;
        self.pos += 1;
        Some(self.items(Some(open_span)))
    }

    /// Parse `for v in lo..hi {` + body + `}` from the cursor.
    fn loop_item(&mut self) -> Option<Loop> {
        let span = self.lines[self.pos].span;
        let toks = self.line_toks(self.pos);
        self.pos += 1;
        let mut cur = Cursor { toks, i: 0 };
        // Braces the malformed header itself opened: skip to their
        // close so a trailing `{` doesn't orphan its `}`.
        let header_depth = brace_depth(toks);
        let bad = |p: &mut Self| {
            p.err(span, "malformed loop header: expected `for v in lo..hi {`");
            p.skip_depth(header_depth.max(0));
            None
        };
        if !matches!(cur.word(), Some(("for", _))) {
            return bad(self);
        }
        let Some(var) = cur.ident() else { return bad(self) };
        if !matches!(cur.word(), Some(("in", _))) {
            return bad(self);
        }
        let Some(lo) = cur.signed_num() else { return bad(self) };
        if !cur.eat(TokKind::DotDot) {
            return bad(self);
        }
        let Some(hi) = cur.signed_num() else { return bad(self) };
        if !cur.eat(TokKind::LBrace) || cur.peek().is_some() {
            return bad(self);
        }
        let body = self.items(Some(span));
        Some(Loop { var, lo, hi, span, body })
    }

    /// Parse `target = expr;` from the cursor.
    fn assign(&mut self) -> Option<Assign> {
        let span = self.lines[self.pos].span;
        let mut cur = Cursor { toks: self.line_toks(self.pos), i: 0 };
        self.pos += 1;
        let Some(target) = cur.ident() else {
            self.err(span, "expected a statement (`x = expr;`), loop, directive or `}`");
            return None;
        };
        if !cur.eat(TokKind::Assign) {
            self.err(span, format!("expected `=` after `{}`", target.name));
            return None;
        }
        let expr = self.expr(&mut cur, span)?;
        if !cur.eat(TokKind::Semi) || cur.peek().is_some() {
            self.err(span, "expected `;` at the end of the statement");
            return None;
        }
        Some(Assign { target, expr, span })
    }

    // -- expressions (precedence climbing: `+ -` < `* /`) ------------

    fn expr(&mut self, cur: &mut Cursor<'t, 's>, span: Span) -> Option<Expr> {
        let mut lhs = self.term(cur, span)?;
        loop {
            let op = match cur.peek() {
                Some(TokKind::Plus) => BinOp::Add,
                Some(TokKind::Minus) => BinOp::Sub,
                _ => break,
            };
            cur.i += 1;
            let rhs = self.term(cur, span)?;
            lhs = Expr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        Some(lhs)
    }

    fn term(&mut self, cur: &mut Cursor<'t, 's>, span: Span) -> Option<Expr> {
        let mut lhs = self.factor(cur, span)?;
        loop {
            let op = match cur.peek() {
                Some(TokKind::Star) => BinOp::Mul,
                Some(TokKind::Slash) => BinOp::Div,
                _ => break,
            };
            cur.i += 1;
            let rhs = self.factor(cur, span)?;
            lhs = Expr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        Some(lhs)
    }

    fn factor(&mut self, cur: &mut Cursor<'t, 's>, span: Span) -> Option<Expr> {
        match cur.peek() {
            Some(TokKind::Num(n)) => {
                let sp = cur.toks[cur.i].span;
                cur.i += 1;
                Some(Expr::Num(n, sp))
            }
            Some(TokKind::Minus) => {
                let sp = cur.toks[cur.i].span;
                cur.i += 1;
                match cur.peek() {
                    Some(TokKind::Num(n)) => {
                        cur.i += 1;
                        Some(Expr::Num(-n, sp))
                    }
                    _ => {
                        self.err(span, "expected a number after unary `-`");
                        None
                    }
                }
            }
            Some(TokKind::Ident(_)) => cur.ident().map(Expr::Var),
            Some(TokKind::LParen) => {
                cur.i += 1;
                let inner = self.expr(cur, span)?;
                if cur.eat(TokKind::RParen) {
                    Some(inner)
                } else {
                    self.err(span, "expected `)` to close the parenthesised expression");
                    None
                }
            }
            other => {
                let what = other.map_or_else(|| "end of line".to_string(), |k| k.describe());
                self.err(span, format!("expected an expression, found {what}"));
                None
            }
        }
    }

    // -- clauses ------------------------------------------------------

    fn clauses(&mut self, cur: &mut Cursor<'t, 's>) -> Option<Vec<Clause>> {
        let mut clauses = Vec::new();
        while let Some(kind) = cur.peek() {
            let TokKind::Ident(word) = kind else {
                self.err(cur.toks[cur.i].span, format!("expected a clause, found {}", kind.describe()));
                return None;
            };
            let key = cur.word().expect("peeked an ident");
            let clause = match word {
                "shared" => Clause::Shared(self.ident_list(cur, key)?),
                "private" => Clause::Private(self.ident_list(cur, key)?),
                "firstprivate" => Clause::FirstPrivate(self.ident_list(cur, key)?),
                "reduction" => self.reduction(cur, key)?,
                "schedule" => self.schedule(cur, key)?,
                "num_threads" => {
                    if !cur.eat(TokKind::LParen) {
                        self.err(key.1, "expected `(` after `num_threads`");
                        return None;
                    }
                    let n = match cur.peek() {
                        Some(TokKind::Num(n)) if n >= 1 => {
                            cur.i += 1;
                            n as usize
                        }
                        _ => {
                            self.err(key.1, "num_threads takes a positive integer");
                            return None;
                        }
                    };
                    if !cur.eat(TokKind::RParen) {
                        self.err(key.1, "expected `)` to close `num_threads(...)`");
                        return None;
                    }
                    Clause::NumThreads(n)
                }
                "nowait" => Clause::NoWait,
                other => {
                    self.err(key.1, format!("unknown clause `{other}`"));
                    return None;
                }
            };
            clauses.push(clause);
        }
        Some(clauses)
    }

    fn ident_list(&mut self, cur: &mut Cursor<'t, 's>, (key, key_span): (&str, Span)) -> Option<Vec<Ident>> {
        if !cur.eat(TokKind::LParen) {
            self.err(key_span, format!("expected `(` after `{key}`"));
            return None;
        }
        let mut ids = Vec::new();
        loop {
            let Some(id) = cur.ident() else {
                self.err(key_span, format!("expected a variable name in `{key}(...)`"));
                return None;
            };
            ids.push(id);
            if cur.eat(TokKind::Comma) {
                continue;
            }
            if cur.eat(TokKind::RParen) {
                return Some(ids);
            }
            self.err(key_span, format!("expected `,` or `)` in `{key}(...)`"));
            return None;
        }
    }

    fn reduction(&mut self, cur: &mut Cursor<'t, 's>, (_, key_span): (&str, Span)) -> Option<Clause> {
        if !cur.eat(TokKind::LParen) {
            self.err(key_span, "expected `(` after `reduction`");
            return None;
        }
        let op = match cur.peek() {
            Some(TokKind::Plus) => Some(RedOp::Add),
            Some(TokKind::Star) => Some(RedOp::Mul),
            Some(TokKind::Amp) => Some(RedOp::BitAnd),
            Some(TokKind::Pipe) => Some(RedOp::BitOr),
            Some(TokKind::Caret) => Some(RedOp::BitXor),
            Some(TokKind::Ident("min")) => Some(RedOp::Min),
            Some(TokKind::Ident("max")) => Some(RedOp::Max),
            _ => None,
        };
        let Some(op) = op else {
            self.err(key_span, "expected a reduction operator (`+ * & | ^ min max`)");
            return None;
        };
        cur.i += 1;
        if !cur.eat(TokKind::Colon) {
            self.err(key_span, "expected `:` between the reduction operator and variable");
            return None;
        }
        let Some(var) = cur.ident() else {
            self.err(key_span, "expected the reduction variable name");
            return None;
        };
        if !cur.eat(TokKind::RParen) {
            self.err(key_span, "expected `)` to close `reduction(...)`");
            return None;
        }
        Some(Clause::Reduction { op, var })
    }

    fn schedule(&mut self, cur: &mut Cursor<'t, 's>, (_, key_span): (&str, Span)) -> Option<Clause> {
        if !cur.eat(TokKind::LParen) {
            self.err(key_span, "expected `(` after `schedule`");
            return None;
        }
        let Some((kind, kind_span)) = cur.word() else {
            self.err(key_span, "expected `static`, `dynamic` or `guided`");
            return None;
        };
        let chunk = if cur.eat(TokKind::Comma) {
            match cur.peek() {
                Some(TokKind::Num(n)) if n >= 1 => {
                    cur.i += 1;
                    Some(n as usize)
                }
                _ => {
                    self.err(key_span, "schedule chunk must be a positive integer");
                    return None;
                }
            }
        } else {
            None
        };
        if !cur.eat(TokKind::RParen) {
            self.err(key_span, "expected `)` to close `schedule(...)`");
            return None;
        }
        let spec = match (kind, chunk) {
            ("static", None) => ScheduleSpec::Static,
            ("static", Some(c)) => ScheduleSpec::StaticChunk(c),
            ("dynamic", c) => ScheduleSpec::Dynamic(c.unwrap_or(1)),
            ("guided", c) => ScheduleSpec::Guided(c.unwrap_or(1)),
            (other, _) => {
                self.err(kind_span, format!("unknown schedule kind `{other}`"));
                return None;
            }
        };
        Some(Clause::Schedule(spec))
    }
}

/// Net braces a line opens (`{` minus `}`).
fn brace_depth(toks: &[Tok<'_>]) -> i64 {
    toks.iter()
        .map(|t| match t.kind {
            TokKind::LBrace => 1,
            TokKind::RBrace => -1,
            _ => 0,
        })
        .sum()
}

fn is_clause_keyword(word: &str) -> bool {
    matches!(
        word,
        "shared" | "private" | "firstprivate" | "reduction" | "schedule" | "num_threads" | "nowait"
    )
}

/// A cursor over one line's tokens.
struct Cursor<'t, 's> {
    toks: &'t [Tok<'s>],
    i: usize,
}

impl<'s> Cursor<'_, 's> {
    fn peek(&self) -> Option<TokKind<'s>> {
        self.toks.get(self.i).map(|t| t.kind)
    }

    fn eat(&mut self, kind: TokKind<'_>) -> bool {
        if self.peek() == Some(kind) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// A keyword or name, borrowed from the source.
    fn word(&mut self) -> Option<(&'s str, Span)> {
        match self.toks.get(self.i) {
            Some(&Tok { kind: TokKind::Ident(word), span }) => {
                self.i += 1;
                Some((word, span))
            }
            _ => None,
        }
    }

    /// A name the tree keeps.
    fn ident(&mut self) -> Option<Ident> {
        self.word().map(|(name, span)| Ident { name: name.to_string(), span })
    }

    fn signed_num(&mut self) -> Option<i64> {
        let neg = self.eat(TokKind::Minus);
        match self.peek() {
            Some(TokKind::Num(n)) => {
                self.i += 1;
                Some(if neg { -n } else { n })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WELL_FORMED: &str = "\
//#omp parallel num_threads(2) private(t)
{
    //#omp for reduction(+:sum) schedule(static)
    for i in 0..4 {
        sum = sum + i;
    }
    //#omp critical tally
    {
        total = total + 1;
    }
    //#omp barrier
}
";

    #[test]
    fn parses_the_kitchen_sink() {
        let prog = parse(WELL_FORMED).expect("well-formed program parses");
        assert_eq!(prog.items.len(), 1);
        let Item::Region(par) = &prog.items[0] else { panic!("expected a region") };
        assert_eq!(par.kind, RegionKind::Parallel);
        assert_eq!(par.num_threads(), Some(2));
        assert_eq!(par.body.len(), 3);
        let Item::Region(f) = &par.body[0] else { panic!("expected the for region") };
        assert_eq!(f.kind, RegionKind::For);
        assert_eq!(f.reductions().count(), 1);
        let Item::Region(c) = &par.body[1] else { panic!("expected the critical") };
        assert_eq!(c.name.as_ref().map(|n| n.name.as_str()), Some("tally"));
        let Item::Region(b) = &par.body[2] else { panic!("expected the barrier") };
        assert_eq!(b.kind, RegionKind::Barrier);
    }

    #[test]
    fn pretty_print_is_a_parse_fixed_point() {
        let prog = parse(WELL_FORMED).unwrap();
        let printed = prog.pretty();
        let reparsed = parse(&printed).expect("pretty output reparses");
        assert_eq!(prog, reparsed);
        assert_eq!(printed, reparsed.pretty());
    }

    #[test]
    fn unclosed_block_is_e005() {
        let diags = parse("//#omp parallel\n{\n    x = 1;\n").unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::E005));
        assert!(diags[0].message.contains("unclosed block"));
    }

    #[test]
    fn unmatched_close_is_e005() {
        let diags = parse("x = 1;\n}\n").unwrap_err();
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unmatched `}`"));
        assert_eq!(diags[0].span.line, 2);
    }

    #[test]
    fn directive_without_block_is_e005() {
        let diags = parse("//#omp single\nx = 1;\n").unwrap_err();
        assert!(diags[0].message.contains("expected `{`"));
    }

    #[test]
    fn unknown_directive_is_e005() {
        let diags = parse("//#omp paralel\n{\n}\n").unwrap_err();
        assert!(diags[0].message.contains("unknown directive `paralel`"));
    }

    #[test]
    fn recovers_after_unknown_directive() {
        // The misspelled region's whole block is skipped; the later
        // well-formed region still parses.
        let src = "\
//#omp paralel num_threads(2)
{
    x = x + 1;
}
//#omp critical
{
    y = y + 1;
}
";
        let (prog, diags) = parse_recover(src);
        let prog = prog.expect("recoverable error keeps the tree");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unknown directive `paralel`"));
        assert_eq!(prog.items.len(), 1, "only the critical survives");
        let Item::Region(c) = &prog.items[0] else { panic!("expected the critical") };
        assert_eq!(c.kind, RegionKind::Critical);
    }

    #[test]
    fn recovers_after_malformed_clause_block() {
        let src = "\
//#omp parallel num_threads(zero)
{
    x = x + 1;
}
z = 1;
";
        let (prog, diags) = parse_recover(src);
        let prog = prog.expect("clause errors are recoverable");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("num_threads takes a positive integer"));
        assert_eq!(prog.items.len(), 1, "the malformed region's body is skipped");
        assert!(matches!(&prog.items[0], Item::Assign(a) if a.target.name == "z"));
    }

    #[test]
    fn recovers_after_malformed_loop_header() {
        let src = "\
//#omp parallel
{
    for i in 0..n {
        x = x + 1;
    }
    y = 2;
}
";
        let (prog, diags) = parse_recover(src);
        let prog = prog.expect("bad loop header is recoverable");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("malformed loop header"));
        let Item::Region(par) = &prog.items[0] else { panic!("expected the parallel") };
        assert_eq!(par.body.len(), 1, "loop skipped, trailing assign kept");
        assert!(matches!(&par.body[0], Item::Assign(a) if a.target.name == "y"));
    }

    #[test]
    fn fatal_errors_yield_no_tree() {
        let (prog, diags) = parse_recover("//#omp parallel\n{\n    x = 1;\n");
        assert!(prog.is_none(), "unclosed block breaks alignment: no tree");
        assert!(diags.iter().any(|d| d.message.contains("unclosed block")));

        let (prog, diags) = parse_recover("x = 1;\n}\n");
        assert!(prog.is_none(), "unmatched `}}` breaks alignment: no tree");
        assert!(diags.iter().any(|d| d.message.contains("unmatched `}`")));
    }

    #[test]
    fn negative_bounds_and_nested_exprs_parse() {
        let src = "for i in -2..2 {\n    x = (i + 1) * 3 - 4 / 2;\n}\n";
        let prog = parse(src).unwrap();
        let Item::Loop(l) = &prog.items[0] else { panic!("expected a loop") };
        assert_eq!((l.lo, l.hi), (-2, 2));
        // The printer adds canonical parentheses, so compare the
        // pretty forms: one round through the printer is idempotent.
        let printed = prog.pretty();
        assert_eq!(parse(&printed).unwrap().pretty(), printed);
    }
}
