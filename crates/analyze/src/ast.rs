//! The spanned region-tree IR the directive parser produces.
//!
//! A program is a list of [`Item`]s: directive-introduced [`Region`]s
//! (with their nested bodies), plain counted [`Loop`]s, and scalar
//! [`Assign`]ments. Every node carries a [`Span`] pointing back into
//! the source text so diagnostics can render caret-annotated snippets.
//!
//! The directive vocabulary follows Pyjama (Vikas, Giacaman & Sinnen,
//! ParCo 2013): `//#omp parallel | for | sections | section | single |
//! master | critical [name] | barrier | gui`, with the data clauses
//! `shared` / `private` / `firstprivate`, `reduction(op:var)`,
//! `schedule(...)`, `num_threads(n)` and `nowait`.

use std::fmt::Write as _;

/// A half-open source span: 1-based line, 1-based starting column,
/// length in characters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based starting column.
    pub col: usize,
    /// Length in characters (at least 1 for renderable carets).
    pub len: usize,
}

impl Span {
    /// New span.
    #[must_use]
    pub fn new(line: usize, col: usize, len: usize) -> Self {
        Self { line, col, len: len.max(1) }
    }
}

/// An identifier with its source span.
#[derive(Clone, Debug)]
pub struct Ident {
    /// The name.
    pub name: String,
    /// Where it appears.
    pub span: Span,
}

impl PartialEq for Ident {
    /// Structural equality ignores spans (round-trip comparisons).
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

/// A reduction operator (`reduction(op:var)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedOp {
    /// `+` (identity 0).
    Add,
    /// `*` (identity 1).
    Mul,
    /// `min` (identity `i64::MAX`).
    Min,
    /// `max` (identity `i64::MIN`).
    Max,
    /// `&` (identity all-ones).
    BitAnd,
    /// `|` (identity 0).
    BitOr,
    /// `^` (identity 0).
    BitXor,
}

impl RedOp {
    /// The surface token, as written in the directive.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Self::Add => "+",
            Self::Mul => "*",
            Self::Min => "min",
            Self::Max => "max",
            Self::BitAnd => "&",
            Self::BitOr => "|",
            Self::BitXor => "^",
        }
    }

    /// The operator's identity element.
    #[must_use]
    pub fn identity(self) -> i64 {
        match self {
            Self::Add | Self::BitOr | Self::BitXor => 0,
            Self::Mul => 1,
            Self::Min => i64::MAX,
            Self::Max => i64::MIN,
            Self::BitAnd => -1,
        }
    }

    /// Fold one value into an accumulator.
    #[must_use]
    pub fn fold(self, acc: i64, v: i64) -> i64 {
        match self {
            Self::Add => acc.wrapping_add(v),
            Self::Mul => acc.wrapping_mul(v),
            Self::Min => acc.min(v),
            Self::Max => acc.max(v),
            Self::BitAnd => acc & v,
            Self::BitOr => acc | v,
            Self::BitXor => acc ^ v,
        }
    }
}

/// A `schedule(...)` clause argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// `schedule(static)`.
    Static,
    /// `schedule(static, c)`.
    StaticChunk(usize),
    /// `schedule(dynamic, c)` (`c` defaults to 1).
    Dynamic(usize),
    /// `schedule(guided, c)` (`c` defaults to 1).
    Guided(usize),
}

/// One directive clause.
#[derive(Clone, Debug, PartialEq)]
pub enum Clause {
    /// `shared(a, b)`.
    Shared(Vec<Ident>),
    /// `private(a, b)`.
    Private(Vec<Ident>),
    /// `firstprivate(a, b)`.
    FirstPrivate(Vec<Ident>),
    /// `reduction(op:var)`.
    Reduction {
        /// The combiner.
        op: RedOp,
        /// The reduction variable.
        var: Ident,
    },
    /// `schedule(kind[, chunk])`.
    Schedule(ScheduleSpec),
    /// `num_threads(n)`.
    NumThreads(usize),
    /// `nowait` (drops a worksharing construct's trailing barrier).
    NoWait,
}

/// What construct a directive introduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegionKind {
    /// `//#omp parallel` + block.
    Parallel,
    /// `//#omp for` + counted loop (worksharing).
    For,
    /// `//#omp sections` + block of `section`s (worksharing).
    Sections,
    /// `//#omp section` + block (one branch of `sections`).
    Section,
    /// `//#omp single` + block (one thread runs it; implied barrier).
    Single,
    /// `//#omp master` + block (thread 0 runs it; **no** barrier).
    Master,
    /// `//#omp critical [name]` + block (named mutual exclusion).
    Critical,
    /// `//#omp barrier` (standalone).
    Barrier,
    /// `//#omp gui` + block (Pyjama's EDT-executed region).
    Gui,
}

impl RegionKind {
    /// The directive keyword.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Self::Parallel => "parallel",
            Self::For => "for",
            Self::Sections => "sections",
            Self::Section => "section",
            Self::Single => "single",
            Self::Master => "master",
            Self::Critical => "critical",
            Self::Barrier => "barrier",
            Self::Gui => "gui",
        }
    }
}

/// A directive-introduced region with its body.
#[derive(Clone, Debug, PartialEq)]
pub struct Region {
    /// The construct.
    pub kind: RegionKind,
    /// `critical`'s lock name (`None` = the unnamed critical).
    pub name: Option<Ident>,
    /// The directive's clauses, in source order.
    pub clauses: Vec<Clause>,
    /// Span of the directive itself.
    pub span: Span,
    /// Nested items. For [`RegionKind::For`] this is exactly one
    /// [`Item::Loop`] (the annotated loop); for
    /// [`RegionKind::Barrier`] it is empty.
    pub body: Vec<Item>,
}

impl Region {
    /// The `num_threads(n)` clause value, if any.
    #[must_use]
    pub fn num_threads(&self) -> Option<usize> {
        self.clauses.iter().find_map(|c| match c {
            Clause::NumThreads(n) => Some(*n),
            _ => None,
        })
    }

    /// The `reduction` clauses `(op, var)` of this region.
    pub fn reductions(&self) -> impl Iterator<Item = (RedOp, &Ident)> {
        self.clauses.iter().filter_map(|c| match c {
            Clause::Reduction { op, var } => Some((*op, var)),
            _ => None,
        })
    }

    /// Does this worksharing region carry `nowait`?
    #[must_use]
    pub fn nowait(&self) -> bool {
        self.clauses.iter().any(|c| matches!(c, Clause::NoWait))
    }
}

/// A counted loop `for v in lo..hi { ... }`.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// The loop variable (implicitly private).
    pub var: Ident,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
    /// Span of the header line.
    pub span: Span,
    /// Loop body.
    pub body: Vec<Item>,
}

/// A scalar assignment `target = expr;`.
#[derive(Clone, Debug, PartialEq)]
pub struct Assign {
    /// The assigned variable.
    pub target: Ident,
    /// The right-hand side.
    pub expr: Expr,
    /// Span of the whole statement.
    pub span: Span,
}

/// A binary operator in an expression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division; division by zero evaluates to 0).
    Div,
}

impl BinOp {
    /// The surface token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Self::Add => "+",
            Self::Sub => "-",
            Self::Mul => "*",
            Self::Div => "/",
        }
    }

    /// Apply the operator.
    #[must_use]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            Self::Add => a.wrapping_add(b),
            Self::Sub => a.wrapping_sub(b),
            Self::Mul => a.wrapping_mul(b),
            Self::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
        }
    }
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// An integer literal.
    Num(i64, Span),
    /// A variable read.
    Var(Ident),
    /// A binary operation.
    Bin(Box<Expr>, BinOp, Box<Expr>),
}

impl Expr {
    /// Visit every variable read, in lexical order.
    pub fn each_var<'a>(&'a self, f: &mut impl FnMut(&'a Ident)) {
        match self {
            Self::Num(..) => {}
            Self::Var(id) => f(id),
            Self::Bin(a, _, b) => {
                a.each_var(f);
                b.each_var(f);
            }
        }
    }
}

/// One program element.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A directive-introduced region.
    Region(Region),
    /// A plain counted loop.
    Loop(Loop),
    /// A scalar assignment.
    Assign(Assign),
}

/// A parsed directive program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

// ---------------------------------------------------------------------
// Pretty-printing (the canonical surface form; `parse ∘ pretty` is a
// fixed point, which `tests/analyze.rs` pins).
// ---------------------------------------------------------------------

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn pretty_clause(c: &Clause) -> String {
    let list = |ids: &[Ident]| {
        ids.iter().map(|i| i.name.as_str()).collect::<Vec<_>>().join(", ")
    };
    match c {
        Clause::Shared(ids) => format!("shared({})", list(ids)),
        Clause::Private(ids) => format!("private({})", list(ids)),
        Clause::FirstPrivate(ids) => format!("firstprivate({})", list(ids)),
        Clause::Reduction { op, var } => format!("reduction({}:{})", op.token(), var.name),
        Clause::Schedule(ScheduleSpec::Static) => "schedule(static)".to_string(),
        Clause::Schedule(ScheduleSpec::StaticChunk(c)) => format!("schedule(static, {c})"),
        Clause::Schedule(ScheduleSpec::Dynamic(c)) => format!("schedule(dynamic, {c})"),
        Clause::Schedule(ScheduleSpec::Guided(c)) => format!("schedule(guided, {c})"),
        Clause::NumThreads(n) => format!("num_threads({n})"),
        Clause::NoWait => "nowait".to_string(),
    }
}

fn pretty_expr(e: &Expr) -> String {
    match e {
        Expr::Num(n, _) => n.to_string(),
        Expr::Var(id) => id.name.clone(),
        Expr::Bin(a, op, b) => {
            let side = |x: &Expr| match x {
                Expr::Bin(..) => format!("({})", pretty_expr(x)),
                _ => pretty_expr(x),
            };
            format!("{} {} {}", side(a), op.token(), side(b))
        }
    }
}

fn pretty_items(items: &[Item], depth: usize, out: &mut String) {
    for item in items {
        match item {
            Item::Assign(a) => {
                indent(out, depth);
                let _ = writeln!(out, "{} = {};", a.target.name, pretty_expr(&a.expr));
            }
            Item::Loop(l) => {
                indent(out, depth);
                let _ = writeln!(out, "for {} in {}..{} {{", l.var.name, l.lo, l.hi);
                pretty_items(&l.body, depth + 1, out);
                indent(out, depth);
                out.push_str("}\n");
            }
            Item::Region(r) => {
                indent(out, depth);
                out.push_str("//#omp ");
                out.push_str(r.kind.keyword());
                if let Some(name) = &r.name {
                    let _ = write!(out, " {}", name.name);
                }
                for c in &r.clauses {
                    let _ = write!(out, " {}", pretty_clause(c));
                }
                out.push('\n');
                match r.kind {
                    RegionKind::Barrier => {}
                    RegionKind::For => {
                        // The annotated loop prints itself.
                        pretty_items(&r.body, depth, out);
                    }
                    _ => {
                        indent(out, depth);
                        out.push_str("{\n");
                        pretty_items(&r.body, depth + 1, out);
                        indent(out, depth);
                        out.push_str("}\n");
                    }
                }
            }
        }
    }
}

impl Program {
    /// Render the canonical surface form of the program.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        pretty_items(&self.items, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redop_identity_and_fold() {
        assert_eq!(RedOp::Add.fold(RedOp::Add.identity(), 7), 7);
        assert_eq!(RedOp::Mul.fold(RedOp::Mul.identity(), 7), 7);
        assert_eq!(RedOp::Min.fold(RedOp::Min.identity(), 7), 7);
        assert_eq!(RedOp::Max.fold(RedOp::Max.identity(), 7), 7);
        assert_eq!(RedOp::BitAnd.fold(RedOp::BitAnd.identity(), 7), 7);
        assert_eq!(RedOp::BitOr.fold(RedOp::BitOr.identity(), 7), 7);
        assert_eq!(RedOp::BitXor.fold(RedOp::BitXor.identity(), 7), 7);
    }

    #[test]
    fn binop_division_by_zero_is_total() {
        assert_eq!(BinOp::Div.apply(5, 0), 0);
        assert_eq!(BinOp::Div.apply(7, 2), 3);
    }

    #[test]
    fn ident_equality_ignores_spans() {
        let a = Ident { name: "x".into(), span: Span::new(1, 1, 1) };
        let b = Ident { name: "x".into(), span: Span::new(9, 9, 1) };
        assert_eq!(a, b);
    }

    #[test]
    fn pretty_parenthesises_nested_expressions() {
        let e = Expr::Bin(
            Box::new(Expr::Var(Ident { name: "a".into(), span: Span::default() })),
            BinOp::Add,
            Box::new(Expr::Bin(
                Box::new(Expr::Num(2, Span::default())),
                BinOp::Mul,
                Box::new(Expr::Var(Ident { name: "b".into(), span: Span::default() })),
            )),
        );
        assert_eq!(pretty_expr(&e), "a + (2 * b)");
    }
}
