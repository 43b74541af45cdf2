//! Per-program symbols: every name a program mentions, interned once.
//!
//! [`Symbols::of`] collects the names of one [`Program`] (assignment
//! targets, reads, loop variables, clause lists, critical names, and
//! the empty name of the unnamed critical), sorts them and numbers
//! them in that order. A [`Sym`] is that number, so two symbols of one
//! program compare as their names do: a map or set keyed by `Sym`
//! iterates in the same order as one keyed by the name, and every
//! report built from it reads the same.
//!
//! The lowering, the MHP model, the locksets and the rule engines key
//! on symbols; the AST keeps its names as text. A `NameSet` is a set
//! of symbols: a `u64` bitset, with a sorted spill list for symbols
//! past the 64th.

use crate::ast::{Clause, Item, Program};

/// An interned name: its rank among the sorted names of its program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The symbol's rank, for indexing per-symbol tables.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// The sorted, deduplicated names of one program.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    /// Every name, concatenated in sorted order.
    text: String,
    /// The end offset of each name in `text`.
    ends: Vec<u32>,
}

impl Symbols {
    /// Intern every name of `program`.
    #[must_use]
    pub fn of(program: &Program) -> Self {
        let mut names = vec![""];
        collect(&program.items, &mut names);
        names.sort_unstable();
        names.dedup();
        let mut text = String::with_capacity(names.iter().map(|n| n.len()).sum());
        let mut ends = Vec::with_capacity(names.len());
        for name in names {
            text.push_str(name);
            ends.push(u32::try_from(text.len()).expect("a program's names fit in 4 GiB"));
        }
        Self { text, ends }
    }

    /// The symbol of `name`, if the program mentions it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Sym> {
        let (mut lo, mut hi) = (0, self.ends.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.at(mid).cmp(name) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(Sym(mid as u32)),
            }
        }
        None
    }

    /// The symbol of a name the program mentions.
    pub(crate) fn sym(&self, name: &str) -> Sym {
        self.get(name).expect("every name of the program is interned")
    }

    /// The name of `sym`.
    #[must_use]
    pub fn name(&self, sym: Sym) -> &str {
        self.at(sym.0 as usize)
    }

    /// How many names the program has.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Every symbol, in name order.
    pub fn iter(&self) -> impl Iterator<Item = Sym> {
        (0..self.ends.len() as u32).map(Sym)
    }

    fn at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }
}

/// Every name under `items`.
fn collect<'p>(items: &'p [Item], out: &mut Vec<&'p str>) {
    for item in items {
        match item {
            Item::Assign(a) => {
                out.push(&a.target.name);
                a.expr.each_var(&mut |id| out.push(&id.name));
            }
            Item::Loop(l) => {
                out.push(&l.var.name);
                collect(&l.body, out);
            }
            Item::Region(r) => {
                if let Some(name) = &r.name {
                    out.push(&name.name);
                }
                for clause in &r.clauses {
                    match clause {
                        Clause::Shared(ids) | Clause::Private(ids) | Clause::FirstPrivate(ids) => {
                            out.extend(ids.iter().map(|id| id.name.as_str()));
                        }
                        Clause::Reduction { var, .. } => out.push(&var.name),
                        Clause::Schedule(_) | Clause::NumThreads(_) | Clause::NoWait => {}
                    }
                }
                collect(&r.body, out);
            }
        }
    }
}

/// A set of symbols: a bitset over the first 64, a sorted list past
/// them. Iteration is in symbol (so name) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct NameSet {
    bits: u64,
    spill: Vec<Sym>,
}

impl NameSet {
    /// Add `sym`.
    pub fn insert(&mut self, sym: Sym) {
        if sym.0 < 64 {
            self.bits |= 1 << sym.0;
        } else if let Err(at) = self.spill.binary_search(&sym) {
            self.spill.insert(at, sym);
        }
    }

    /// Is `sym` present?
    #[must_use]
    pub fn contains(&self, sym: Sym) -> bool {
        if sym.0 < 64 {
            self.bits & (1 << sym.0) != 0
        } else {
            self.spill.binary_search(&sym).is_ok()
        }
    }

    /// The members, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = Sym> + '_ {
        let bits = self.bits;
        (0..64).filter(move |i| bits & (1 << i) != 0).map(Sym).chain(self.spill.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn symbols_number_names_in_sorted_order() {
        let prog = parse(
            "//#omp parallel private(zeta) shared(mid)\n{\n    //#omp critical alpha\n    {\n        beta = zeta + mid;\n    }\n}\n",
        )
        .unwrap();
        let syms = Symbols::of(&prog);
        let names: Vec<&str> = syms.iter().map(|s| syms.name(s)).collect();
        assert_eq!(names, ["", "alpha", "beta", "mid", "zeta"]);
        assert!(syms.sym("alpha") < syms.sym("beta"));
        assert_eq!(syms.get("missing"), None);
    }

    #[test]
    fn name_sets_spill_past_64_and_iterate_in_order() {
        let mut set = NameSet::default();
        for i in [70, 3, 64, 3, 0, 70] {
            set.insert(Sym(i));
        }
        assert!(set.contains(Sym(64)) && set.contains(Sym(0)) && !set.contains(Sym(65)));
        assert_eq!(set.iter().collect::<Vec<_>>(), [Sym(0), Sym(3), Sym(64), Sym(70)]);
    }
}
