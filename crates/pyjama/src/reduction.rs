//! Reductions — scalar and *object-oriented*.
//!
//! OpenMP specifies "a number of reductions that may be applied on a
//! limited set of data types" (scalars with `+`, `*`, `min`, `&`, …).
//! SoftEng 751 **project 5** asked students to design the richer
//! reduction space an object-oriented language invites — "for example
//! merging collections". This module reproduces both halves:
//!
//! * scalar reductions matching OpenMP's built-in operator list
//!   ([`SumRed`], [`ProdRed`], [`MinRed`], [`MaxRed`], [`BitAndRed`],
//!   [`BitOrRed`], [`BitXorRed`], [`AndRed`], [`OrRed`]);
//! * object-oriented reductions over collections ([`VecConcat`],
//!   [`SetUnion`], [`MapMerge`], [`TopK`]) and a fully custom
//!   [`FnReduction`].
//!
//! A [`Reduction`] must be **associative** with a left/right identity;
//! combining order across threads is unspecified, so non-commutative
//! reductions are only deterministic per-thread-count when the
//! schedule is deterministic too (pyjama combines partials in thread
//! order, which keeps `VecConcat` under `Schedule::Static` fully
//! deterministic — the property tests pin this down).

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::marker::PhantomData;

/// An associative combine with identity, used by
/// [`crate::Ctx::pfor_reduce`].
pub trait Reduction<T> {
    /// The identity element (`0` for `+`, empty vec for concat, …).
    fn identity(&self) -> T;
    /// Combine two partial results. Must be associative, with
    /// [`Reduction::identity`] as identity.
    fn combine(&self, a: T, b: T) -> T;
    /// Fold one mapped item into an accumulator. Defaults to
    /// `combine`; collections override it to avoid quadratic rebuilds.
    fn fold(&self, acc: T, item: T) -> T {
        self.combine(acc, item)
    }
}

// ---------------------------------------------------------------------
// Scalar reductions (the OpenMP built-in set)
// ---------------------------------------------------------------------

/// `reduction(+)` — addition.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumRed;

/// `reduction(*)` — multiplication.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProdRed;

/// `reduction(min)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinRed;

/// `reduction(max)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxRed;

/// `reduction(&)` — bitwise and.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitAndRed;

/// `reduction(|)` — bitwise or.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitOrRed;

/// `reduction(^)` — bitwise xor.
#[derive(Clone, Copy, Debug, Default)]
pub struct BitXorRed;

/// `reduction(&&)` — logical and.
#[derive(Clone, Copy, Debug, Default)]
pub struct AndRed;

/// `reduction(||)` — logical or.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrRed;

macro_rules! impl_arith_reductions {
    ($($ty:ty),*) => {$(
        impl Reduction<$ty> for SumRed {
            fn identity(&self) -> $ty { 0 as $ty }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a + b }
        }
        impl Reduction<$ty> for ProdRed {
            fn identity(&self) -> $ty { 1 as $ty }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a * b }
        }
    )*};
}

impl_arith_reductions!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_int_minmax {
    ($($ty:ty),*) => {$(
        impl Reduction<$ty> for MinRed {
            fn identity(&self) -> $ty { <$ty>::MAX }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a.min(b) }
        }
        impl Reduction<$ty> for MaxRed {
            fn identity(&self) -> $ty { <$ty>::MIN }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a.max(b) }
        }
    )*};
}

impl_int_minmax!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Reduction<f64> for MinRed {
    fn identity(&self) -> f64 {
        f64::INFINITY
    }
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
}

impl Reduction<f64> for MaxRed {
    fn identity(&self) -> f64 {
        f64::NEG_INFINITY
    }
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }
}

impl Reduction<f32> for MinRed {
    fn identity(&self) -> f32 {
        f32::INFINITY
    }
    fn combine(&self, a: f32, b: f32) -> f32 {
        a.min(b)
    }
}

impl Reduction<f32> for MaxRed {
    fn identity(&self) -> f32 {
        f32::NEG_INFINITY
    }
    fn combine(&self, a: f32, b: f32) -> f32 {
        a.max(b)
    }
}

macro_rules! impl_bitwise {
    ($($ty:ty),*) => {$(
        impl Reduction<$ty> for BitAndRed {
            fn identity(&self) -> $ty { !0 }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a & b }
        }
        impl Reduction<$ty> for BitOrRed {
            fn identity(&self) -> $ty { 0 }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a | b }
        }
        impl Reduction<$ty> for BitXorRed {
            fn identity(&self) -> $ty { 0 }
            fn combine(&self, a: $ty, b: $ty) -> $ty { a ^ b }
        }
    )*};
}

impl_bitwise!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Reduction<bool> for AndRed {
    fn identity(&self) -> bool {
        true
    }
    fn combine(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

impl Reduction<bool> for OrRed {
    fn identity(&self) -> bool {
        false
    }
    fn combine(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

// ---------------------------------------------------------------------
// Object-oriented reductions (project 5)
// ---------------------------------------------------------------------

/// Concatenate `Vec`s. With `Schedule::Static` the combined order is
/// the sequential order (partials are combined in thread order and
/// static blocks are contiguous).
#[derive(Clone, Copy, Debug, Default)]
pub struct VecConcat<T>(PhantomData<T>);

impl<T> VecConcat<T> {
    /// New concat reduction.
    #[must_use]
    pub fn new() -> Self {
        VecConcat(PhantomData)
    }
}

impl<T> Reduction<Vec<T>> for VecConcat<T> {
    fn identity(&self) -> Vec<T> {
        Vec::new()
    }
    fn combine(&self, mut a: Vec<T>, mut b: Vec<T>) -> Vec<T> {
        if a.is_empty() {
            return b;
        }
        a.append(&mut b);
        a
    }
}

/// Union of `HashSet`s.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetUnion<T>(PhantomData<T>);

impl<T> SetUnion<T> {
    /// New set-union reduction.
    #[must_use]
    pub fn new() -> Self {
        SetUnion(PhantomData)
    }
}

impl<T: Eq + Hash> Reduction<HashSet<T>> for SetUnion<T> {
    fn identity(&self) -> HashSet<T> {
        HashSet::new()
    }
    fn combine(&self, mut a: HashSet<T>, b: HashSet<T>) -> HashSet<T> {
        if a.len() < b.len() {
            return self.combine(b, a);
        }
        a.extend(b);
        a
    }
}

/// Merge `HashMap`s, combining values for duplicate keys with a
/// user-supplied associative function (e.g. `+` for word counts).
#[derive(Clone, Debug)]
pub struct MapMerge<K, V, F> {
    merge: F,
    _marker: PhantomData<(K, V)>,
}

impl<K, V, F> MapMerge<K, V, F>
where
    F: Fn(V, V) -> V,
{
    /// New map-merge reduction with the given value combiner.
    pub fn new(merge: F) -> Self {
        Self {
            merge,
            _marker: PhantomData,
        }
    }
}

impl<K: Eq + Hash, V, F: Fn(V, V) -> V> Reduction<HashMap<K, V>> for MapMerge<K, V, F> {
    fn identity(&self) -> HashMap<K, V> {
        HashMap::new()
    }
    fn combine(&self, mut a: HashMap<K, V>, b: HashMap<K, V>) -> HashMap<K, V> {
        for (k, v) in b {
            match a.remove(&k) {
                Some(existing) => {
                    a.insert(k, (self.merge)(existing, v));
                }
                None => {
                    a.insert(k, v);
                }
            }
        }
        a
    }
}

/// Keep the `k` largest elements (sorted descending). The partial
/// results are `Vec<T>` of length ≤ `k`, so combining stays cheap
/// regardless of input size.
#[derive(Clone, Copy, Debug)]
pub struct TopK {
    k: usize,
}

impl TopK {
    /// Keep the `k` largest items.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k needs k >= 1");
        Self { k }
    }
}

impl<T: Ord> Reduction<Vec<T>> for TopK {
    fn identity(&self) -> Vec<T> {
        Vec::new()
    }
    fn combine(&self, mut a: Vec<T>, b: Vec<T>) -> Vec<T> {
        a.extend(b);
        a.sort_unstable_by(|x, y| y.cmp(x));
        a.truncate(self.k);
        a
    }
}

/// A reduction defined by two closures — the fully custom escape
/// hatch project 5 motivates.
#[derive(Clone, Debug)]
pub struct FnReduction<T, I, C> {
    identity: I,
    combine: C,
    _marker: PhantomData<T>,
}

impl<T, I, C> FnReduction<T, I, C>
where
    I: Fn() -> T,
    C: Fn(T, T) -> T,
{
    /// Build a reduction from an identity constructor and an
    /// associative combine.
    pub fn new(identity: I, combine: C) -> Self {
        Self {
            identity,
            combine,
            _marker: PhantomData,
        }
    }
}

impl<T, I: Fn() -> T, C: Fn(T, T) -> T> Reduction<T> for FnReduction<T, I, C> {
    fn identity(&self) -> T {
        (self.identity)()
    }
    fn combine(&self, a: T, b: T) -> T {
        (self.combine)(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduce_all<T, R: Reduction<T>>(red: &R, items: Vec<T>) -> T {
        items
            .into_iter()
            .fold(red.identity(), |acc, x| red.fold(acc, x))
    }

    #[test]
    fn sum_and_prod_scalars() {
        assert_eq!(reduce_all(&SumRed, vec![1u64, 2, 3, 4]), 10);
        assert_eq!(reduce_all(&ProdRed, vec![1u64, 2, 3, 4]), 24);
        assert!((reduce_all(&SumRed, vec![0.5f64, 0.25]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_max_identities() {
        assert_eq!(reduce_all(&MinRed, Vec::<i64>::new()), i64::MAX);
        assert_eq!(reduce_all(&MaxRed, Vec::<i64>::new()), i64::MIN);
        assert_eq!(reduce_all(&MinRed, vec![3i64, -2, 7]), -2);
        assert_eq!(reduce_all(&MaxRed, vec![3i64, -2, 7]), 7);
        assert_eq!(reduce_all(&MinRed, vec![2.5f64, 1.5]), 1.5);
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(reduce_all(&BitAndRed, vec![0b1110u8, 0b0111]), 0b0110);
        assert_eq!(reduce_all(&BitOrRed, vec![0b1000u8, 0b0001]), 0b1001);
        assert_eq!(reduce_all(&BitXorRed, vec![0b1100u8, 0b1010]), 0b0110);
    }

    #[test]
    fn logical_ops() {
        assert!(reduce_all(&AndRed, vec![true, true]));
        assert!(!reduce_all(&AndRed, vec![true, false]));
        assert!(reduce_all(&OrRed, vec![false, true]));
        assert!(!reduce_all(&OrRed, Vec::new()));
    }

    #[test]
    fn vec_concat_preserves_order() {
        let red = VecConcat::new();
        let combined = red.combine(vec![1, 2], red.combine(vec![3], vec![4, 5]));
        assert_eq!(combined, vec![1, 2, 3, 4, 5]);
        assert!(Reduction::<Vec<i32>>::identity(&red).is_empty());
    }

    #[test]
    fn set_union_dedups() {
        let red = SetUnion::new();
        let a: HashSet<_> = [1, 2, 3].into_iter().collect();
        let b: HashSet<_> = [3, 4].into_iter().collect();
        let u = red.combine(a, b);
        assert_eq!(u.len(), 4);
    }

    #[test]
    fn map_merge_combines_values() {
        let red = MapMerge::new(|a: u32, b: u32| a + b);
        let a: HashMap<_, _> = [("x", 1u32), ("y", 2)].into_iter().collect();
        let b: HashMap<_, _> = [("y", 10u32), ("z", 3)].into_iter().collect();
        let m = red.combine(a, b);
        assert_eq!(m["x"], 1);
        assert_eq!(m["y"], 12);
        assert_eq!(m["z"], 3);
    }

    #[test]
    fn top_k_keeps_largest_sorted() {
        let red = TopK::new(3);
        let out = red.combine(vec![5, 1, 9], vec![7, 2, 8, 100]);
        assert_eq!(out, vec![100, 9, 8]);
    }

    #[test]
    fn top_k_associativity_on_sample() {
        let red = TopK::new(2);
        let (a, b, c) = (vec![5, 3], vec![9], vec![1, 7]);
        let left = red.combine(red.combine(a.clone(), b.clone()), c.clone());
        let right = red.combine(a, red.combine(b, c));
        assert_eq!(left, right);
    }

    #[test]
    fn fn_reduction_custom() {
        // String concat with separator handling as a custom reduction.
        let red = FnReduction::new(String::new, |a: String, b: String| {
            if a.is_empty() {
                b
            } else if b.is_empty() {
                a
            } else {
                format!("{a},{b}")
            }
        });
        let joined = reduce_all(
            &red,
            vec!["a".to_string(), "b".to_string(), "c".to_string()],
        );
        assert_eq!(joined, "a,b,c");
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn top_k_zero_rejected() {
        let _ = TopK::new(0);
    }
}
