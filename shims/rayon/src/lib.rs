//! Dependency-free stand-in for the `rayon` data-parallelism crate.
//!
//! The build environment cannot reach a crates.io mirror, so the
//! workspace vendors the API subset it uses: `par_iter()` /
//! `into_par_iter()` → [`ParallelIterator::map`] →
//! [`ParallelIterator::collect`], plus [`join`].
//!
//! Execution model: no work-stealing pool. A parallel map materialises
//! its input, splits it into one contiguous chunk per available core,
//! and runs the chunks on scoped OS threads ([`std::thread::scope`]),
//! reassembling results **in input order** — callers observe the same
//! ordering guarantees as rayon's indexed `collect`. On a single-core
//! host (or for single-element inputs) it degrades to a plain
//! sequential map with zero thread overhead, which keeps results
//! bit-identical across machines.

#![forbid(unsafe_code)]

use std::thread;

/// One-stop import mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads a parallel stage may use.
pub fn current_num_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs both closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("joined closure panicked"))
    })
}

/// Applies `f` to every item on one thread per chunk, preserving order.
fn par_apply<T, O, F>(items: Vec<T>, f: &F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let threads = current_num_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<O>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    })
}

/// An eager, order-preserving parallel iterator.
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Evaluates the pipeline, returning items in input order.
    fn drive(self) -> Vec<Self::Item>;

    /// Maps every item through `f`; the map runs in parallel when the
    /// pipeline is driven.
    fn map<O, F>(self, f: F) -> Map<Self, F>
    where
        O: Send,
        F: Fn(Self::Item) -> O + Sync,
    {
        Map { base: self, f }
    }

    /// Collects the evaluated pipeline into `C`, preserving order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Runs `f` on every item (in parallel) for its side effects.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        par_apply(self.drive(), &|item| f(item));
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S, O, F> ParallelIterator for Map<S, F>
where
    S: ParallelIterator,
    O: Send,
    F: Fn(S::Item) -> O + Sync,
{
    type Item = O;
    fn drive(self) -> Vec<O> {
        par_apply(self.base.drive(), &self.f)
    }
}

/// A materialised sequence acting as the pipeline source.
pub struct VecPar<T>(Vec<T>);

impl<T: Send> ParallelIterator for VecPar<T> {
    type Item = T;
    fn drive(self) -> Vec<T> {
        self.0
    }
}

/// Types convertible into an owning parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// The produced pipeline source.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecPar<T>;
    fn into_par_iter(self) -> VecPar<T> {
        VecPar(self)
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = VecPar<usize>;
    fn into_par_iter(self) -> VecPar<usize> {
        VecPar(self.collect())
    }
}

/// Types whose references can be iterated in parallel.
pub trait IntoParallelRefIterator<'a> {
    /// The element type (a reference).
    type Item: Send + 'a;
    /// The produced pipeline source.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing conversion.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = VecPar<&'a T>;
    fn par_iter(&'a self) -> VecPar<&'a T> {
        VecPar(self.iter().collect())
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = VecPar<&'a T>;
    fn par_iter(&'a self) -> VecPar<&'a T> {
        VecPar(self.iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
        let owned: Vec<String> = input.into_par_iter().map(|x| x.to_string()).collect();
        assert_eq!(owned[42], "42");
        assert_eq!(owned.len(), 1000);
    }

    #[test]
    fn chained_maps_compose() {
        let out: Vec<usize> = (0..100usize)
            .into_par_iter()
            .map(|x| x + 1)
            .map(|x| x * 3)
            .collect();
        assert_eq!(out, (0..100).map(|x| (x + 1) * 3).collect::<Vec<usize>>());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 6 * 7, || "qasom");
        assert_eq!((a, b), (42, "qasom"));
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }
}
