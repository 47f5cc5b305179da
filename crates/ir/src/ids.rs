//! Index newtypes and a typed index vector.
//!
//! Every entity in the IR (function, block, variable, object, ...) is
//! addressed by a small `u32` newtype. [`IdxVec`] is a thin wrapper over
//! `Vec` indexed by such a newtype, which keeps cross-entity indexing
//! mistakes out of the compiler-style code in the rest of the workspace.

use std::fmt;
use std::marker::PhantomData;

/// A typed index: a `u32` wrapper convertible to and from `usize`.
pub trait Idx: Copy + Eq + std::hash::Hash + fmt::Debug + 'static {
    /// Builds the index from a raw `usize`.
    fn from_usize(i: usize) -> Self;
    /// Returns the raw `usize` value of the index.
    fn index(self) -> usize;
}

/// Declares one or more `u32` index newtypes implementing [`Idx`].
#[macro_export]
macro_rules! new_id {
    ($(#[$meta:meta])* $vis:vis struct $name:ident = $prefix:literal; $($rest:tt)*) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(pub u32);

        impl $crate::ids::Idx for $name {
            #[inline]
            fn from_usize(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                $name(i as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        $crate::new_id!($($rest)*);
    };
    () => {};
}

/// A `Vec` indexed by an [`Idx`] newtype.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IdxVec<I: Idx, T> {
    raw: Vec<T>,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx, T> IdxVec<I, T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        IdxVec {
            raw: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates a vector with `n` copies of `value`.
    pub fn from_elem(value: T, n: usize) -> Self
    where
        T: Clone,
    {
        IdxVec {
            raw: vec![value; n],
            _marker: PhantomData,
        }
    }

    /// Wraps an existing `Vec`.
    pub fn from_raw(raw: Vec<T>) -> Self {
        IdxVec {
            raw,
            _marker: PhantomData,
        }
    }

    /// Appends `value` and returns its index.
    pub fn push(&mut self, value: T) -> I {
        let id = I::from_usize(self.raw.len());
        self.raw.push(value);
        id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// The index the next `push` would return.
    pub fn next_id(&self) -> I {
        I::from_usize(self.raw.len())
    }

    /// Iterates over `(index, &element)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw
            .iter()
            .enumerate()
            .map(|(i, t)| (I::from_usize(i), t))
    }

    /// Iterates over all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len()).map(I::from_usize)
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates over elements mutably.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.raw.iter_mut()
    }

    /// Keeps only the elements whose index `keep` accepts, in order.
    pub fn retain_indices(&mut self, mut keep: impl FnMut(I) -> bool) {
        let mut i = 0;
        self.raw.retain(|_| {
            i += 1;
            keep(I::from_usize(i - 1))
        });
    }

    /// Borrow by index, if in bounds.
    pub fn get(&self, id: I) -> Option<&T> {
        self.raw.get(id.index())
    }

    /// Borrow mutably by index, if in bounds.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.raw.get_mut(id.index())
    }

    /// The underlying slice.
    pub fn raw(&self) -> &[T] {
        &self.raw
    }

    /// Removes and returns the elements from index `at` on.
    pub fn split_off(&mut self, at: usize) -> Vec<T> {
        self.raw.split_off(at)
    }

    /// Drops every element from index `len` on.
    pub fn truncate(&mut self, len: usize) {
        self.raw.truncate(len);
    }
}

impl<I: Idx, T> Default for IdxVec<I, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Idx, T> std::ops::Index<I> for IdxVec<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, id: I) -> &T {
        &self.raw[id.index()]
    }
}

impl<I: Idx, T> std::ops::IndexMut<I> for IdxVec<I, T> {
    #[inline]
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.raw[id.index()]
    }
}

impl<I: Idx, T: fmt::Debug> fmt::Debug for IdxVec<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.raw.iter()).finish()
    }
}

impl<I: Idx, T> FromIterator<T> for IdxVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        IdxVec {
            raw: Vec::from_iter(iter),
            _marker: PhantomData,
        }
    }
}

impl<'a, I: Idx, T> IntoIterator for &'a IdxVec<I, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.raw.iter()
    }
}

new_id! {
    /// A function in a [`crate::Module`].
    pub struct FuncId = "@f";
    /// A basic block within a function.
    pub struct BlockId = "bb";
    /// A virtual register (top-level variable) within a function.
    pub struct VarId = "%v";
    /// An abstract memory object (allocation site, global, or function).
    pub struct ObjId = "obj";
    /// An interned type.
    pub struct TypeId = "ty";
    /// A struct definition.
    pub struct StructId = "st";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index_round_trip() {
        let mut v: IdxVec<VarId, &str> = IdxVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a, VarId(0));
        assert_eq!(b, VarId(1));
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(format!("{}", FuncId(3)), "@f3");
        assert_eq!(format!("{}", BlockId(0)), "bb0");
        assert_eq!(format!("{}", VarId(7)), "%v7");
    }

    #[test]
    fn iter_enumerated_yields_ids_in_order() {
        let v: IdxVec<BlockId, i32> = IdxVec::from_raw(vec![10, 20]);
        let pairs: Vec<_> = v.iter_enumerated().collect();
        assert_eq!(pairs, vec![(BlockId(0), &10), (BlockId(1), &20)]);
    }

    #[test]
    fn next_id_tracks_len() {
        let mut v: IdxVec<ObjId, ()> = IdxVec::new();
        assert_eq!(v.next_id(), ObjId(0));
        v.push(());
        assert_eq!(v.next_id(), ObjId(1));
    }
}
