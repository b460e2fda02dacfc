//! Canonical property sets — the common representation of queries and
//! classifiers.
//!
//! A [`PropSet`] is an immutable, sorted, duplicate-free sequence of
//! [`PropId`]s. Sortedness makes subset tests linear merges, `Eq`/`Hash`
//! structural, and the ordering total (lexicographic), which keeps every
//! algorithm in the workspace deterministic.

use crate::prop::PropId;
use std::borrow::Borrow;
use std::fmt;

/// A query `q ⊆ P`: the set of properties a conjunctive search query tests.
pub type Query = PropSet;

/// A binary classifier: a non-empty property subset whose conjunction the
/// classifier decides.
pub type Classifier = PropSet;

/// An immutable, canonically sorted set of properties.
///
/// # Example
///
/// ```
/// use mc3_core::{PropId, PropSet};
///
/// let a = PropSet::from_ids([3u32, 1, 2, 1]);
/// assert_eq!(a.len(), 3); // duplicates removed
/// let b = PropSet::from_ids([1u32, 2]);
/// assert!(b.is_subset_of(&a));
/// assert_eq!(a.union(&b), a);
/// assert!(a.contains(PropId(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropSet(Box<[PropId]>);

impl PropSet {
    /// The empty set.
    pub fn empty() -> Self {
        PropSet(Box::new([]))
    }

    /// A singleton set.
    pub fn singleton(p: PropId) -> Self {
        PropSet(Box::new([p]))
    }

    /// Builds a set from any iterator of ids, sorting and deduplicating.
    pub fn from_ids<I, T>(ids: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<PropId>,
    {
        let mut v: Vec<PropId> = ids.into_iter().map(Into::into).collect();
        v.sort_unstable();
        v.dedup();
        PropSet(v.into_boxed_slice())
    }

    /// Builds a set from a vector that is **already sorted and
    /// duplicate-free**; debug-asserts canonicity.
    pub fn from_sorted(v: Vec<PropId>) -> Self {
        debug_assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "PropSet input not canonical"
        );
        PropSet(v.into_boxed_slice())
    }

    /// Number of properties (the classifier/query *length* of the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the set is a singleton (length 1).
    #[inline]
    pub fn is_singleton(&self) -> bool {
        self.0.len() == 1
    }

    /// Sorted slice of members.
    #[inline]
    pub fn ids(&self) -> &[PropId] {
        &self.0
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PropId> + '_ {
        self.0.iter().copied()
    }

    /// Membership test (binary search).
    pub fn contains(&self, p: PropId) -> bool {
        self.0.binary_search(&p).is_ok()
    }

    /// Whether `self ⊆ other` (linear merge).
    pub fn is_subset_of(&self, other: &PropSet) -> bool {
        if self.0.len() > other.0.len() {
            return false;
        }
        let mut it = other.0.iter();
        'outer: for p in self.0.iter() {
            for q in it.by_ref() {
                match q.cmp(p) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Whether the two sets share at least one property.
    pub fn intersects(&self, other: &PropSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Set union (sorted merge).
    pub fn union(&self, other: &PropSet) -> PropSet {
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        PropSet(out.into_boxed_slice())
    }

    /// Set difference `self \ other` (sorted merge).
    pub fn difference(&self, other: &PropSet) -> PropSet {
        let mut out = Vec::with_capacity(self.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() {
            if j >= other.0.len() {
                out.extend_from_slice(&self.0[i..]);
                break;
            }
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        PropSet(out.into_boxed_slice())
    }

    /// Set intersection (sorted merge).
    pub fn intersection(&self, other: &PropSet) -> PropSet {
        let mut out = Vec::with_capacity(self.0.len().min(other.0.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        PropSet(out.into_boxed_slice())
    }

    /// The subset of `self` selected by `mask`, where bit `i` refers to the
    /// `i`-th smallest member. Used to move between the global representation
    /// and per-query local bitmasks.
    pub fn subset_by_mask(&self, mask: u32) -> PropSet {
        debug_assert!(self.0.len() <= 32);
        let v: Vec<PropId> = self
            .0
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &p)| p)
            .collect();
        PropSet(v.into_boxed_slice())
    }

    /// The local bitmask of `other` relative to `self`, if `other ⊆ self`.
    pub fn mask_of(&self, other: &PropSet) -> Option<u32> {
        debug_assert!(self.0.len() <= 32);
        let mut mask = 0u32;
        for p in other.iter() {
            match self.0.binary_search(&p) {
                Ok(i) => mask |= 1 << i,
                Err(_) => return None,
            }
        }
        Some(mask)
    }
}

// `Hash`, `Eq` and `Ord` of a `PropSet` are those of its member slice, so
// maps keyed by `PropSet` can be probed with a borrowed `&[PropId]`.
impl Borrow<[PropId]> for PropSet {
    #[inline]
    fn borrow(&self) -> &[PropId] {
        &self.0
    }
}

impl fmt::Display for PropSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

impl<T: Into<PropId>> FromIterator<T> for PropSet {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        PropSet::from_ids(iter)
    }
}

impl From<Vec<PropId>> for PropSet {
    fn from(v: Vec<PropId>) -> Self {
        PropSet::from_ids(v)
    }
}

impl<'a> IntoIterator for &'a PropSet {
    type Item = PropId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, PropId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = ps(&[5, 1, 3, 1, 5]);
        assert_eq!(s.ids(), &[PropId(1), PropId(3), PropId(5)]);
    }

    #[test]
    fn subset_tests() {
        let big = ps(&[1, 2, 3, 4]);
        assert!(ps(&[]).is_subset_of(&big));
        assert!(ps(&[2, 4]).is_subset_of(&big));
        assert!(big.is_subset_of(&big));
        assert!(!ps(&[2, 5]).is_subset_of(&big));
        assert!(!big.is_subset_of(&ps(&[1, 2, 3])));
    }

    #[test]
    fn union_difference_intersection() {
        let a = ps(&[1, 3, 5]);
        let b = ps(&[2, 3, 6]);
        assert_eq!(a.union(&b), ps(&[1, 2, 3, 5, 6]));
        assert_eq!(a.difference(&b), ps(&[1, 5]));
        assert_eq!(a.intersection(&b), ps(&[3]));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&ps(&[2, 6])));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = ps(&[4, 7]);
        assert_eq!(a.union(&PropSet::empty()), a);
        assert_eq!(PropSet::empty().union(&a), a);
    }

    #[test]
    fn masks_roundtrip() {
        let q = ps(&[10, 20, 30, 40]);
        let c = ps(&[20, 40]);
        let mask = q.mask_of(&c).unwrap();
        assert_eq!(mask, 0b1010);
        assert_eq!(q.subset_by_mask(mask), c);
        assert_eq!(q.mask_of(&ps(&[20, 99])), None);
        assert_eq!(q.mask_of(&q), Some(0b1111));
        assert_eq!(q.subset_by_mask(0), PropSet::empty());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(ps(&[1]) < ps(&[1, 2]));
        assert!(ps(&[1, 2]) < ps(&[2]));
    }

    #[test]
    fn display_renders_ids() {
        assert_eq!(ps(&[2, 1]).to_string(), "{p1,p2}");
        assert_eq!(PropSet::empty().to_string(), "{}");
    }

    #[test]
    fn contains_uses_binary_search() {
        let s = ps(&[1, 4, 9, 16]);
        assert!(s.contains(PropId(9)));
        assert!(!s.contains(PropId(10)));
    }
}
