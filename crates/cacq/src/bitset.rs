//! Growable bitsets over query slots — the "tuple lineage" of CACQ.

/// A growable set of query-slot indexes.
///
/// Lineage travels with every tuple through the shared eddy, so the
/// representation is a dense `Vec<u64>`; operations over two sets run
/// word-at-a-time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuerySet {
    words: Vec<u64>,
}

impl QuerySet {
    /// The empty set.
    pub fn new() -> QuerySet {
        QuerySet::default()
    }

    /// A set pre-sized for `n` slots.
    pub fn with_capacity(n: usize) -> QuerySet {
        QuerySet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Insert slot `i`.
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    /// Remove slot `i`.
    pub fn remove(&mut self, i: usize) {
        let w = i / 64;
        if w < self.words.len() {
            self.words[w] &= !(1 << (i % 64));
        }
    }

    /// Whether slot `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        let w = i / 64;
        w < self.words.len() && self.words[w] & (1 << (i % 64)) != 0
    }

    /// Number of slots present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &QuerySet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &QuerySet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// The intersection of two sets.
    pub fn intersection(&self, other: &QuerySet) -> QuerySet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Overwrite `self` with `other`'s contents, reusing the allocation.
    ///
    /// (The derived `Clone::clone_from` reallocates; scratch sets on the
    /// batched hot path use this instead.)
    pub fn copy_from(&mut self, other: &QuerySet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Column-level veto: remove every slot that is in `predicated` but
    /// not in `matched`. Used by batched grouped-filter evaluation —
    /// after one column pass, a slot survives only if it has no
    /// predicate on the column or all its predicates matched.
    pub fn mask_failed(&mut self, predicated: &QuerySet, matched: &QuerySet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            let p = predicated.words.get(i).copied().unwrap_or(0);
            let m = matched.words.get(i).copied().unwrap_or(0);
            *w &= !(p & !m);
        }
    }

    /// Iterate slots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// Remove all slots.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Approximate heap bytes held.
    pub fn approx_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

impl FromIterator<usize> for QuerySet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> QuerySet {
        let mut s = QuerySet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = QuerySet::new();
        s.insert(3);
        s.insert(130);
        assert!(s.contains(3));
        assert!(s.contains(130));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        s.remove(3);
        assert!(!s.contains(3));
        s.remove(999); // out of range: no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_intersection() {
        let a: QuerySet = [1, 5, 200].into_iter().collect();
        let b: QuerySet = [5, 6].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 6, 200]);
        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn intersection_with_shorter_set_truncates() {
        let a: QuerySet = [1, 200].into_iter().collect();
        let b: QuerySet = [1].into_iter().collect();
        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![1]);
        assert!(!i.contains(200));
    }

    #[test]
    fn iter_ascending_across_words() {
        let s: QuerySet = [64, 0, 63, 128].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128]);
    }

    #[test]
    fn copy_from_reuses_and_matches() {
        let a: QuerySet = [3, 100].into_iter().collect();
        let mut b: QuerySet = [7].into_iter().collect();
        b.copy_from(&a);
        assert_eq!(b, a);
        b.copy_from(&QuerySet::new());
        assert!(b.is_empty());
    }

    #[test]
    fn mask_failed_vetoes_only_predicated_misses() {
        // Slots: 0 unpredicated, 1 predicated+matched, 2 predicated+missed.
        let mut passed: QuerySet = [0, 1, 2, 130].into_iter().collect();
        let predicated: QuerySet = [1, 2].into_iter().collect();
        let matched: QuerySet = [1].into_iter().collect();
        passed.mask_failed(&predicated, &matched);
        assert_eq!(passed.iter().collect::<Vec<_>>(), vec![0, 1, 130]);
    }

    #[test]
    fn clear_and_empty() {
        let mut s: QuerySet = [2, 70].into_iter().collect();
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
