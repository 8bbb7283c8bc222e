//! Disjoint-set forest with path halving and union by size.
//!
//! GraphFromFasta's second phase turns the harvested weld pairs into
//! connected components of Inchworm contigs; this is the clustering
//! structure it uses.

/// Union-find over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "UnionFind supports up to u32::MAX elements"
        );
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets (one root each).
    #[cfg(test)]
    fn component_count(&self) -> usize {
        (0..self.len())
            .filter(|&x| self.parent[x] == x as u32)
            .count()
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x as usize
    }

    /// Merge the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of `x`'s set.
    #[cfg(test)]
    fn set_size(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r] as usize
    }

    /// Group element ids by component, assigning dense component ids in
    /// order of each component's smallest element. Returns
    /// `(component_of_element, members_per_component)`.
    pub fn into_components(mut self) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = self.len();
        let mut comp_of_root = vec![usize::MAX; n];
        let mut comp_of = vec![0usize; n];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (x, slot) in comp_of.iter_mut().enumerate() {
            let r = self.find(x);
            let c = if comp_of_root[r] == usize::MAX {
                let c = members.len();
                comp_of_root[r] = c;
                members.push(Vec::new());
                c
            } else {
                comp_of_root[r]
            };
            *slot = c;
            members[c].push(x);
        }
        (comp_of, members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.set_size(i), 1);
        }
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0)); // already merged
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.set_size(1), 2);
    }

    #[test]
    fn transitive() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 2);
        assert!(uf.same(0, 3));
        assert_eq!(uf.set_size(0), 4);
        assert_eq!(uf.component_count(), 3); // {0,1,2,3},{4},{5}
    }

    #[test]
    fn chain_path_compression() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert_eq!(uf.set_size(0), n);
        assert!(uf.same(0, n - 1));
    }

    #[test]
    fn components_are_dense_and_ordered() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 5);
        uf.union(1, 3);
        let (comp_of, members) = uf.into_components();
        // Components numbered by smallest member: {0}=0, {1,3}=1, {2}=2, {4,5}=3
        assert_eq!(comp_of, vec![0, 1, 2, 1, 3, 3]);
        assert_eq!(members, vec![vec![0], vec![1, 3], vec![2], vec![4, 5]]);
    }

    #[test]
    fn empty() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
        let (c, m) = uf.into_components();
        assert!(c.is_empty() && m.is_empty());
    }
}
