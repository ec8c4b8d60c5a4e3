//! Augmented order-statistics treap over `(demand, slot)` keys.
//!
//! The global controller's apportioner keeps every live tenant's clamped
//! demand in one of these: a balanced
//! search tree ordered by `(demand, slot)` where each node carries its
//! subtree's element count and demand sum. That augmentation answers, in
//! `O(log n)` per query, exactly the order statistics the three built-in
//! quota objectives need:
//!
//! * `first`/`last` — the least/most hungry tenant (dust placement and the
//!   min-allocation probe);
//! * `select(k)` — the k-th smallest `(demand, slot)` key (max-min dust
//!   cutoffs);
//! * `fill_break` — the max-min progressive-filling break position, found
//!   by descending on the monotone predicate
//!   `demand(p) * (n - p) + prefix_sum(p) > amount`.
//!
//! Tree shape is a treap with priorities derived deterministically from the
//! key (SplitMix64), so equal insert/remove histories produce identical
//! trees on every platform — no RNG state, no iteration-order hazards.
//! Every mutation and order-statistic descent bumps a visit counter that
//! [`GlobalController::apportion_ops`](crate::GlobalController::apportion_ops)
//! exposes, so the sub-linearity tests can count work instead of wall time.

use std::cmp::Ordering;

/// Tree key: clamped demand first, registration slot as the tiebreak.
pub(crate) type Key = (u64, usize);

#[derive(Debug)]
struct Node {
    key: Key,
    pri: u64,
    cnt: usize,
    /// Sum of `key.0` over this subtree.
    sum: u128,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn leaf(key: Key, pri: u64) -> Box<Node> {
        Box::new(Node {
            key,
            pri,
            cnt: 1,
            sum: u128::from(key.0),
            left: None,
            right: None,
        })
    }

    /// Recomputes this node's augmentation from its children.
    fn pull(&mut self) {
        self.cnt = 1 + cnt(&self.left) + cnt(&self.right);
        self.sum = u128::from(self.key.0) + sum(&self.left) + sum(&self.right);
    }
}

fn cnt(n: &Option<Box<Node>>) -> usize {
    n.as_ref().map_or(0, |n| n.cnt)
}

fn sum(n: &Option<Box<Node>>) -> u128 {
    n.as_ref().map_or(0, |n| n.sum)
}

/// SplitMix64 — the key's deterministic treap priority.
fn priority(key: Key) -> u64 {
    let mut z = key
        .0
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((key.1 as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rotate_right(mut n: Box<Node>) -> Box<Node> {
    let mut l = n.left.take().expect("rotate_right needs a left child");
    n.left = l.right.take();
    n.pull();
    l.right = Some(n);
    l.pull();
    l
}

fn rotate_left(mut n: Box<Node>) -> Box<Node> {
    let mut r = n.right.take().expect("rotate_left needs a right child");
    n.right = r.left.take();
    n.pull();
    r.left = Some(n);
    r.pull();
    r
}

fn insert_at(node: Option<Box<Node>>, key: Key, pri: u64, visits: &mut u64) -> Box<Node> {
    *visits += 1;
    let Some(mut n) = node else {
        return Node::leaf(key, pri);
    };
    match key.cmp(&n.key) {
        Ordering::Less => {
            n.left = Some(insert_at(n.left.take(), key, pri, visits));
            if n.left.as_ref().expect("just set").pri > n.pri {
                n = rotate_right(n);
            }
        }
        Ordering::Greater => {
            n.right = Some(insert_at(n.right.take(), key, pri, visits));
            if n.right.as_ref().expect("just set").pri > n.pri {
                n = rotate_left(n);
            }
        }
        // A slot appears at most once, so duplicate keys cannot happen;
        // tolerate them as a no-op rather than corrupting the counts.
        Ordering::Equal => {}
    }
    n.pull();
    n
}

fn merge(a: Option<Box<Node>>, b: Option<Box<Node>>, visits: &mut u64) -> Option<Box<Node>> {
    *visits += 1;
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut a), Some(mut b)) => {
            if a.pri >= b.pri {
                a.right = merge(a.right.take(), Some(b), visits);
                a.pull();
                Some(a)
            } else {
                b.left = merge(Some(a), b.left.take(), visits);
                b.pull();
                Some(b)
            }
        }
    }
}

fn remove_at(
    node: Option<Box<Node>>,
    key: Key,
    visits: &mut u64,
    removed: &mut bool,
) -> Option<Box<Node>> {
    *visits += 1;
    let mut n = node?;
    match key.cmp(&n.key) {
        Ordering::Less => n.left = remove_at(n.left.take(), key, visits, removed),
        Ordering::Greater => n.right = remove_at(n.right.take(), key, visits, removed),
        Ordering::Equal => {
            *removed = true;
            return merge(n.left.take(), n.right.take(), visits);
        }
    }
    n.pull();
    Some(n)
}

/// The augmented treap. See the module docs for the operation inventory.
#[derive(Debug, Default)]
pub(crate) struct OsTree {
    root: Option<Box<Node>>,
    visits: u64,
}

impl OsTree {
    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        cnt(&self.root)
    }

    /// Sum of all demands.
    pub(crate) fn sum(&self) -> u128 {
        sum(&self.root)
    }

    /// Nodes touched by mutations and order-statistic descents so far —
    /// the work meter behind `GlobalController::apportion_ops`.
    pub(crate) fn visits(&self) -> u64 {
        self.visits
    }

    pub(crate) fn insert(&mut self, key: Key) {
        let pri = priority(key);
        self.root = Some(insert_at(self.root.take(), key, pri, &mut self.visits));
    }

    /// Removes the key; returns whether it was present.
    pub(crate) fn remove(&mut self, key: Key) -> bool {
        let mut removed = false;
        self.root = remove_at(self.root.take(), key, &mut self.visits, &mut removed);
        removed
    }

    /// The smallest `(demand, slot)` key.
    pub(crate) fn first(&self) -> Option<Key> {
        let mut cur = self.root.as_deref()?;
        while let Some(l) = cur.left.as_deref() {
            cur = l;
        }
        Some(cur.key)
    }

    /// The largest `(demand, slot)` key.
    pub(crate) fn last(&self) -> Option<Key> {
        let mut cur = self.root.as_deref()?;
        while let Some(r) = cur.right.as_deref() {
            cur = r;
        }
        Some(cur.key)
    }

    /// The k-th smallest key (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub(crate) fn select(&mut self, mut k: usize) -> Key {
        assert!(k < self.len(), "select({k}) beyond {} keys", self.len());
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            self.visits += 1;
            let lc = cnt(&n.left);
            match k.cmp(&lc) {
                Ordering::Less => cur = n.left.as_deref(),
                Ordering::Equal => return n.key,
                Ordering::Greater => {
                    k -= lc + 1;
                    cur = n.right.as_deref();
                }
            }
        }
        unreachable!("select bounds checked above")
    }

    /// Max-min progressive-filling break: the first ascending position `p`
    /// where `demand(p) * (len - p) + prefix_sum(p) > amount` — i.e. the
    /// first tenant the rising water level no longer fully satisfies.
    /// Returns `(p, prefix_sum(p), demand(p))`, or `None` when every tenant
    /// is satisfiable (`amount >= sum()`). The predicate is monotone in `p`
    /// (its finite difference is `(d[p+1] - d[p]) * (len - p - 1) >= 0`),
    /// so one root-to-leaf descent finds it.
    pub(crate) fn fill_break(&mut self, amount: u128) -> Option<(usize, u128, u64)> {
        let m = self.len() as u128;
        let mut acc_cnt = 0u128;
        let mut acc_sum = 0u128;
        let mut best: Option<(usize, u128, u64)> = None;
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            self.visits += 1;
            let pos = acc_cnt + cnt(&n.left) as u128;
            let pref = acc_sum + sum(&n.left);
            if u128::from(n.key.0) * (m - pos) + pref > amount {
                best = Some((pos as usize, pref, n.key.0));
                cur = n.left.as_deref();
            } else {
                acc_cnt = pos + 1;
                acc_sum = pref + u128::from(n.key.0);
                cur = n.right.as_deref();
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-demand stream for the reference tests.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A sorted-`Vec` reference model the tree must agree with.
    fn reference(keys: &[Key]) -> Vec<Key> {
        let mut v = keys.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn order_statistics_match_a_sorted_vec() {
        let mut tree = OsTree::default();
        let mut keys = Vec::new();
        for slot in 0..200usize {
            let d = mix(slot as u64) % 37 + 1; // dense values: many ties
            tree.insert((d, slot));
            keys.push((d, slot));
        }
        // Remove a deterministic third of them.
        for slot in (0..200usize).step_by(3) {
            let key = keys.iter().copied().find(|k| k.1 == slot).unwrap();
            assert!(tree.remove(key));
            keys.retain(|k| k.1 != slot);
        }
        let sorted = reference(&keys);
        assert_eq!(tree.len(), sorted.len());
        assert_eq!(
            tree.sum(),
            sorted.iter().map(|k| u128::from(k.0)).sum::<u128>()
        );
        assert_eq!(tree.first(), sorted.first().copied());
        assert_eq!(tree.last(), sorted.last().copied());
        for (k, &want) in sorted.iter().enumerate() {
            assert_eq!(tree.select(k), want, "select({k})");
        }
    }

    #[test]
    fn fill_break_matches_linear_scan() {
        let mut tree = OsTree::default();
        let mut keys = Vec::new();
        for slot in 0..64usize {
            let d = mix(slot as u64 ^ 0xabcd) % 1_000 + 1;
            tree.insert((d, slot));
            keys.push((d, slot));
        }
        let sorted = reference(&keys);
        let m = sorted.len();
        let total: u128 = tree.sum();
        for amount in [0u128, 1, 500, 5_000, total - 1] {
            let want = (0..m)
                .scan(0u128, |pref, p| {
                    let here = *pref;
                    *pref += u128::from(sorted[p].0);
                    Some((p, here, sorted[p].0))
                })
                .find(|&(p, pref, d)| u128::from(d) * (m - p) as u128 + pref > amount);
            assert_eq!(tree.fill_break(amount), want, "amount {amount}");
        }
        assert_eq!(tree.fill_break(total), None, "fully satisfiable");
    }

    #[test]
    fn shape_is_deterministic_and_visits_count_work() {
        let build = || {
            let mut tree = OsTree::default();
            for slot in 0..500usize {
                tree.insert((mix(slot as u64) % 1_000 + 1, slot));
            }
            for slot in (0..500usize).step_by(2) {
                tree.remove((mix(slot as u64) % 1_000 + 1, slot));
            }
            tree
        };
        let (mut a, mut b) = (build(), build());
        assert_eq!(
            a.visits(),
            b.visits(),
            "identical histories, identical work"
        );
        for k in 0..a.len() {
            assert_eq!(a.select(k), b.select(k));
        }
        // Work stays logarithmic-ish: 750 mutations over ≤500 keys should
        // visit far fewer than 750 * 500 nodes.
        assert!(a.visits() < 750 * 64, "visits {} too high", a.visits());
    }
}
