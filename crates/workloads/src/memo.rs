//! The process-wide memo behind every generator table that sweeps rebuild
//! identically: Zipf CDFs and permutations, CacheLib heap layouts and GAP
//! graphs. Each is deterministic in its key, so a cached value is the very
//! value a fresh build would produce.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, OnceLock};

/// One memo table; declare it as a `static` beside the builder it serves.
pub(crate) type Memo<K, T> = OnceLock<Mutex<HashMap<K, T>>>;

/// The value memoized under `key`, built by `build` on a miss. `T` should
/// be cheap to clone (an `Arc`, or a struct of them). The build runs outside
/// the lock, so sweep threads never wait on each other's builds; racing
/// builds are identical and the first insert wins.
pub(crate) fn memoized<K: Eq + Hash, T: Clone>(
    memo: &Memo<K, T>,
    key: K,
    build: impl FnOnce() -> T,
) -> T {
    let memo = memo.get_or_init(Default::default);
    if let Some(v) = memo.lock().expect("memo poisoned").get(&key) {
        return v.clone();
    }
    let v = build();
    memo.lock()
        .expect("memo poisoned")
        .entry(key)
        .or_insert(v)
        .clone()
}
