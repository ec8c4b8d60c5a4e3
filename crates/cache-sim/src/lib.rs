//! Set-associative cache simulation for tiering-overhead attribution.
//!
//! The HybridTier paper (§2.3.3, §6.3.3, Figures 5/13/14) measures how many
//! L1 and LLC cache misses are caused by *tiering metadata updates* as
//! opposed to the application itself. On real hardware this is done with
//! `perf` attribution per thread; here we replay both the application's
//! memory references and the tiering policy's metadata references through a
//! simulated two-level cache hierarchy and attribute every hit/miss to its
//! [`Source`].
//!
//! The model is deliberately simple — physically indexed, true-LRU,
//! non-inclusive levels — because the figures under study compare *relative*
//! locality of metadata layouts (page-table walk vs. hash table vs. standard
//! CBF vs. blocked CBF), which a basic LRU hierarchy captures faithfully.
//!
//! Every metadata line a policy touches is replayed through this model, so
//! its cost per reference is a first-order term of what a simulated access
//! costs the host. A level ([`SetAssocCache`]) therefore keeps each set's
//! ways in recency order — way 0 the most recently used line, the last way
//! the victim — instead of a timestamp per way: the order is the LRU state
//! (a hit moves the line to the front, a miss pushes the last way out), a
//! lookup compares as many tags as the line's recency depth, and a level is
//! one array of tags. The timestamp scheme it replaced, under which only
//! empty ways ever tie and which empty way a fill lands in is unobservable,
//! produces the same hit/miss sequence; it is the tests' differential
//! oracle.
//!
//! A policy's metadata lines are replayed in one call,
//! [`CacheHierarchy::access_all`], which settles a repeat of the previous
//! line (7 of every 8 references of a pagemap walk) before any set lookup;
//! one [`CacheHierarchy::access`] per line is its test oracle.
//!
//! # Example
//!
//! ```
//! use cache_sim::{CacheConfig, CacheHierarchy, Source};
//!
//! let mut h = CacheHierarchy::new(CacheConfig::l1d(), CacheConfig::llc_scaled());
//! h.access(0x1000, Source::App);
//! h.access(0x1000, Source::App); // second touch hits L1
//! let stats = h.stats();
//! assert_eq!(stats.l1.by(Source::App).misses, 1);
//! assert_eq!(stats.l1.by(Source::App).hits, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod hierarchy;
#[cfg(test)]
mod oracle;

pub use cache::{CacheConfig, SetAssocCache};
pub use hierarchy::{CacheHierarchy, HierarchyStats, HitLevel, LevelStats, Source, SourceStats};
