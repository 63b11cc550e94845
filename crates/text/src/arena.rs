//! Interned token arena: string → dense `u32` symbol.
//!
//! Every hot structure downstream of tokenization (n-gram index, TF-IDF
//! featurizer, LF keyword memos) used to carry its own
//! `String`-keyed map or per-structure `u64` hash sets. The arena replaces
//! them with one shared representation: each distinct string is stored
//! once in a contiguous byte buffer and addressed by a `u32` symbol
//! assigned in **first-seen order**, so a corpus interned in the same
//! order yields the same symbols on every run — symbols are safe to store,
//! compare, and sort without touching string data again.
//!
//! The lookup table is a hand-rolled open-addressing index keyed by the
//! FNV-1a hash of [`hash_str`] (collisions fall back to a byte compare
//! into the buffer), so the arena holds no `String`-keyed map anywhere —
//! the layout ds-lint's `string-keyed-map` rule enforces in the migrated
//! modules. The per-symbol hash is cached: callers that need the hash of
//! an interned string (the TF-IDF bucketing trick) read it back in O(1)
//! instead of re-hashing.

use crate::rng::hash_str;

/// Slot marker for an empty probe slot.
const EMPTY: u32 = u32::MAX;

/// A global interned vocabulary arena (string → `u32` symbol).
///
/// Symbols are dense, start at 0, and are assigned in first-seen order.
/// The arena is append-only: interned strings are never removed.
#[derive(Debug, Clone, Default)]
pub struct TokenArena {
    /// All interned text, concatenated.
    bytes: String,
    /// Per-symbol `(start, end)` byte range into `bytes`.
    spans: Vec<(u32, u32)>,
    /// Cached FNV-1a hash per symbol.
    hashes: Vec<u64>,
    /// Open-addressing probe table of symbols (`EMPTY` = free slot).
    /// Capacity is always a power of two.
    table: Vec<u32>,
}

impl TokenArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena sized for roughly `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        let mut arena = Self::default();
        arena.grow_table(n.next_power_of_two().max(16) * 2);
        arena.spans.reserve(n);
        arena.hashes.reserve(n);
        arena
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Intern a string, returning its symbol (allocating one if unseen).
    pub fn intern(&mut self, s: &str) -> u32 {
        let hash = hash_str(s);
        if let Some(sym) = self.probe(s, hash) {
            return sym;
        }
        self.insert_new(s, hash)
    }

    /// Look up the symbol of a string without interning.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.probe(s, hash_str(s))
    }

    /// The string of a symbol (`None` if out of range).
    pub fn get(&self, sym: u32) -> Option<&str> {
        self.spans
            .get(sym as usize)
            .and_then(|&(start, end)| self.bytes.get(start as usize..end as usize))
    }

    /// The string of a symbol, or `""` for an out-of-range symbol.
    pub fn resolve(&self, sym: u32) -> &str {
        self.get(sym).unwrap_or("")
    }

    /// The cached FNV-1a hash of a symbol's string, identical to
    /// [`hash_str`] of the original text (`None` if out of range).
    pub fn hash(&self, sym: u32) -> Option<u64> {
        self.hashes.get(sym as usize).copied()
    }

    /// Iterate `(symbol, string)` pairs in symbol (= first-seen) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.spans.iter().enumerate().map(|(sym, &(start, end))| {
            (
                sym as u32,
                self.bytes.get(start as usize..end as usize).unwrap_or(""),
            )
        })
    }

    /// Probe the table for `s` (with its precomputed hash).
    fn probe(&self, s: &str, hash: u64) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            let sym = self.table.get(slot).copied().unwrap_or(EMPTY);
            if sym == EMPTY {
                return None;
            }
            if self.hashes.get(sym as usize) == Some(&hash) && self.resolve(sym) == s {
                return Some(sym);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Append a new string and index it. Caller guarantees it is absent.
    fn insert_new(&mut self, s: &str, hash: u64) -> u32 {
        // Keep the load factor below ~0.7.
        if (self.spans.len() + 1) * 10 >= self.table.len() * 7 {
            self.grow_table((self.table.len() * 2).max(16));
        }
        let start = self.bytes.len() as u32;
        self.bytes.push_str(s);
        let end = self.bytes.len() as u32;
        let sym = self.spans.len() as u32;
        self.spans.push((start, end));
        self.hashes.push(hash);
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        while self.table.get(slot).is_some_and(|&t| t != EMPTY) {
            slot = (slot + 1) & mask;
        }
        if let Some(t) = self.table.get_mut(slot) {
            *t = sym;
        }
        sym
    }

    /// Rebuild the probe table at a larger power-of-two capacity.
    fn grow_table(&mut self, capacity: usize) {
        let capacity = capacity.next_power_of_two();
        self.table.clear();
        self.table.resize(capacity, EMPTY);
        let mask = capacity - 1;
        for (sym, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while self.table.get(slot).is_some_and(|&t| t != EMPTY) {
                slot = (slot + 1) & mask;
            }
            if let Some(t) = self.table.get_mut(slot) {
                *t = sym as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut a = TokenArena::new();
        assert_eq!(a.intern("great"), 0);
        assert_eq!(a.intern("movie"), 1);
        assert_eq!(a.intern("great"), 0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn symbols_follow_first_seen_order() {
        let mut a = TokenArena::new();
        for (i, w) in ["c", "a", "b", "a", "c"].iter().enumerate() {
            let sym = a.intern(w);
            match i {
                0 | 4 => assert_eq!(sym, 0),
                1 | 3 => assert_eq!(sym, 1),
                _ => assert_eq!(sym, 2),
            }
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut a = TokenArena::new();
        a.intern("x");
        assert_eq!(a.lookup("x"), Some(0));
        assert_eq!(a.lookup("y"), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut a = TokenArena::new();
        let words = ["wake me up", "great", "", "a b c"];
        let syms: Vec<u32> = words.iter().map(|w| a.intern(w)).collect();
        for (w, &s) in words.iter().zip(&syms) {
            assert_eq!(a.resolve(s), *w);
            assert_eq!(a.get(s), Some(*w));
        }
        assert_eq!(a.get(99), None);
        assert_eq!(a.resolve(99), "");
    }

    #[test]
    fn cached_hash_matches_hash_str() {
        let mut a = TokenArena::new();
        let s = a.intern("spam offer");
        assert_eq!(a.hash(s), Some(hash_str("spam offer")));
        assert_eq!(a.hash(42), None);
    }

    #[test]
    fn survives_growth() {
        let mut a = TokenArena::new();
        let syms: Vec<u32> = (0..5000).map(|i| a.intern(&format!("tok{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(s, i as u32);
            assert_eq!(a.lookup(&format!("tok{i}")), Some(s));
        }
        assert_eq!(a.len(), 5000);
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut a = TokenArena::with_capacity(100);
        for i in 0..100 {
            a.intern(&format!("w{i}"));
        }
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn iter_yields_in_symbol_order() {
        let mut a = TokenArena::new();
        a.intern("x");
        a.intern("y");
        let all: Vec<(u32, &str)> = a.iter().collect();
        assert_eq!(all, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn deterministic_across_builds() {
        let build = || {
            let mut a = TokenArena::new();
            for w in ["the", "quick", "brown", "fox", "the", "lazy", "dog"] {
                a.intern(w);
            }
            a.iter()
                .map(|(s, w)| (s, w.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
