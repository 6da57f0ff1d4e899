//! Global string interning for the Anvil compiler.
//!
//! Identifiers flow through every stage of the pipeline — endpoint and
//! message names in [`MsgRef`]s, register names in loans and assignments,
//! process names in reports. Interning them once as a [`Symbol`] makes
//! those identifiers `Copy`, comparison O(1), and — crucially for the
//! parallel batch-compile front door — `Send + Sync`, because the interner
//! is a process-global table rather than per-compiler state.
//!
//! # Determinism
//!
//! Symbol *ids* depend on interning order, which differs between
//! sequential and parallel compilation. Anything order-sensitive (sorted
//! maps that decide emission order, diagnostics) must therefore not depend
//! on ids. `Symbol`'s `Ord` compares the **resolved strings**, not the
//! ids, so `BTreeMap<Symbol, _>` iterates in the same order no matter
//! which thread interned what first. (`Eq`/`Hash` use the id — the global
//! table guarantees one id per distinct string.)
//!
//! # Lifetime trade-off
//!
//! Interned strings are leaked and live for the rest of the process, like
//! rustc's own interner. That is the price of `Symbol: Copy + 'static`
//! and of symbols comparing equal across [`Session`]s: a long-lived
//! service compiling unbounded streams of designs with *globally unique
//! generated identifiers* will grow the table monotonically (dedup makes
//! repeated names free). If that workload materialises, the revisit is a
//! session-owned interner handle threaded through the build API — a
//! breaking change deliberately deferred until the serving layer exists.
//! Queries with caller-supplied names must use the non-allocating
//! [`Symbol::lookup`], never [`Symbol::intern`].
//!
//! [`Session`]: https://docs.rs/anvil-core
//!
//! [`MsgRef`]: https://docs.rs/anvil-ir

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// Cheap to copy and compare; resolves back to `&'static str` via
/// [`Symbol::as_str`]. Ordering compares resolved strings so sorted
/// containers iterate deterministically regardless of interning order.
#[derive(Clone, Copy, Eq, Hash, PartialEq)]
pub struct Symbol(u32);

struct Interner {
    /// Lookup from string to id.
    map: HashMap<&'static str, u32>,
    /// Resolution from id to string. Strings are leaked once; the process
    /// table lives for the lifetime of the program.
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns a string, returning its symbol. Idempotent: the same string
    /// always yields the same symbol, from any thread.
    pub fn intern(s: &str) -> Symbol {
        let lock = interner();
        if let Some(&id) = lock.read().expect("interner poisoned").map.get(s) {
            return Symbol(id);
        }
        let mut w = lock.write().expect("interner poisoned");
        if let Some(&id) = w.map.get(s) {
            return Symbol(id); // raced with another writer
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(w.strings.len()).expect("interner overflow");
        w.strings.push(leaked);
        w.map.insert(leaked, id);
        Symbol(id)
    }

    /// Looks up a string *without* interning it: `Some` iff the string was
    /// interned before. Use for queries with caller-supplied names, where
    /// a miss must not permanently allocate table space.
    pub fn lookup(s: &str) -> Option<Symbol> {
        interner()
            .read()
            .expect("interner poisoned")
            .map
            .get(s)
            .map(|&id| Symbol(id))
    }

    /// Resolves the symbol to its string.
    ///
    /// Resolutions are memoised per thread, so hot paths (notably
    /// `Symbol`'s string-based `Ord` inside `BTreeMap` operations) do not
    /// contend on the global table's lock: each worker takes the read
    /// lock at most once per distinct symbol.
    pub fn as_str(self) -> &'static str {
        thread_local! {
            static RESOLVED: std::cell::RefCell<Vec<Option<&'static str>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let idx = self.0 as usize;
        RESOLVED.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(Some(s)) = cache.get(idx) {
                return *s;
            }
            let s = interner().read().expect("interner poisoned").strings[idx];
            if cache.len() <= idx {
                cache.resize(idx + 1, None);
            }
            cache[idx] = Some(s);
            s
        })
    }

    /// The raw id (diagnostics / indexing only; ids are not stable across
    /// processes or interning orders).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("alpha");
        let b = Symbol::intern("alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(a, "alpha");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn lookup_never_interns() {
        assert_eq!(Symbol::lookup("never_interned_name_xyzzy"), None);
        assert_eq!(Symbol::lookup("never_interned_name_xyzzy"), None);
        let s = Symbol::intern("now_interned_name_xyzzy");
        assert_eq!(Symbol::lookup("now_interned_name_xyzzy"), Some(s));
    }

    #[test]
    fn as_str_memo_is_per_thread_consistent() {
        let s = Symbol::intern("memo_check");
        // Resolve twice on this thread (second hit comes from the memo)
        // and once on a fresh thread (cold memo): all must agree.
        assert_eq!(s.as_str(), "memo_check");
        assert_eq!(s.as_str(), "memo_check");
        std::thread::spawn(move || assert_eq!(s.as_str(), "memo_check"))
            .join()
            .unwrap();
    }

    #[test]
    fn ordering_follows_strings_not_ids() {
        // Intern in reverse lexicographic order: ids are ordered z < a,
        // but Symbol Ord must still say a < z.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::intern("shared_name")))
            .collect();
        let ids: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn symbol_is_send_sync_and_small() {
        fn assert_send_sync<T: Send + Sync + Copy>() {}
        assert_send_sync::<Symbol>();
        assert_eq!(std::mem::size_of::<Symbol>(), 4);
    }
}
