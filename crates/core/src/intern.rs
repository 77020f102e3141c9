//! Global string interning for the names that saturate schematic
//! parse/emit hot paths.
//!
//! A batch migration re-reads the same library, cell, pin, net, and
//! property names thousands of times — `VDD`, `CLK`, `refdes`,
//! `stdcell/nand2` — and with plain `String` fields every design pays
//! a fresh heap allocation per occurrence. [`IStr`] is a `Copy` handle
//! to a string that lives for the whole process, deduplicated through
//! a global sharded intern table: the first occurrence allocates (and
//! leaks) the string once, every later occurrence is a table lookup.
//! Copying or dropping a handle touches no shared memory, so threads
//! that pass the same common names around never contend on them.
//!
//! Design points:
//!
//! * **Order and equality are by content**, so swapping `String` for
//!   `IStr` inside `BTreeMap`/`BTreeSet` keys changes neither iteration
//!   order nor any emitted byte. Equality takes the pointer fast path
//!   first — two interned handles with equal content point at one
//!   string.
//! * **`Borrow<str>`** lets ordered maps keyed by `IStr` keep their
//!   `get(&str)` lookups; `Deref<Target = str>` keeps most call sites
//!   compiling untouched.
//! * The table is append-only for the process lifetime: names are tiny
//!   and heavily reused, and a string that is never freed needs no
//!   reference count. [`stats`] exposes the table's size so the memory
//!   it holds can be recorded as a gauge.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{Mutex, OnceLock};

use crate::hash::{FNV_OFFSET, FNV_PRIME};

const SHARDS: usize = 16;

struct InternTable {
    shards: [Mutex<HashSet<&'static str>>; SHARDS],
}

fn table() -> &'static InternTable {
    static TABLE: OnceLock<InternTable> = OnceLock::new();
    TABLE.get_or_init(|| InternTable {
        shards: std::array::from_fn(|_| Mutex::new(HashSet::new())),
    })
}

fn shard_of(s: &str) -> usize {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h as usize) % SHARDS
}

/// Returns the handle for `s`, interning it on first sight. A new
/// string is leaked once and lives for the rest of the process.
pub fn intern(s: &str) -> IStr {
    let shard = &table().shards[shard_of(s)];
    let mut set = shard.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&existing) = set.get(s) {
        return IStr(existing);
    }
    let leaked: &'static str = Box::leak(Box::from(s));
    set.insert(leaked);
    IStr(leaked)
}

/// Intern-table occupancy: `(distinct strings, total content bytes)`.
pub fn stats() -> (usize, usize) {
    let mut count = 0usize;
    let mut bytes = 0usize;
    for shard in &table().shards {
        let set = shard.lock().unwrap_or_else(|p| p.into_inner());
        count += set.len();
        bytes += set.iter().map(|s| s.len()).sum::<usize>();
    }
    (count, bytes)
}

/// An interned, immutable string handle: a `Copy` pointer to a string
/// that lives for the whole process, content-ordered, and transparently
/// usable as `&str`.
#[derive(Clone, Copy)]
pub struct IStr(&'static str);

impl IStr {
    /// The underlying string slice.
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// True when both handles point at one string — always the case for
    /// equal interned strings.
    pub fn ptr_eq(a: &IStr, b: &IStr) -> bool {
        std::ptr::eq(a.0, b.0)
    }
}

impl Default for IStr {
    fn default() -> Self {
        intern("")
    }
}

impl Deref for IStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for IStr {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl Borrow<str> for IStr {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl PartialEq for IStr {
    fn eq(&self, other: &Self) -> bool {
        IStr::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for IStr {}

impl PartialOrd for IStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IStr {
    fn cmp(&self, other: &Self) -> Ordering {
        if IStr::ptr_eq(self, other) {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl std::hash::Hash for IStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `str`'s Hash for Borrow-keyed map lookups.
        self.0.hash(state);
    }
}

impl fmt::Display for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl fmt::Debug for IStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for IStr {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl From<&String> for IStr {
    fn from(s: &String) -> Self {
        intern(s)
    }
}

impl From<String> for IStr {
    fn from(s: String) -> Self {
        intern(&s)
    }
}

impl From<&IStr> for IStr {
    fn from(s: &IStr) -> Self {
        *s
    }
}

impl From<IStr> for String {
    fn from(s: IStr) -> Self {
        s.as_str().to_string()
    }
}

impl From<&IStr> for String {
    fn from(s: &IStr) -> Self {
        s.as_str().to_string()
    }
}

impl PartialEq<str> for IStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for IStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for IStr {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<IStr> for str {
    fn eq(&self, other: &IStr) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<IStr> for &str {
    fn eq(&self, other: &IStr) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<IStr> for String {
    fn eq(&self, other: &IStr) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn equal_content_shares_one_allocation() {
        let a = intern("net_clk");
        let b = intern("net_clk");
        assert!(IStr::ptr_eq(&a, &b));
        assert_eq!(a, b);
        let c = intern("net_rst");
        assert!(!IStr::ptr_eq(&a, &c));
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_matches_str_ordering() {
        let raw = [
            "z", "a<3>", "a<10>", "A", "a", "D<0>", "D<15:0>", "d<2>", "VDD", "vdd!", "_n1", "A0",
        ];
        let mut names: Vec<IStr> = raw.iter().map(|s| intern(s)).collect();
        names.sort();
        let mut expect = raw.to_vec();
        expect.sort();
        let sorted: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        assert_eq!(sorted, expect);
        let set: BTreeSet<IStr> = raw.iter().map(|s| intern(s)).collect();
        let iterated: Vec<&str> = set.iter().map(|s| s.as_str()).collect();
        assert_eq!(iterated, expect);
    }

    #[test]
    fn handles_outlive_the_thread_that_interned_them() {
        let text = "interned_on_an_exited_thread";
        let handle = std::thread::spawn(move || intern(text))
            .join()
            .expect("interning thread");
        let s: &'static str = handle.as_str();
        assert_eq!(s, text);
        assert!(IStr::ptr_eq(&handle, &intern(text)));
    }

    #[test]
    fn btreemap_keyed_by_istr_supports_str_lookup() {
        let mut m: BTreeMap<IStr, u32> = BTreeMap::new();
        m.insert(intern("refdes"), 7);
        assert_eq!(m.get("refdes"), Some(&7));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn interning_is_thread_safe() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| intern(&format!("shared_{}", (t + i) % 10)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<IStr>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let probe = intern("shared_3");
        for batch in &all {
            for s in batch {
                if s.as_str() == "shared_3" {
                    assert!(IStr::ptr_eq(s, &probe));
                }
            }
        }
    }

    #[test]
    fn stats_report_distinct_strings() {
        let before = stats().0;
        intern("stats_probe_unique_string_xyzzy");
        intern("stats_probe_unique_string_xyzzy");
        let after = stats().0;
        assert_eq!(after, before + 1);
    }
}
