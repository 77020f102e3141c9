//! Content-addressed incremental migration cache.
//!
//! A migration's output is a pure function of three inputs: the source
//! design's content, the dialect pair, and the slice of the
//! configuration each executed stage reads. This module fingerprints
//! all three with the stable hash from [`interop_core::hash`] and
//! memoizes pipeline results under `(design_hash, chain_hash)` keys so
//! a re-run of an unchanged batch skips the pipeline entirely.
//!
//! The chain hash is cumulative: `hashes[k]` covers the dialect pair
//! plus executed stages `0..=k` (stage identity and config
//! fingerprint, see [`crate::stage::Stage::config_hash`]). Besides the
//! full-chain outcome, the pipeline memoizes each intermediate design
//! under its prefix hash — so editing one config knob invalidates only
//! the suffix of the pipeline that reads it, and the re-run resumes
//! from the longest still-valid prefix instead of starting over.
//!
//! Storage is a sharded in-memory LRU with a byte budget, plus an
//! optional plain-text on-disk tier (debuggable with `cat`) holding
//! every full-chain outcome, per-stage issues included, so warm starts
//! survive process restarts. The disk tier is also how a killed batch
//! resumes: re-run it over the same directory and every finished design
//! is restored without running a stage (see [`crate::batch`]). Each
//! entry is written to a temporary file and renamed into place, so a
//! kill mid-write never leaves a torn entry. Disk entries are still
//! untrusted input: a malformed, truncated or hostile entry is a cache
//! miss, never a panic.
//!
//! ```
//! use std::sync::Arc;
//! use migrate::{MigrationCache, Migrator};
//! use schematic::dialect::DialectId;
//! use schematic::gen::{generate, GenConfig};
//!
//! let cache = Arc::new(MigrationCache::new());
//! let migrator = Migrator::default().with_cache(cache.clone());
//! let source = generate(&GenConfig::default());
//! let cold = migrator.migrate(&source, DialectId::Cascade);
//! let warm = migrator.migrate(&source, DialectId::Cascade);
//! assert_eq!(cold.design, warm.design);
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use interop_core::hash::{stable_size, StableHash, StableHasher};
use schematic::design::Design;
use schematic::dialect::DialectId;

use crate::config::{MigrationConfig, StageId};
use crate::report::StageReport;
use crate::stage::Stage;

/// Default in-memory budget: 64 MiB of (estimated) design bytes.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 << 20;

const SHARDS: usize = 16;
const DISK_MAGIC: &str = "migrate-cache v2";

/// The executed stage chain for one dialect pair, with cumulative
/// content hashes. Computed once per `(source, target)` pair by the
/// [`crate::Migrator`] and shared across designs.
#[derive(Debug, Clone)]
pub struct StageChain {
    /// Source dialect.
    pub source: DialectId,
    /// Target dialect.
    pub target: DialectId,
    /// Hash of the dialect pair alone (the chain with zero stages).
    pub base: u64,
    /// Executed stage ids in pipeline order (skipped stages excluded —
    /// a run that skips a stage must not share keys with one that
    /// doesn't, and the skip list changes `hashes`, not the design).
    pub stages: Vec<StageId>,
    /// `hashes[k]` fingerprints the dialect pair plus `stages[0..=k]`.
    pub hashes: Vec<u64>,
}

impl StageChain {
    /// Fingerprints `stages` as executed under `config` for the given
    /// dialect pair.
    pub fn compute(
        stages: &[Box<dyn Stage>],
        config: &MigrationConfig,
        source: DialectId,
        target: DialectId,
    ) -> StageChain {
        let mut h = StableHasher::new();
        source.stable_hash(&mut h);
        target.stable_hash(&mut h);
        let base = h.finish();
        let mut prev = base;
        let mut ids = Vec::new();
        let mut hashes = Vec::new();
        for stage in stages {
            let id = stage.id();
            if !config.runs(id) {
                continue;
            }
            let mut h = StableHasher::seeded(prev);
            h.write_str(id.name());
            h.write_u64(stage.config_hash(config));
            prev = h.finish();
            ids.push(id);
            hashes.push(prev);
        }
        StageChain {
            source,
            target,
            base,
            stages: ids,
            hashes,
        }
    }

    /// The full-chain hash: the key of a finished migration.
    pub fn full_hash(&self) -> u64 {
        self.hashes.last().copied().unwrap_or(self.base)
    }
}

/// A memoized (possibly partial) pipeline result.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The design after the chain prefix this entry is keyed under.
    pub design: Design,
    /// Reports of the executed stages that produced `design`, in
    /// pipeline order.
    pub stages: Vec<(StageId, StageReport)>,
}

impl CachedRun {
    fn estimated_bytes(&self) -> usize {
        let design_bytes = stable_size(&self.design);
        let issue_bytes: usize = self
            .stages
            .iter()
            .flat_map(|(_, r)| r.issues.iter())
            .map(|s| s.len())
            .sum();
        design_bytes + issue_bytes + self.stages.len() * 64
    }
}

/// Result of a cache probe for one design under one chain.
#[derive(Debug)]
pub enum Lookup {
    /// Full-chain hit: the finished migration.
    Hit(CachedRun),
    /// Longest valid prefix: `chain.stages[..=idx]` already applied to
    /// the carried design; the pipeline resumes at `idx + 1`.
    Prefix(usize, CachedRun),
    /// Nothing usable cached.
    Miss,
}

struct Entry {
    run: CachedRun,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<(u64, u64), Entry>,
    bytes: usize,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full-chain lookups served from memory (or disk, also counted
    /// in `disk_hits`).
    pub hits: u64,
    /// Lookups served partially: a prefix memo let the pipeline skip
    /// some leading stages.
    pub prefix_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Full-chain entries restored from the disk tier.
    pub disk_hits: u64,
    /// Full-chain entries written to the disk tier.
    pub disk_stores: u64,
    /// Live in-memory entries.
    pub entries: usize,
    /// Estimated bytes held by live entries.
    pub bytes: usize,
}

/// Sharded, content-addressed LRU over migration results. Shareable
/// across threads and [`crate::Migrator`]s: all methods take `&self`.
pub struct MigrationCache {
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    prefix_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    disk_hits: AtomicU64,
    disk_stores: AtomicU64,
    disk: Option<PathBuf>,
}

impl Default for MigrationCache {
    fn default() -> Self {
        MigrationCache::new()
    }
}

impl MigrationCache {
    /// A memory-only cache with the default byte budget.
    pub fn new() -> Self {
        MigrationCache::with_capacity_bytes(DEFAULT_CAPACITY_BYTES)
    }

    /// A memory-only cache holding at most roughly `capacity` bytes of
    /// cached designs (enforced per shard).
    pub fn with_capacity_bytes(capacity: usize) -> Self {
        MigrationCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            prefix_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_stores: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Adds a plain-text on-disk tier under `dir` (created if needed).
    /// Every full-chain outcome is persisted; prefix memos stay in
    /// memory. Disk failures are swallowed — the tier is best-effort,
    /// correctness never depends on it.
    pub fn with_disk_tier(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let _ = fs::create_dir_all(&dir);
        self.disk = Some(dir);
        self
    }

    /// The disk-tier directory, if one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    fn shard(&self, design: u64, chain: u64) -> &Mutex<Shard> {
        &self.shards[(design ^ chain) as usize % SHARDS]
    }

    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn get(&self, design: u64, chain: u64) -> Option<CachedRun> {
        let mut shard = self.shard(design, chain).lock().unwrap();
        let tick = self.touch();
        let entry = shard.map.get_mut(&(design, chain))?;
        entry.last_used = tick;
        Some(entry.run.clone())
    }

    /// Probes for `design_hash` under `chain`: the full-chain result
    /// first (memory, then disk), then prefix memos from longest to
    /// shortest. Updates hit/miss statistics.
    pub fn lookup(&self, design_hash: u64, chain: &StageChain) -> Lookup {
        let full = chain.full_hash();
        if let Some(run) = self.get(design_hash, full) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Lookup::Hit(run);
        }
        if let Some(run) = self.disk_load(design_hash, full, chain.target) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.store(design_hash, full, run.clone());
            return Lookup::Hit(run);
        }
        // Longest prefix strictly shorter than the full chain.
        for idx in (0..chain.hashes.len().saturating_sub(1)).rev() {
            if let Some(run) = self.get(design_hash, chain.hashes[idx]) {
                self.prefix_hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Prefix(idx, run);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss
    }

    fn store(&self, design: u64, chain: u64, run: CachedRun) -> u64 {
        let bytes = run.estimated_bytes();
        let tick = self.touch();
        let mut shard = self.shard(design, chain).lock().unwrap();
        if let Some(old) = shard.map.insert(
            (design, chain),
            Entry {
                run,
                bytes,
                last_used: tick,
            },
        ) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        let budget = (self.capacity / SHARDS).max(1);
        let mut evicted = 0;
        while shard.bytes > budget && shard.map.len() > 1 {
            let lru = shard
                .map
                .iter()
                .filter(|(k, _)| **k != (design, chain))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match lru {
                Some(key) => {
                    let entry = shard.map.remove(&key).unwrap();
                    shard.bytes -= entry.bytes;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Inserts a (possibly partial) pipeline result. `full` marks a
    /// finished migration — only those go to the disk tier. Returns how
    /// many entries were evicted to make room (for the caller's
    /// `migrate.cache.evict` counter).
    pub fn insert(&self, design_hash: u64, chain_hash: u64, run: CachedRun, full: bool) -> u64 {
        if full && self.disk.is_some() {
            self.disk_store(design_hash, chain_hash, &run);
        }
        let evicted = self.store(design_hash, chain_hash, run);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops every entry — memory and disk — for one design. Called by
    /// the batch driver when a design is quarantined: a corrupted-output
    /// attempt may have cached a result just before the corruption was
    /// detected, and a quarantined design must never be served from
    /// cache.
    pub fn purge_design(&self, design_hash: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let doomed: Vec<(u64, u64)> = shard
                .map
                .keys()
                .filter(|(d, _)| *d == design_hash)
                .copied()
                .collect();
            for key in doomed {
                let entry = shard.map.remove(&key).unwrap();
                shard.bytes -= entry.bytes;
            }
        }
        if let Some(dir) = &self.disk {
            let prefix = format!("{design_hash:016x}-");
            if let Ok(entries) = fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if entry.file_name().to_string_lossy().starts_with(&prefix) {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
    }

    /// Empties the in-memory tier (disk files are left in place).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            shard.map.clear();
            shard.bytes = 0;
        }
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_stores: self.disk_stores.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    // ---- disk tier -------------------------------------------------

    fn disk_path(dir: &Path, design: u64, chain: u64) -> PathBuf {
        dir.join(format!("{design:016x}-{chain:016x}.mcache"))
    }

    fn disk_store(&self, design: u64, chain: u64, run: &CachedRun) {
        let Some(dir) = &self.disk else { return };
        let text = crate::batch::write_design(&run.design, run.design.dialect);
        let mut out = String::new();
        out.push_str(&format!(
            "{DISK_MAGIC} design={design:016x} chain={chain:016x} target={} stages={}\n",
            run.design.dialect,
            run.stages.len()
        ));
        for (id, r) in &run.stages {
            out.push_str(&format!(
                "stage {} touched={} created={} renamed={} issues={}\n",
                id.name(),
                r.touched,
                r.created,
                r.renamed,
                r.issues.len()
            ));
            for issue in &r.issues {
                // One line per issue: escape the two bytes that could
                // break the framing.
                let escaped = issue.replace('\\', "\\\\").replace('\n', "\\n");
                out.push_str(&format!("issue {escaped}\n"));
            }
        }
        out.push_str(&format!("design bytes={}\n", text.len()));
        out.push_str(&text);
        // Write under a unique temporary name, then rename into place:
        // a kill mid-write leaves a stray temporary file, never a torn
        // entry. The name starts with the design key, so
        // `purge_design` removes strays too. There is no fsync: the tier
        // is best-effort, and an entry a power cut empties is a miss.
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            "{design:016x}-{chain:016x}.{}-{seq}.tmp",
            std::process::id()
        ));
        let stored = fs::write(&tmp, out)
            .and_then(|()| fs::rename(&tmp, Self::disk_path(dir, design, chain)));
        if stored.is_ok() {
            self.disk_stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = fs::remove_file(&tmp);
        }
    }

    fn disk_load(&self, design: u64, chain: u64, target: DialectId) -> Option<CachedRun> {
        let dir = self.disk.as_ref()?;
        let text = fs::read_to_string(Self::disk_path(dir, design, chain)).ok()?;
        decode_entry(&text, target)
    }
}

/// Parses one disk-tier entry written by `disk_store`. Entries are
/// untrusted: anything malformed, truncated, or claiming more stages
/// than exist is `None` (a cache miss), and no allocation is sized from
/// a count in the file.
fn decode_entry(text: &str, target: DialectId) -> Option<CachedRun> {
    let mut rest = text;
    let header = next_line(&mut rest)?.strip_prefix(DISK_MAGIC)?;
    let mut stage_count = None;
    for field in header.split_whitespace() {
        if let Some(v) = field.strip_prefix("stages=") {
            stage_count = Some(v.parse::<usize>().ok()?);
        } else if let Some(v) = field.strip_prefix("target=") {
            if v != target.to_string() {
                return None;
            }
        }
    }
    let stage_count = stage_count.filter(|&n| n <= StageId::ALL.len())?;
    let mut stages = Vec::new();
    for _ in 0..stage_count {
        let mut fields = next_line(&mut rest)?.strip_prefix("stage ")?.split(' ');
        let id = stage_id_by_name(fields.next()?)?;
        let mut report = StageReport::default();
        let mut issues = 0usize;
        for field in fields {
            let (key, value) = field.split_once('=')?;
            let value: usize = value.parse().ok()?;
            match key {
                "touched" => report.touched = value,
                "created" => report.created = value,
                "renamed" => report.renamed = value,
                "issues" => issues = value,
                _ => return None,
            }
        }
        // Each issue consumes a line, so a hostile count runs out of
        // input instead of memory.
        for _ in 0..issues {
            report
                .issues
                .push(unescape(next_line(&mut rest)?.strip_prefix("issue ")?)?);
        }
        stages.push((id, report));
    }
    let body_len: usize = next_line(&mut rest)?
        .strip_prefix("design bytes=")?
        .parse()
        .ok()?;
    if rest.len() != body_len {
        return None;
    }
    let design = crate::batch::parse_design(rest, target).ok()?;
    Some(CachedRun { design, stages })
}

/// Splits the first `\n`-terminated line off `rest`.
fn next_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let (line, tail) = rest.split_once('\n')?;
    *rest = tail;
    Some(line)
}

/// Reverses `disk_store`'s issue escaping; `None` on a stray escape.
fn unescape(line: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '\\' => '\\',
                'n' => '\n',
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
}

fn stage_id_by_name(name: &str) -> Option<StageId> {
    StageId::ALL.iter().copied().find(|id| id.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::builtin_stages;
    use interop_core::hash::hash_of;
    use schematic::gen::{generate, GenConfig};

    fn chain_for(config: &MigrationConfig) -> StageChain {
        StageChain::compute(
            &builtin_stages(),
            config,
            DialectId::Viewstar,
            DialectId::Cascade,
        )
    }

    #[test]
    fn config_edit_invalidates_only_the_suffix() {
        let base = MigrationConfig::default();
        let edited = MigrationConfig::builder()
            .rename_global("VDD", "vdd!")
            .build()
            .expect("valid config");
        let a = chain_for(&base);
        let b = chain_for(&edited);
        assert_eq!(a.stages, b.stages);
        let globals_at = a
            .stages
            .iter()
            .position(|s| *s == StageId::Globals)
            .unwrap();
        for k in 0..a.hashes.len() {
            if k < globals_at {
                assert_eq!(a.hashes[k], b.hashes[k], "prefix {k} must survive");
            } else {
                assert_ne!(a.hashes[k], b.hashes[k], "suffix {k} must invalidate");
            }
        }
    }

    #[test]
    fn skip_list_changes_the_chain() {
        let base = MigrationConfig::default();
        let mut skipping = MigrationConfig::default();
        skipping.skip_stages.push(StageId::Text);
        let a = chain_for(&base);
        let b = chain_for(&skipping);
        assert_eq!(b.stages.len(), a.stages.len() - 1);
        assert_ne!(a.full_hash(), b.full_hash());
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let cache = MigrationCache::new();
        let design = generate(&GenConfig::default());
        let chain = chain_for(&MigrationConfig::default());
        let key = hash_of(&design);
        let run = CachedRun {
            design: design.clone(),
            stages: vec![(StageId::Scale, StageReport::default())],
        };
        assert!(matches!(cache.lookup(key, &chain), Lookup::Miss));
        cache.insert(key, chain.full_hash(), run, true);
        match cache.lookup(key, &chain) {
            Lookup::Hit(hit) => assert_eq!(hit.design, design),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn prefix_memo_is_found_when_full_chain_misses() {
        let cache = MigrationCache::new();
        let design = generate(&GenConfig::default());
        let chain = chain_for(&MigrationConfig::default());
        let key = hash_of(&design);
        let run = CachedRun {
            design: design.clone(),
            stages: vec![(StageId::Scale, StageReport::default())],
        };
        cache.insert(key, chain.hashes[0], run, false);
        match cache.lookup(key, &chain) {
            Lookup::Prefix(0, _) => {}
            other => panic!("expected prefix hit at 0, got {other:?}"),
        }
        assert_eq!(cache.stats().prefix_hits, 1);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let cache = MigrationCache::with_capacity_bytes(1); // per-shard budget 1 byte
        let design = generate(&GenConfig::default());
        let run = CachedRun {
            design,
            stages: Vec::new(),
        };
        // Keys chosen to land in the same shard: design ^ chain equal.
        cache.insert(2, 2, run.clone(), false);
        cache.insert(3, 3, run.clone(), false);
        cache.insert(16 + 2, 16 + 2, run, false);
        let stats = cache.stats();
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        assert!(stats.entries <= SHARDS);
    }

    #[test]
    fn purge_design_removes_every_entry_for_that_design() {
        let cache = MigrationCache::new();
        let design = generate(&GenConfig::default());
        let run = CachedRun {
            design,
            stages: Vec::new(),
        };
        for chain in 0..8u64 {
            cache.insert(42, chain, run.clone(), false);
        }
        cache.insert(7, 0, run, false);
        cache.purge_design(42);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "only the other design remains");
    }

    /// Writes one intact full-chain entry to a fresh disk tier under
    /// `tag`, checks that it restores, and returns the tier directory, the
    /// entry's path and text, and the design key and chain it was stored
    /// under.
    fn intact_disk_entry(tag: &str) -> (PathBuf, PathBuf, String, u64, StageChain) {
        let dir = std::env::temp_dir().join(format!("migrate-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let source = generate(&GenConfig::default());
        let chain = chain_for(&MigrationConfig::default());
        let key = hash_of(&source);
        let design = crate::Migrator::default()
            .migrate(&source, DialectId::Cascade)
            .design;
        let report = StageReport {
            touched: 3,
            issues: vec!["two\nlines \\ and a backslash".into(), String::new()],
            ..StageReport::default()
        };
        MigrationCache::new().with_disk_tier(&dir).insert(
            key,
            chain.full_hash(),
            CachedRun {
                design: design.clone(),
                stages: vec![(StageId::Scale, report.clone())],
            },
            true,
        );
        match MigrationCache::new()
            .with_disk_tier(&dir)
            .lookup(key, &chain)
        {
            Lookup::Hit(hit) => {
                assert_eq!(hit.design, design);
                assert_eq!(hit.stages, vec![(StageId::Scale, report)]);
            }
            other => panic!("intact entry must restore, got {other:?}"),
        }
        let path = MigrationCache::disk_path(&dir, key, chain.full_hash());
        let good = fs::read_to_string(&path).expect("entry written");
        (dir, path, good, key, chain)
    }

    #[test]
    fn stray_temporary_files_are_neither_loaded_nor_kept_by_purge() {
        let (dir, path, good, key, chain) = intact_disk_entry("stray");
        let files = fs::read_dir(&dir).expect("tier exists").count();
        assert_eq!(files, 1, "a finished store leaves no temporary file");
        // What a kill between write and rename leaves behind: the whole
        // entry under a temporary name, and no entry in place.
        let stray = dir.join(format!("{key:016x}-{:016x}.1-0.tmp", chain.full_hash()));
        fs::write(&stray, &good).expect("write stray");
        fs::remove_file(&path).expect("remove entry");
        let cache = MigrationCache::new().with_disk_tier(&dir);
        assert!(matches!(cache.lookup(key, &chain), Lookup::Miss));
        assert_eq!(cache.stats().disk_hits, 0);
        cache.purge_design(key);
        assert!(!stray.exists(), "purge removes the design's stray files");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Overwrites the entry at `path` with each of `bad` in turn and
    /// asserts that every one reads back as a miss.
    fn assert_all_miss(dir: &Path, path: &Path, key: u64, chain: &StageChain, bad: &[Vec<u8>]) {
        for (i, bytes) in bad.iter().enumerate() {
            fs::write(path, bytes).expect("overwrite entry");
            let got = MigrationCache::new().with_disk_tier(dir).lookup(key, chain);
            assert!(matches!(got, Lookup::Miss), "bad entry {i}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn hostile_disk_entries_are_misses_not_panics() {
        let (dir, path, good, key, chain) = intact_disk_entry("hostile");
        let hostile: Vec<Vec<u8>> = vec![
            good.replacen("stages=1", "stages=18446744073709551615", 1)
                .into(),
            good.replacen("issues=2", "issues=18446744073709551615", 1)
                .into(),
            good.replacen("issue two", "issue \\q", 1).into(),
        ];
        assert_all_miss(&dir, &path, key, &chain, &hostile);
    }

    #[test]
    fn truncated_disk_entries_are_misses_not_panics() {
        let (dir, path, good, key, chain) = intact_disk_entry("truncated");
        let truncated: Vec<Vec<u8>> = vec![
            good.as_bytes()[..good.len() - 7].to_vec(),
            good.as_bytes()[..good.len() / 3].to_vec(),
            good.lines().next().expect("header line").into(),
        ];
        assert_all_miss(&dir, &path, key, &chain, &truncated);
    }

    #[test]
    fn garbage_disk_entries_are_misses_not_panics() {
        let (dir, path, _, key, chain) = intact_disk_entry("garbage");
        let garbage: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"nonsense".to_vec(),
            vec![0xff, 0xfe, 0x00, b'\n', 0x80, b'\n'],
            format!("{DISK_MAGIC} stages=1\nstage \u{1F600}=\n\n").into(),
        ];
        assert_all_miss(&dir, &path, key, &chain, &garbage);
    }
}
