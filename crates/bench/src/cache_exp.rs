//! Experiment E-CACHE: content-addressed incremental migration cache.
//!
//! The Exar batch was re-run every time a mapping table changed; with
//! ~1200 pages that is wasted work whenever most designs and most of
//! the config are unchanged. This experiment measures the three
//! canonical re-run shapes against the same batch:
//!
//! - **cold** — empty cache, every design runs the full pipeline;
//! - **warm** — nothing changed, every design is a full-chain hit;
//! - **1-dirty** — exactly one design was edited, the rest stay warm.
//!
//! Each scenario validates byte-identity against an uncached reference
//! run, so the speedup numbers can't come from skipped work.

use std::sync::Arc;
use std::time::Instant;

use migrate::batch::{migrate_batch, BatchConfig};
use migrate::{presets, MigrationCache, Migrator};
use obs::{MemoryRecorder, NullRecorder};
use schematic::design::Design;
use schematic::dialect::DialectId;

use crate::batch_exp::batch_designs;

/// One cache-scenario measurement.
#[derive(Debug, Clone)]
pub struct CacheRow {
    /// Scenario name: `cold`, `warm`, or `1-dirty`.
    pub scenario: String,
    /// Wall-clock milliseconds for the batch.
    pub millis: f64,
    /// Speedup vs the cold run in the same sweep.
    pub speedup: f64,
    /// Full-chain cache hits observed by the recorder.
    pub hits: u64,
    /// Cache misses observed by the recorder.
    pub misses: u64,
    /// Whether the serialized output matched the uncached reference
    /// byte for byte.
    pub identical: bool,
}

fn run_batch(
    migrator: &Migrator,
    sources: &[Design],
    threads: usize,
    reference: &[String],
    scenario: &str,
    base_ms: Option<f64>,
) -> CacheRow {
    let recorder = MemoryRecorder::new();
    let start = Instant::now();
    let outcomes = migrate_batch(
        migrator,
        sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(threads),
        &recorder,
    );
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let identical = outcomes.results.iter().zip(reference).all(|(r, want)| {
        r.design()
            .is_some_and(|d| schematic::cascade::write(d) == *want)
    });
    CacheRow {
        scenario: scenario.to_string(),
        millis,
        speedup: base_ms.map_or(1.0, |base| base / millis),
        hits: recorder.counter("migrate.cache.hit"),
        misses: recorder.counter("migrate.cache.miss"),
        identical,
    }
}

/// Runs the cold / warm / 1-dirty sweep over `designs` generated
/// designs with `threads` workers. The 1-dirty run edits one global in
/// the middle design and re-validates against a fresh uncached
/// reference of the edited batch.
pub fn cache_rerun(designs: usize, threads: usize) -> Vec<CacheRow> {
    let mut sources = batch_designs(designs);
    let migrator = Migrator::new(presets::exar_style_config(4, 0));
    let reference: Vec<String> = migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(1),
        &NullRecorder,
    )
    .results
    .iter()
    .map(|r| schematic::cascade::write(r.design().expect("fault-free batch")))
    .collect();

    let cache = Arc::new(MigrationCache::new());
    let cached = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache);

    let cold = run_batch(&cached, &sources, threads, &reference, "cold", None);
    let base = cold.millis;
    let warm = run_batch(&cached, &sources, threads, &reference, "warm", Some(base));

    // Edit exactly one design; its siblings must stay warm.
    sources[designs / 2].add_global("E_CACHE_DIRTY");
    let dirty_reference: Vec<String> = migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(1),
        &NullRecorder,
    )
    .results
    .iter()
    .map(|r| schematic::cascade::write(r.design().expect("fault-free batch")))
    .collect();
    let dirty = run_batch(
        &cached,
        &sources,
        threads,
        &dirty_reference,
        "1-dirty",
        Some(base),
    );

    vec![cold, warm, dirty]
}

/// Renders the E-CACHE table.
pub fn cache_table(rows: &[CacheRow], designs: usize, threads: usize) -> String {
    let mut s = String::from("E-CACHE incremental migration cache (content-addressed)\n");
    s.push_str(&format!("designs: {designs}, threads: {threads}\n"));
    s.push_str(&format!(
        "{:>8} {:>10} {:>8} {:>6} {:>7} {:>10}\n",
        "scenario", "millis", "speedup", "hits", "misses", "identical"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:>8} {:>10.2} {:>7.2}x {:>6} {:>7} {:>10}\n",
            r.scenario, r.millis, r.speedup, r.hits, r.misses, r.identical
        ));
    }
    s
}

/// Renders the E-CACHE rows as the `BENCH_migrate.json` payload.
pub fn cache_bench_json(rows: &[CacheRow], designs: usize, threads: usize) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = format!(
        "{{\n  \"experiment\": \"batch_cache\",\n  \"host_parallelism\": {host},\n  \"designs\": {designs},\n  \"threads\": {threads},\n  \"cache_rerun\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"millis\": {:.3}, \"speedup\": {:.2}, \"hits\": {}, \"misses\": {}, \"identical\": {}}}{}\n",
            r.scenario,
            r.millis,
            r.speedup,
            r.hits,
            r.misses,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_warm_dirty_hit_counts_and_identity() {
        let rows = cache_rerun(6, 1);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.identical), "{rows:?}");
        let (cold, warm, dirty) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!((cold.hits, cold.misses), (0, 6));
        assert_eq!((warm.hits, warm.misses), (6, 0));
        assert_eq!((dirty.hits, dirty.misses), (5, 1));
    }

    #[test]
    fn table_lists_all_three_scenarios() {
        let rows = cache_rerun(4, 1);
        let table = cache_table(&rows, 4, 1);
        for scenario in ["cold", "warm", "1-dirty"] {
            assert!(table.contains(scenario), "missing {scenario} in:\n{table}");
        }
    }
}
