//! Property tests for the content-addressed migration cache: warm
//! re-runs must be byte-identical to cold runs at any thread count,
//! invalidation must be exact (one edited design, one edited config
//! knob), and quarantined designs must never be served warm.

use std::sync::Arc;

use migrate::batch::{migrate_batch, BatchConfig, DesignResult};
use migrate::cache::{Lookup, MigrationCache};
use migrate::{presets, FaultKind, FaultPlan, MigrationConfig, Migrator, RetryPolicy};
use obs::{MemoryRecorder, NullRecorder};
use proptest::prelude::*;
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::gen::{generate, GenConfig};

fn designs(n: u64) -> Vec<Design> {
    (0..n)
        .map(|seed| {
            generate(&GenConfig {
                seed,
                ..GenConfig::default()
            })
        })
        .collect()
}

fn emitted(outcomes: &[DesignResult]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| schematic::cascade::write(o.design().expect("healthy")))
        .collect()
}

#[test]
fn warm_batch_is_byte_identical_to_cold_at_one_and_eight_threads() {
    let sources = designs(6);
    for threads in [1usize, 8] {
        let cache = Arc::new(MigrationCache::new());
        let migrator = Migrator::new(presets::exar_style_config(4, 0)).with_cache(cache.clone());
        let batch = BatchConfig::with_threads(threads);

        let cold_rec = MemoryRecorder::new();
        let cold =
            migrate_batch(&migrator, &sources, DialectId::Cascade, &batch, &cold_rec).results;
        assert_eq!(
            cold_rec.counter("migrate.cache.miss"),
            6,
            "threads={threads}"
        );
        assert_eq!(
            cold_rec.counter("migrate.cache.hit"),
            0,
            "threads={threads}"
        );

        let warm_rec = MemoryRecorder::new();
        let warm =
            migrate_batch(&migrator, &sources, DialectId::Cascade, &batch, &warm_rec).results;
        assert_eq!(
            warm_rec.counter("migrate.cache.hit"),
            6,
            "threads={threads}"
        );
        assert_eq!(
            warm_rec.counter("migrate.cache.miss"),
            0,
            "threads={threads}"
        );
        assert_eq!(emitted(&cold), emitted(&warm), "threads={threads}");
        for (c, w) in cold.iter().zip(&warm) {
            let (c, w) = (c.outcome().expect("cold"), w.outcome().expect("warm"));
            assert_eq!(c.design, w.design);
            assert_eq!(format!("{}", c.report), format!("{}", w.report));
        }
        assert!(cache.stats().hits >= 6);
    }
}

#[test]
fn editing_one_design_invalidates_exactly_that_design() {
    let mut sources = designs(4);
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::default().with_cache(cache.clone());
    let batch = BatchConfig::with_threads(1);
    migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &batch,
        &NullRecorder,
    );

    // Touch one global in design 2; every other design stays warm.
    sources[2].add_global("CACHE_EDIT");
    let recorder = MemoryRecorder::new();
    migrate_batch(&migrator, &sources, DialectId::Cascade, &batch, &recorder);
    assert_eq!(recorder.counter("migrate.cache.hit"), 3);
    assert_eq!(recorder.counter("migrate.cache.miss"), 1);
}

#[test]
fn editing_one_config_knob_invalidates_only_the_affected_suffix() {
    let source = &designs(1)[0];
    let cache = Arc::new(MigrationCache::new());
    let warmer = Migrator::new(MigrationConfig::default()).with_cache(cache.clone());
    warmer.migrate(source, DialectId::Cascade);

    // A different globals_map changes only the globals stage's config
    // fingerprint — the pipeline must resume from the memo after the
    // connectors stage, not start over (and not hit the full chain).
    let edited = MigrationConfig::builder()
        .rename_global("VDD", "vdd!")
        .build()
        .expect("valid config");
    let patched = Migrator::new(edited).with_cache(cache.clone());
    let recorder = MemoryRecorder::new();
    let warm = patched.migrate_recorded(source, DialectId::Cascade, &recorder);
    assert_eq!(recorder.counter("migrate.cache.hit"), 0);
    assert_eq!(recorder.counter("migrate.cache.prefix_hit"), 1);
    assert_eq!(recorder.counter("migrate.cache.miss"), 0);

    // The resumed run is byte-identical to a cold run of the same
    // config.
    let edited2 = MigrationConfig::builder()
        .rename_global("VDD", "vdd!")
        .build()
        .expect("valid config");
    let cold = Migrator::new(edited2).migrate(source, DialectId::Cascade);
    assert_eq!(
        schematic::cascade::write(&cold.design),
        schematic::cascade::write(&warm.design)
    );
    assert_eq!(format!("{}", cold.report), format!("{}", warm.report));
}

#[test]
fn quarantined_designs_are_never_cached() {
    let sources = designs(4);
    let cache = Arc::new(MigrationCache::new());
    let migrator = Migrator::default().with_cache(cache.clone());
    let poison = sources[1].name.clone();

    let cfg = BatchConfig {
        threads: 1,
        retry: RetryPolicy::with_attempts(2).base_delay(1),
        // Corrupt output on every attempt: the pipeline *runs* (and
        // caches its result) before the corruption is detected, so the
        // quarantine path must purge the poisoned design's entries.
        fault_plan: FaultPlan::seeded(5).with_fault(poison, .., FaultKind::CorruptOutput),
        timeout_ticks: None,
        abort_after: None,
    };
    let recorder = MemoryRecorder::new();
    let report = migrate_batch(&migrator, &sources, DialectId::Cascade, &cfg, &recorder);
    assert_eq!(report.quarantined.len(), 1);
    assert!(recorder.counter("migrate.cache.purge") >= 1);

    // The poisoned design must miss; the healthy designs stay warm.
    for (i, source) in sources.iter().enumerate() {
        let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
        let hash = interop_core::hash::hash_of(source);
        let looked = cache.lookup(hash, &chain);
        if i == 1 {
            assert!(matches!(looked, Lookup::Miss), "poison must not be cached");
        } else {
            assert!(
                matches!(looked, Lookup::Hit(_)),
                "healthy design {i} stays warm"
            );
        }
    }
}

#[test]
fn disk_tier_survives_a_process_restart() {
    let dir = std::env::temp_dir().join(format!("migrate-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let source = &designs(1)[0];

    let cold_cache = Arc::new(MigrationCache::new().with_disk_tier(&dir));
    let cold = Migrator::default()
        .with_cache(cold_cache.clone())
        .migrate(source, DialectId::Cascade);
    assert!(
        cold_cache.stats().disk_stores >= 1,
        "clean run reaches disk"
    );
    drop(cold_cache);

    // A fresh cache (new "process") warms up from the disk tier.
    let warm_cache = Arc::new(MigrationCache::new().with_disk_tier(&dir));
    let recorder = MemoryRecorder::new();
    let warm = Migrator::default()
        .with_cache(warm_cache.clone())
        .migrate_recorded(source, DialectId::Cascade, &recorder);
    assert_eq!(recorder.counter("migrate.cache.hit"), 1);
    assert_eq!(warm_cache.stats().disk_hits, 1);
    assert_eq!(
        schematic::cascade::write(&cold.design),
        schematic::cascade::write(&warm.design)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any generated design, a warm re-run is byte-identical to the
    /// cold run and is served entirely from cache.
    #[test]
    fn warm_rerun_matches_cold_for_any_design(seed in 0u64..500) {
        let source = generate(&GenConfig { seed, ..GenConfig::default() });
        let cache = Arc::new(MigrationCache::new());
        let migrator = Migrator::default().with_cache(cache.clone());
        let cold = migrator.migrate(&source, DialectId::Cascade);
        let recorder = MemoryRecorder::new();
        let warm = migrator.migrate_recorded(&source, DialectId::Cascade, &recorder);
        prop_assert_eq!(recorder.counter("migrate.cache.hit"), 1);
        prop_assert_eq!(
            schematic::cascade::write(&cold.design),
            schematic::cascade::write(&warm.design)
        );
        prop_assert_eq!(cold.design, warm.design);
    }
}
