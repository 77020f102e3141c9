//! Chaos tests for the batch migrator: quarantine, byte identity for
//! healthy designs, positioned parse errors from corrupted output, and
//! resume through the cache disk tier after a simulated kill.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use migrate::batch::{migrate_batch, BatchConfig, DesignResult};
use migrate::cache::{Lookup, MigrationCache};
use migrate::{FaultKind, FaultPlan, Migrator, RetryPolicy};
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

/// Fault-free reference output: the canonical text of every design.
fn reference(migrator: &Migrator, sources: &[Design]) -> Vec<String> {
    migrate_batch(
        migrator,
        sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(1),
        &NullRecorder,
    )
    .results
    .iter()
    .map(|r| schematic::cascade::write(r.design().expect("fault-free")))
    .collect()
}

/// A fresh, per-test disk-tier directory.
fn tier_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("migrate-chaos-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A migrator over a fresh cache whose disk tier is `dir` — a new
/// "process" sees only what earlier ones left on disk.
fn tiered(dir: &Path) -> (Migrator, Arc<MigrationCache>) {
    let cache = Arc::new(MigrationCache::new().with_disk_tier(dir));
    (Migrator::default().with_cache(cache.clone()), cache)
}

/// The design's finished migration as a fresh process would restore it
/// from the disk tier under `dir`.
fn restore(dir: &Path, source: &Design) -> Option<Design> {
    let (migrator, cache) = tiered(dir);
    let chain = migrator.stage_chain(source.dialect, DialectId::Cascade);
    match cache.lookup(interop_core::hash::hash_of(source), &chain) {
        Lookup::Hit(run) => Some(run.design),
        _ => None,
    }
}

#[test]
fn poison_design_is_quarantined_and_healthy_designs_stay_byte_identical() {
    let sources = designs(8);
    let migrator = Migrator::default();
    let clean = reference(&migrator, &sources);
    let poison = sources[3].name.clone();

    for threads in [1, 8] {
        let dir = tier_dir(&format!("poison-{threads}"));
        let (tiered_migrator, _cache) = tiered(&dir);
        let cfg = BatchConfig {
            threads,
            retry: RetryPolicy::with_attempts(3).base_delay(1),
            fault_plan: FaultPlan::seeded(11).with_fault(
                poison.clone(),
                ..,
                FaultKind::PersistentError,
            ),
            timeout_ticks: None,
            abort_after: None,
        };
        let report = migrate_batch(
            &tiered_migrator,
            &sources,
            DialectId::Cascade,
            &cfg,
            &NullRecorder,
        );

        assert!(report.is_settled());
        assert_eq!(report.quarantined.len(), 1, "threads={threads}");
        let q = &report.quarantined[0];
        assert_eq!(q.index, 3);
        assert_eq!(q.name, poison);
        // Persistent poison quarantines on the first attempt.
        assert_eq!(q.attempts, 1);
        assert!(q.error.contains("persistent"), "{}", q.error);
        // Every healthy design's output matches the fault-free run.
        for (i, r) in report.results.iter().enumerate() {
            if i == 3 {
                assert!(r.is_quarantined());
                assert!(restore(&dir, &sources[i]).is_none());
            } else {
                let d = r.design().expect("healthy design");
                assert_eq!(
                    schematic::cascade::write(d),
                    clean[i],
                    "threads={threads} design={i}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupt_output_surfaces_a_positioned_parse_error_at_1_and_8_threads() {
    let sources = designs(6);
    let migrator = Migrator::default();
    let victim = sources[2].name.clone();

    for threads in [1, 8] {
        let cfg = BatchConfig {
            threads,
            // Single attempt so the parse error is the final verdict.
            retry: RetryPolicy::with_attempts(1),
            fault_plan: FaultPlan::seeded(5).with_fault(
                victim.clone(),
                ..,
                FaultKind::CorruptOutput,
            ),
            timeout_ticks: None,
            abort_after: None,
        };
        let report = migrate_batch(&migrator, &sources, DialectId::Cascade, &cfg, &NullRecorder);
        assert_eq!(report.quarantined.len(), 1, "threads={threads}");
        let q = &report.quarantined[0];
        assert_eq!(q.name, victim);
        // The corrupted artifact was *parsed*, not trusted: the error
        // is a positioned ParseError rendered with line/column, never a
        // panic.
        assert!(
            q.error.contains("parse error at line"),
            "threads={threads}: {}",
            q.error
        );
    }
}

#[test]
fn truncated_output_is_also_caught_by_reparsing() {
    let sources = designs(4);
    let migrator = Migrator::default();
    let victim = sources[1].name.clone();
    let cfg = BatchConfig {
        threads: 2,
        retry: RetryPolicy::with_attempts(1),
        fault_plan: FaultPlan::seeded(9).with_fault(victim, .., FaultKind::TruncateOutput),
        timeout_ticks: None,
        abort_after: None,
    };
    let report = migrate_batch(&migrator, &sources, DialectId::Cascade, &cfg, &NullRecorder);
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].error.contains("parse error"),
        "{}",
        report.quarantined[0].error
    );
}

#[test]
fn transient_faults_retry_to_a_clean_batch() {
    let sources = designs(6);
    let migrator = Migrator::default();
    let clean = reference(&migrator, &sources);
    // Every design panics on attempt 1 and corrupts on attempt 2; the
    // third attempt runs clean.
    let mut plan = FaultPlan::seeded(3);
    for d in &sources {
        plan = plan
            .with_fault(d.name.clone(), 1..=1, FaultKind::Panic)
            .with_fault(d.name.clone(), 2..=2, FaultKind::CorruptOutput);
    }
    let recorder = MemoryRecorder::new();
    let cfg = BatchConfig {
        threads: 4,
        retry: RetryPolicy::with_attempts(3).base_delay(2),
        fault_plan: plan,
        timeout_ticks: None,
        abort_after: None,
    };
    let dir = tier_dir("transient");
    let (tiered_migrator, cache) = tiered(&dir);
    let report = migrate_batch(
        &tiered_migrator,
        &sources,
        DialectId::Cascade,
        &cfg,
        &recorder,
    );

    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.retries, 12, "two retries per design");
    assert_eq!(report.faults_injected, 12);
    assert_eq!(recorder.counter("migrate.batch.panics"), 6);
    assert_eq!(recorder.counter("migrate.batch.retries"), 12);
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(
            schematic::cascade::write(r.design().expect("healthy")),
            clean[i]
        );
    }
    // The disk tier holds every design, byte-identical.
    assert_eq!(cache.stats().disk_stores, 6);
    for (source, text) in sources.iter().zip(&clean) {
        let restored = restore(&dir, source).expect("on disk");
        assert_eq!(&schematic::cascade::write(&restored), text);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_batch_resumes_from_the_disk_tier_without_rerunning_finished_designs() {
    let mut sources = designs(10);
    // Design 0 (always finished first: it heads worker 0's queue) logs
    // a bus-stage issue, which must not keep it from being restored.
    let label = sources[0]
        .cells_mut()
        .flat_map(|cell| cell.sheets.iter_mut())
        .flat_map(|sheet| sheet.wires.iter_mut())
        .find_map(|wire| wire.label.as_mut())
        .expect("generated designs label their wires");
    label.text = "9bad".into();
    let clean = reference(&Migrator::default(), &sources);
    let dir = tier_dir("resume");

    // First run: the "kill switch" stops the batch after 4 designs.
    let kill_cfg = BatchConfig {
        threads: 2,
        retry: RetryPolicy::with_attempts(2).base_delay(1),
        fault_plan: FaultPlan::none(),
        timeout_ticks: None,
        abort_after: Some(4),
    };
    let (migrator, cache) = tiered(&dir);
    let first = migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &kill_cfg,
        &NullRecorder,
    );
    assert!(first.skipped > 0, "the kill must leave work undone");
    assert!(!first.is_settled());
    let finished_first = first.executed;
    assert_eq!(cache.stats().disk_stores as usize, finished_first);

    // Process death: the cache and migrator go; only the disk tier
    // survives into the next run.
    drop((migrator, cache));
    let (migrator, _cache) = tiered(&dir);

    // Second run resumes: finished designs come back from the disk
    // tier, only the remainder executes.
    let resume_cfg = BatchConfig {
        threads: 2,
        retry: RetryPolicy::with_attempts(2).base_delay(1),
        fault_plan: FaultPlan::none(),
        timeout_ticks: None,
        abort_after: None,
    };
    let recorder = MemoryRecorder::new();
    let second = migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &resume_cfg,
        &recorder,
    );

    assert!(second.is_settled());
    assert_eq!(second.restored, finished_first);
    let remaining = sources.len() - finished_first;
    assert_eq!(second.executed, remaining);
    // "Without redoing finished designs": every stage ran exactly once
    // per *remaining* design.
    for id in migrator.stage_ids() {
        assert_eq!(
            recorder.span_count(&format!("migrate.stage.{}", id.name())),
            remaining,
            "stage {}",
            id.name()
        );
    }
    assert_eq!(
        recorder.counter("migrate.batch.restored"),
        finished_first as u64
    );
    // The design with issues comes back from disk, issues included.
    let fresh = Migrator::default().migrate(&sources[0], DialectId::Cascade);
    assert!(!fresh.report.is_clean());
    match &second.results[0] {
        DesignResult::Restored(o) => assert_eq!(o.report.to_string(), fresh.report.to_string()),
        other => panic!("the design with issues must be restored, got {other:?}"),
    }
    // And the union is byte-identical to the fault-free run.
    for (i, r) in second.results.iter().enumerate() {
        assert_eq!(
            schematic::cascade::write(r.design().expect("healthy")),
            clean[i],
            "design {i}"
        );
    }
    // Every design is now on disk.
    assert!(sources.iter().all(|d| restore(&dir, d).is_some()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_larger_batch_restores_exactly_the_designs_already_on_disk() {
    let dir = tier_dir("superset");
    let (migrator, _cache) = tiered(&dir);
    migrate_batch(
        &migrator,
        &designs(3),
        DialectId::Cascade,
        &BatchConfig::with_threads(1),
        &NullRecorder,
    );

    // A different design set over the same tier: content addressing
    // restores the three shared designs and executes only the new one.
    let other = designs(4);
    let (migrator, _cache) = tiered(&dir);
    let report = migrate_batch(
        &migrator,
        &other,
        DialectId::Cascade,
        &BatchConfig::with_threads(1),
        &NullRecorder,
    );
    assert_eq!(report.restored, 3);
    assert_eq!(report.executed, 1);
    let clean = reference(&Migrator::default(), &other);
    for (r, text) in report.results.iter().zip(&clean) {
        assert_eq!(
            &schematic::cascade::write(r.design().expect("healthy")),
            text
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seeded background chaos with a patient retry budget: the batch
    /// always settles, quarantine only ever holds designs the plan
    /// actually faulted, and every healthy output is byte-identical to
    /// the fault-free run regardless of thread count.
    #[test]
    fn seeded_chaos_batches_settle_with_byte_identical_healthy_output(
        seed in 0u64..200,
        threads in prop::sample::select(vec![1usize, 8]),
    ) {
        let sources = designs(6);
        let migrator = Migrator::default();
        let clean = reference(&migrator, &sources);
        let plan = FaultPlan::seeded(seed).with_rate(30);
        let cfg = BatchConfig {
            threads,
            retry: RetryPolicy::with_attempts(5).base_delay(1).jitter(seed),
            fault_plan: plan.clone(),
            timeout_ticks: Some(40),
            abort_after: None,
        };
        let report = migrate_batch(
            &migrator,
            &sources,
            DialectId::Cascade,
            &cfg,
            &NullRecorder,
        );

        prop_assert!(report.is_settled());
        for q in &report.quarantined {
            // A quarantined design must have drawn at least one fault.
            let faulted = (1..=5u32).any(|a| plan.fault_for(&q.name, a).is_some());
            prop_assert!(faulted, "{} quarantined without a fault", q.name);
        }
        for (i, r) in report.results.iter().enumerate() {
            if let Some(d) = r.design() {
                prop_assert_eq!(
                    schematic::cascade::write(d),
                    clean[i].clone(),
                    "seed={} threads={} design={}",
                    seed,
                    threads,
                    i
                );
            }
        }
    }
}
