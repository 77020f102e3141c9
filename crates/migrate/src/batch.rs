//! Parallel, fault-tolerant batch migration.
//!
//! The paper's Exar case study migrated "approximately 1200 schematic
//! pages" — a batch problem that must survive a crash without redoing
//! finished work. [`migrate_batch`] migrates N designs on the
//! [`interop_core::par`] work-stealing pool. Every design runs under
//! panic isolation and the configured [`RetryPolicy`]; a design that
//! exhausts its budget lands on the quarantine list while the rest of
//! the batch completes. Within one design, the migrator may
//! additionally process independent pages concurrently (see
//! [`Migrator::with_parallelism`]).
//!
//! ## Determinism
//!
//! Each design migration is independent and deterministic, and every
//! result is written into an index-addressed slot, so the results are
//! in input order and byte-identical to a sequential run regardless of
//! thread count or steal interleaving.
//!
//! ## Resume
//!
//! A batch resumes through the migrator's [`MigrationCache`]: give it a
//! disk tier ([`MigrationCache::with_disk_tier`]) and re-run the same
//! batch over the same directory after a crash. Every design whose
//! full-chain outcome is already on disk comes back as
//! [`DesignResult::Restored`] without running a stage; only the
//! remainder executes.
//!
//! ```
//! use migrate::batch::{migrate_batch, BatchConfig};
//! use migrate::Migrator;
//! use obs::NullRecorder;
//! use schematic::dialect::DialectId;
//! use schematic::gen::{generate, GenConfig};
//!
//! let designs: Vec<_> = (0..4)
//!     .map(|seed| generate(&GenConfig { seed, ..GenConfig::default() }))
//!     .collect();
//! let report = migrate_batch(
//!     &Migrator::default(),
//!     &designs,
//!     DialectId::Cascade,
//!     &BatchConfig::with_threads(2),
//!     &NullRecorder,
//! );
//! assert_eq!(report.executed, 4);
//! assert!(report
//!     .results
//!     .iter()
//!     .all(|r| r.design().is_some_and(|d| d.dialect == DialectId::Cascade)));
//! ```
//!
//! [`MigrationCache`]: crate::cache::MigrationCache
//! [`MigrationCache::with_disk_tier`]: crate::cache::MigrationCache::with_disk_tier

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

use interop_core::fault::{FaultKind, FaultPlan, RetryPolicy, VirtualClock};
use interop_core::par;
use obs::{AttrValue, Recorder, Span};
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::parse::ParseError;

use crate::pipeline::{MigrationOutcome, Migrator};

/// Tuning for a batch run. The default injects no faults.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads migrating designs concurrently (1 = sequential).
    pub threads: usize,
    /// Per-design retry budget with backoff on the virtual clock.
    pub retry: RetryPolicy,
    /// Deterministic chaos schedule (sites are design names).
    pub fault_plan: FaultPlan,
    /// Per-attempt latency budget in virtual ticks (`None` =
    /// unlimited): injected latency beyond this fails the attempt.
    pub timeout_ticks: Option<u64>,
    /// Stop taking new designs after this many finish in this run —
    /// the deterministic "kill the batch partway" switch used to
    /// exercise resume.
    pub abort_after: Option<usize>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            threads: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            retry: RetryPolicy::with_attempts(3),
            fault_plan: FaultPlan::none(),
            timeout_ticks: None,
            abort_after: None,
        }
    }
}

impl BatchConfig {
    /// A fault-free batch config with a fixed worker count (clamped to
    /// ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig {
            threads: threads.max(1),
            ..BatchConfig::default()
        }
    }
}

/// Serializes a design in the target dialect's canonical text form.
pub(crate) fn write_design(design: &Design, target: DialectId) -> String {
    match target {
        DialectId::Cascade => schematic::cascade::write(design),
        DialectId::Viewstar => schematic::viewstar::write(design),
    }
}

/// Parses target-dialect text back into a design.
pub(crate) fn parse_design(text: &str, target: DialectId) -> Result<Design, ParseError> {
    match target {
        DialectId::Cascade => schematic::cascade::parse(text),
        DialectId::Viewstar => schematic::viewstar::parse(text),
    }
}

/// Why a design landed in quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Input index of the design.
    pub index: usize,
    /// Design name.
    pub name: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The last attempt's failure (a positioned parse error for
    /// corrupted output, a panic message for crashes, ...).
    pub error: String,
}

/// Per-design outcome of a batch run.
#[derive(Debug, Clone)]
pub enum DesignResult {
    /// Migrated in this run.
    Migrated(MigrationOutcome),
    /// Its first attempt was served whole from the migrator's cache
    /// (memory or disk tier): no stage ran for it in this run.
    Restored(MigrationOutcome),
    /// Poison design: every attempt failed; the rest of the batch
    /// completed without it.
    Quarantined(QuarantineEntry),
    /// The run was aborted (see [`BatchConfig::abort_after`]) before
    /// this design was taken.
    Skipped,
}

impl DesignResult {
    /// The migration outcome, when this design is healthy.
    pub fn outcome(&self) -> Option<&MigrationOutcome> {
        match self {
            DesignResult::Migrated(o) | DesignResult::Restored(o) => Some(o),
            DesignResult::Quarantined(_) | DesignResult::Skipped => None,
        }
    }

    /// The migrated design, when this design is healthy.
    pub fn design(&self) -> Option<&Design> {
        self.outcome().map(|o| &o.design)
    }

    /// True for quarantined designs.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, DesignResult::Quarantined(_))
    }
}

/// What a batch run did.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-design results, in input order.
    pub results: Vec<DesignResult>,
    /// Quarantined designs (also present in `results`).
    pub quarantined: Vec<QuarantineEntry>,
    /// Designs actually migrated in this run.
    pub executed: usize,
    /// Designs restored from the cache without re-running.
    pub restored: usize,
    /// Designs skipped because the run aborted first.
    pub skipped: usize,
    /// Retry attempts beyond each design's first.
    pub retries: u64,
    /// Faults injected by the plan.
    pub faults_injected: u64,
    /// Virtual ticks of injected latency and backoff absorbed.
    pub virtual_ticks: u64,
}

impl BatchReport {
    /// True when every design is either healthy or quarantined —
    /// nothing was skipped by an abort.
    pub fn is_settled(&self) -> bool {
        self.skipped == 0
    }
}

/// What one attempt at a design produced.
enum DesignAttempt {
    /// The migration, and whether the cache served it whole.
    Ok(MigrationOutcome, bool),
    Failed {
        error: String,
        retryable: bool,
    },
}

/// Runs one migration attempt under the fault plan: injected latency
/// against the timeout budget, synthetic transient/persistent errors,
/// panic isolation, and output corruption checked by re-parsing the
/// serialized result (the corrupted artifact is discarded — a retry
/// re-runs from the pristine source).
fn attempt_design(
    migrator: &Migrator,
    source: &Design,
    target: DialectId,
    attempt: u32,
    cfg: &BatchConfig,
    chaos: &Chaos,
    recorder: &dyn Recorder,
) -> DesignAttempt {
    let name = source.name.as_str();
    let fault = cfg.fault_plan.fault_for(name, attempt);
    if fault.is_some() {
        chaos.faults.fetch_add(1, Ordering::Relaxed);
        recorder.add_counter("migrate.batch.faults.injected", 1);
    }
    match fault {
        Some(FaultKind::Latency(d)) => {
            if let Some(budget) = cfg.timeout_ticks {
                if d > budget {
                    chaos.clock.advance(budget);
                    recorder.add_counter("migrate.batch.timeouts", 1);
                    return DesignAttempt::Failed {
                        error: format!("timed out after {budget} virtual ticks (tool needed {d})"),
                        retryable: true,
                    };
                }
            }
            chaos.clock.advance(d);
        }
        Some(FaultKind::TransientError) => {
            return DesignAttempt::Failed {
                error: format!("injected transient error (attempt {attempt})"),
                retryable: true,
            };
        }
        Some(FaultKind::PersistentError) => {
            return DesignAttempt::Failed {
                error: format!("injected persistent error (attempt {attempt})"),
                retryable: false,
            };
        }
        _ => {}
    }

    // Panic isolation: a crashing stage (or the injected crash) fails
    // this design's attempt without poisoning the worker thread.
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        if fault == Some(FaultKind::Panic) {
            panic!("injected fault: migrator crash on `{name}` (attempt {attempt})");
        }
        migrator.migrate_reporting_hit(source, target, recorder)
    }));
    let (outcome, hit) = match caught {
        Ok(done) => done,
        Err(payload) => {
            recorder.add_counter("migrate.batch.panics", 1);
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return DesignAttempt::Failed {
                error: format!("panicked: {msg}"),
                retryable: true,
            };
        }
    };

    if let Some(kind @ (FaultKind::CorruptOutput | FaultKind::TruncateOutput)) = fault {
        // The "tool" wrote garbage: what lands on disk is the mangled
        // text. Re-parsing it is how the damage is detected — the
        // resulting positioned ParseError becomes the attempt's error.
        let text = write_design(&outcome.design, target);
        let mangled = cfg.fault_plan.mangle(kind, name, &text).unwrap_or_default();
        let error = match parse_design(&mangled, target) {
            Err(e) => e.to_string(),
            Ok(_) => format!("injected {kind} produced undetectably corrupt output"),
        };
        return DesignAttempt::Failed {
            error,
            retryable: true,
        };
    }
    DesignAttempt::Ok(outcome, hit)
}

/// Chaos accounting shared across workers.
#[derive(Default)]
struct Chaos {
    clock: VirtualClock,
    retries: AtomicU64,
    faults: AtomicU64,
}

/// Migrates a design until it succeeds or exhausts the retry budget.
fn migrate_with_retry(
    migrator: &Migrator,
    index: usize,
    source: &Design,
    target: DialectId,
    cfg: &BatchConfig,
    chaos: &Chaos,
    recorder: &dyn Recorder,
) -> DesignResult {
    let name = source.name.clone();
    let last_error;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if attempt > 1 {
            chaos.retries.fetch_add(1, Ordering::Relaxed);
            recorder.add_counter("migrate.batch.retries", 1);
            chaos
                .clock
                .advance(cfg.retry.delay_after(attempt - 1, &name));
        }
        match attempt_design(migrator, source, target, attempt, cfg, chaos, recorder) {
            // A whole-chain hit on a retry was cached by this run's
            // failed attempt, so only a first-attempt hit is a restore.
            DesignAttempt::Ok(outcome, true) if attempt == 1 => {
                recorder.add_counter("migrate.batch.restored", 1);
                return DesignResult::Restored(outcome);
            }
            DesignAttempt::Ok(outcome, _) => return DesignResult::Migrated(outcome),
            DesignAttempt::Failed { error, retryable } => {
                if !retryable || !cfg.retry.may_retry(attempt) {
                    last_error = error;
                    break;
                }
            }
        }
    }
    recorder.add_counter("migrate.batch.quarantined", 1);
    // A corrupt-output fault is detected only *after* the pipeline ran
    // and cached its (genuinely computed, but now untrusted) result —
    // a quarantined design must never be served warm.
    if let Some(cache) = migrator.cache() {
        cache.purge_design(interop_core::hash::hash_of(source));
        recorder.add_counter("migrate.cache.purge", 1);
    }
    obs::event(
        recorder,
        "migrate.batch.quarantine",
        &[
            ("design", AttrValue::Str(name.clone())),
            ("attempts", AttrValue::Int(attempt as i64)),
            ("error", AttrValue::Str(last_error.clone())),
        ],
    );
    DesignResult::Quarantined(QuarantineEntry {
        index,
        name,
        attempts: attempt,
        error: last_error,
    })
}

/// Migrates every design in `sources` to `target` on `cfg.threads`
/// workers, with quarantine, and resume through the migrator's cache.
///
/// Results are in input order; healthy designs' outputs are
/// byte-identical to a sequential, fault-free run. A design whose
/// full-chain outcome the migrator's cache already holds — including a
/// disk tier written by an earlier, killed run — is reported as
/// [`DesignResult::Restored`] and runs no stage.
///
/// Observability: a `migrate.batch` span for the whole run, the pool's
/// `migrate.batch.worker` spans, `migrate.batch.steals` counter and
/// `migrate.batch.queue_depth` histogram (see [`par::map`]),
/// per-design pipeline spans (see [`Migrator::migrate_recorded`]),
/// counters `migrate.batch.designs` / `migrate.batch.retries` /
/// `migrate.batch.timeouts` / `migrate.batch.panics` /
/// `migrate.batch.faults.injected` / `migrate.batch.quarantined` /
/// `migrate.batch.restored`, and a `migrate.batch.quarantine` event per
/// poisoned design. Pipeline and stage spans carry a `design`
/// attribute, so a *stolen* job's spans attribute to the design they
/// serve, not to the thread that ran them.
pub fn migrate_batch(
    migrator: &Migrator,
    sources: &[Design],
    target: DialectId,
    cfg: &BatchConfig,
    recorder: &dyn Recorder,
) -> BatchReport {
    let batch_span = Span::enter(recorder, "migrate.batch");
    batch_span.attr("designs", sources.len());
    batch_span.attr("threads", cfg.threads);
    recorder.add_counter("migrate.batch.designs", sources.len() as u64);

    let chaos = Chaos::default();
    let finished_cap = cfg.abort_after.unwrap_or(usize::MAX);
    let finished = AtomicUsize::new(0);
    let results = par::map(
        "migrate.batch",
        recorder,
        cfg.threads,
        sources.iter().enumerate(),
        |(index, source)| {
            // Simulated kill: take no new design once the abort budget
            // is spent.
            if finished.load(Ordering::SeqCst) >= finished_cap {
                return DesignResult::Skipped;
            }
            let result = migrate_with_retry(migrator, index, source, target, cfg, &chaos, recorder);
            finished.fetch_add(1, Ordering::SeqCst);
            result
        },
    );

    // Interned names live for the whole process, so the intern table
    // only grows: one reading per batch shows how far.
    let (strings, bytes) = interop_core::intern::stats();
    recorder.record_value("interop_core.intern.strings", strings as u64);
    recorder.record_value("interop_core.intern.bytes", bytes as u64);

    let mut report = BatchReport::default();
    for result in &results {
        match result {
            DesignResult::Migrated(_) => report.executed += 1,
            DesignResult::Restored(_) => report.restored += 1,
            DesignResult::Quarantined(q) => report.quarantined.push(q.clone()),
            DesignResult::Skipped => report.skipped += 1,
        }
    }
    report.results = results;
    report.retries = chaos.retries.load(Ordering::Relaxed);
    report.faults_injected = chaos.faults.load(Ordering::Relaxed);
    report.virtual_ticks = chaos.clock.now();
    batch_span.attr("quarantined", report.quarantined.len());
    batch_span.attr("restored", report.restored);
    batch_span.attr("skipped", report.skipped);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{MemoryRecorder, NullRecorder};
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

    #[test]
    fn batch_output_is_byte_identical_to_sequential() {
        let sources = designs(9);
        let migrator = Migrator::default();
        let sequential: Vec<String> = sources
            .iter()
            .map(|d| schematic::cascade::write(&migrator.migrate(d, DialectId::Cascade).design))
            .collect();
        for threads in [2, 4, 8] {
            let outcomes = migrate_batch(
                &migrator,
                &sources,
                DialectId::Cascade,
                &BatchConfig::with_threads(threads),
                &NullRecorder,
            )
            .results;
            let parallel: Vec<String> = outcomes
                .iter()
                .map(|o| schematic::cascade::write(o.design().expect("healthy")))
                .collect();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn page_parallel_batch_is_also_identical() {
        let sources = designs(4);
        let plain = Migrator::default();
        let paged = Migrator::default().with_parallelism(4);
        let a = migrate_batch(
            &plain,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(1),
            &NullRecorder,
        )
        .results;
        let b = migrate_batch(
            &paged,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(4),
            &NullRecorder,
        )
        .results;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                schematic::cascade::write(x.design().expect("healthy")),
                schematic::cascade::write(y.design().expect("healthy"))
            );
        }
    }

    #[test]
    fn recorder_sees_every_design_and_stage_span() {
        let sources = designs(6);
        let recorder = MemoryRecorder::new();
        let migrator = Migrator::default();
        let outcomes = migrate_batch(
            &migrator,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(3),
            &recorder,
        )
        .results;
        assert_eq!(outcomes.len(), 6);
        assert_eq!(recorder.span_count("migrate.batch"), 1);
        assert_eq!(recorder.span_count("migrate.pipeline"), 6);
        assert_eq!(recorder.counter("migrate.batch.designs"), 6);
        for id in migrator.stage_ids() {
            assert_eq!(
                recorder.span_count(&format!("migrate.stage.{}", id.name())),
                6,
                "stage {} should run once per design",
                id.name()
            );
        }
    }

    #[test]
    fn batch_records_the_intern_table_size() {
        let recorder = MemoryRecorder::new();
        migrate_batch(
            &Migrator::default(),
            &designs(2),
            DialectId::Cascade,
            &BatchConfig::with_threads(1),
            &recorder,
        );
        for name in ["interop_core.intern.strings", "interop_core.intern.bytes"] {
            let gauge = recorder.histogram(name).expect("gauge recorded");
            assert_eq!(gauge.count, 1, "{name}: one reading per batch");
            assert!(gauge.max > 0, "{name}: the batch interned names");
        }
    }

    #[test]
    fn eight_thread_batch_attributes_spans_to_the_right_design() {
        use obs::{AttrValue, TraceRecorder};
        use std::collections::BTreeMap;

        let sources = designs(12);
        let migrator = Migrator::default();
        let sequential: Vec<String> = sources
            .iter()
            .map(|d| schematic::cascade::write(&migrator.migrate(d, DialectId::Cascade).design))
            .collect();

        let recorder = TraceRecorder::new();
        let outcomes = migrate_batch(
            &migrator,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(8),
            &recorder,
        )
        .results;

        // Tracing must not perturb results: byte-identical to sequential.
        let parallel: Vec<String> = outcomes
            .iter()
            .map(|o| schematic::cascade::write(o.design().expect("healthy")))
            .collect();
        assert_eq!(parallel, sequential);

        let spans = recorder.finished_spans();
        let by_id: BTreeMap<_, _> = spans.iter().map(|s| (s.id, s)).collect();
        let batch = spans
            .iter()
            .find(|s| s.name == "migrate.batch")
            .expect("batch span recorded");

        // Every worker span hangs off the batch span (cross-thread
        // handoff), and every pipeline span hangs off a worker span.
        let workers: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "migrate.batch.worker")
            .collect();
        assert_eq!(workers.len(), 8);
        for w in &workers {
            assert_eq!(w.parent, Some(batch.id));
        }

        // Key every stage span on the design-name attribute: it must
        // match the design attribute of its parent pipeline span, and
        // each design must get a full complement of stage spans.
        let mut stages_per_design: BTreeMap<String, usize> = BTreeMap::new();
        let stage_count = migrator.stage_ids().len();
        let mut checked = 0usize;
        for stage in spans
            .iter()
            .filter(|s| s.name.starts_with("migrate.stage."))
        {
            let design = match stage.attr("design") {
                Some(AttrValue::Str(name)) => name.clone(),
                other => panic!("stage span missing design attr: {other:?}"),
            };
            let pipeline = by_id[&stage.parent.expect("stage span has a parent")];
            assert_eq!(pipeline.name, "migrate.pipeline");
            assert_eq!(
                pipeline.attr("design"),
                Some(&AttrValue::Str(design.clone())),
                "stage span attributed to the wrong design's pipeline"
            );
            let worker = by_id[&pipeline.parent.expect("pipeline span has a parent")];
            assert_eq!(worker.name, "migrate.batch.worker");
            *stages_per_design.entry(design).or_default() += 1;
            checked += 1;
        }
        assert_eq!(checked, sources.len() * stage_count);
        for source in &sources {
            assert_eq!(
                stages_per_design.get(&source.name),
                Some(&stage_count),
                "design {} missing stage spans",
                source.name
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let outcomes = migrate_batch(
            &Migrator::default(),
            &[],
            DialectId::Cascade,
            &BatchConfig::default(),
            &NullRecorder,
        )
        .results;
        assert!(outcomes.is_empty());
    }

    #[test]
    fn more_threads_than_designs_clamps() {
        let sources = designs(2);
        let outcomes = migrate_batch(
            &Migrator::default(),
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(16),
            &NullRecorder,
        )
        .results;
        assert_eq!(outcomes.len(), 2);
    }
}
