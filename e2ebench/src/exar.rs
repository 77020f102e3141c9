//! The Exar workloads: Viewstar text → parse → migrate (cached) →
//! Cascade text → re-parse → verify, over a batch of ~1200 pages.
//!
//! `exar_cold` gives every pass a fresh, empty cache. `exar_rerun`
//! warms one cache in set-up and then, on every pass, adds one
//! `globals_map` entry (so clean designs resume from a prefix memo) and
//! edits a small fixed set of designs (so those miss).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{self, CacheStats, Design, MigrationCache, Migrator, Stages, VerifyReport};
use crate::measure::{self, ms_since, Tracer};
use crate::{Measured, Params, Tamper, Values, Workload, STAGES, VERIFY_STEPS};

const VIEWSTAR_PARSE: &str = "schematic.viewstar.parse";
const PIPELINE: &str = "migrate.pipeline";
const CASCADE_WRITE: &str = "schematic.cascade.write";
const CASCADE_PARSE: &str = "schematic.cascade.parse";
const VERIFY: &str = "migrate.verify";
const HASH: &str = "interop_core.hash";

/// The batch, its checked references and, on re-runs, the warm cache.
struct Batch {
    rerun: bool,
    texts: Vec<String>,
    pages: usize,
    input_bytes: usize,
    /// Parsed sources, the base of each pass's source edits.
    sources: Vec<Design>,
    /// Cascade text of an uncached single-threaded migration.
    reference: Vec<String>,
    dirty: Vec<usize>,
    cache: Option<Arc<MigrationCache>>,
    /// First stage a knob edit invalidates.
    resume: usize,
}

/// Generator seeds of the batch's designs: disjoint across benchmark
/// seeds.
fn design_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index as u64)
}

fn setup(p: &Params) -> Batch {
    let n = p.scale.designs;
    let texts: Vec<String> = (0..n)
        .map(|i| adapter::write_viewstar(&adapter::generate_design(design_seed(p.seed, i))))
        .collect();
    let sources: Vec<Design> = texts
        .iter()
        .map(|t| adapter::parse_viewstar(t).expect("generated Viewstar text parses"))
        .collect();
    let plain = adapter::migrator(adapter::exar_config(), None);
    assert_eq!(
        Stages::of(&plain).names(),
        STAGES,
        "stage names are the per-layer metric names"
    );
    let reference = sources
        .iter()
        .map(|s| adapter::write_cascade(&adapter::migrate(&plain, s)))
        .collect();
    let rerun = p.workload == Workload::ExarRerun;
    let dirty = if rerun {
        let d = p.scale.dirty.min(n);
        (0..d).map(|j| j * n / d).collect()
    } else {
        Vec::new()
    };
    let (cache, resume) = if rerun {
        let cache = Arc::new(MigrationCache::new());
        let warm = adapter::migrator(adapter::exar_config(), Some(Arc::clone(&cache)));
        for s in &sources {
            adapter::migrate(&warm, s);
        }
        let edited = adapter::migrator(adapter::exar_config_with_knob("0"), None);
        (
            Some(cache),
            adapter::first_invalidated_stage(&warm, &edited),
        )
    } else {
        (None, 0)
    };
    Batch {
        rerun,
        pages: sources.iter().map(adapter::page_count).sum(),
        input_bytes: texts.iter().map(String::len).sum(),
        texts,
        sources,
        reference,
        dirty,
        cache,
        resume,
    }
}

/// One pass's migrator and inputs.
struct Pass {
    migrator: Migrator,
    cache: Arc<MigrationCache>,
    stages: Stages,
    /// Dirty designs: edited Viewstar text and its reference output.
    edited: BTreeMap<usize, (String, String)>,
}

/// One design taken through the flow.
struct Flowed {
    source: Design,
    migrated: Design,
    text: String,
    reparsed: Design,
    verdict: VerifyReport,
    /// Index of the first stage the pipeline executed (all of them
    /// after a miss, none after a full hit). Known only when tracing.
    resumed_at: usize,
}

/// What one pass measured.
#[derive(Default)]
struct PassRun {
    wall_ms: f64,
    item_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    cache: CacheStats,
}

impl Batch {
    /// Prepares pass `k`; none of this is timed.
    fn pass(&self, k: u64) -> Pass {
        if !self.rerun {
            let cache = Arc::new(MigrationCache::new());
            let migrator = adapter::migrator(adapter::exar_config(), Some(Arc::clone(&cache)));
            return Pass {
                stages: Stages::of(&migrator),
                migrator,
                cache,
                edited: BTreeMap::new(),
            };
        }
        let tag = k.to_string();
        let plain = adapter::migrator(adapter::exar_config_with_knob(&tag), None);
        let edited = self
            .dirty
            .iter()
            .map(|&i| {
                let mut design = self.sources[i].clone();
                adapter::edit_source(&mut design, &tag);
                let text = adapter::write_viewstar(&design);
                let source = adapter::parse_viewstar(&text).expect("edited Viewstar text parses");
                let reference = adapter::write_cascade(&adapter::migrate(&plain, &source));
                (i, (text, reference))
            })
            .collect();
        let cache = Arc::clone(self.cache.as_ref().expect("re-runs keep a warm cache"));
        let migrator = adapter::migrator(
            adapter::exar_config_with_knob(&tag),
            Some(Arc::clone(&cache)),
        );
        Pass {
            stages: Stages::of(&migrator),
            migrator,
            cache,
            edited,
        }
    }

    fn text<'a>(&'a self, pass: &'a Pass, i: usize) -> &'a str {
        pass.edited.get(&i).map_or(&self.texts[i], |e| &e.0)
    }

    fn reference<'a>(&'a self, pass: &'a Pass, i: usize) -> &'a str {
        pass.edited.get(&i).map_or(&self.reference[i], |e| &e.1)
    }

    /// The flow a user runs on one design, each layer call in a span.
    fn flow(
        &self,
        pass: &Pass,
        i: usize,
        tamper: Tamper,
        t: &mut Tracer,
    ) -> Result<Flowed, String> {
        let source = t.span(VIEWSTAR_PARSE, || {
            adapter::parse_viewstar(self.text(pass, i))
        })?;
        let before = t.is_on().then(|| adapter::cache_stats(&pass.cache));
        let migrated = t.span(PIPELINE, || adapter::migrate(&pass.migrator, &source));
        let resumed_at = match before {
            Some(before) => {
                let after = adapter::cache_stats(&pass.cache);
                if after.hits > before.hits {
                    STAGES.len()
                } else if after.prefix_hits > before.prefix_hits {
                    self.resume
                } else {
                    0
                }
            }
            None => 0,
        };
        let mut text = t.span(CASCADE_WRITE, || adapter::write_cascade(&migrated));
        if tamper == Tamper::CorruptEmit {
            text.push('\n');
        }
        let reparsed = t.span(CASCADE_PARSE, || adapter::parse_cascade(&text))?;
        let verdict = t.span(VERIFY, || {
            adapter::verify(&pass.migrator, &source, &reparsed)
        });
        Ok(Flowed {
            source,
            migrated,
            text,
            reparsed,
            verdict,
            resumed_at,
        })
    }

    /// The correctness gate: byte-identical output, a verified
    /// migration, and a Cascade round trip that gives the design back.
    fn check(&self, pass: &Pass, i: usize, f: &Flowed) -> bool {
        f.text == self.reference(pass, i)
            && adapter::is_verified(&f.verdict)
            && f.reparsed == f.migrated
    }

    /// Traced runs only: times the parts of the two opaque layer calls
    /// — the fingerprint and each stage the pipeline ran, and each step
    /// of verify — by calling them one at a time. Checks that the
    /// stages reproduce the pipeline's output and the steps its
    /// verdict.
    fn probe(&self, pass: &Pass, f: &Flowed, t: &mut Tracer) -> bool {
        t.span(HASH, || adapter::fingerprint(&f.source));
        let mut design = f.source.clone();
        for (k, name) in STAGES.iter().enumerate() {
            if k >= f.resumed_at {
                t.span(&format!("migrate.stage.{name}"), || {
                    pass.stages.run(k, &mut design)
                });
            } else {
                pass.stages.run(k, &mut design);
            }
        }
        pass.stages.finish(&mut design);
        let [extract_src, extract_dst, normalize, compare, conformance] =
            VERIFY_STEPS.map(|step| format!("migrate.verify.{step}"));
        let (src_nl, src_errors) = t.span(&extract_src, || adapter::extract_source(&f.source));
        let (dst_nl, dst_errors) = t.span(&extract_dst, || adapter::extract_target(&f.reparsed));
        let normalized = t.span(&normalize, || adapter::normalize(&src_nl, &pass.migrator));
        let diff = t.span(&compare, || adapter::compare_netlists(&normalized, &dst_nl));
        let violations = t.span(&conformance, || adapter::conformance(&f.reparsed));
        let stepwise = adapter::verify_report(diff, src_errors, dst_errors, violations);
        design == f.migrated && adapter::same_verdict(&stepwise, &f.verdict)
    }

    /// One design through the flow and the gate; returns its flow time
    /// and whether every check passed.
    fn item(&self, pass: &Pass, i: usize, tamper: Tamper, t: &mut Tracer) -> (f64, bool) {
        let start = Instant::now();
        let flowed = self.flow(pass, i, tamper, t);
        let ms = ms_since(start);
        let ok = match &flowed {
            Ok(f) => self.check(pass, i, f) && (!t.is_on() || self.probe(pass, f, t)),
            Err(_) => false,
        };
        (ms, ok)
    }

    /// A pass over the batch by `threads` closed-loop workers sharing
    /// one job counter.
    fn parallel_pass(&self, pass: &Pass, threads: usize, tamper: Tamper) -> PassRun {
        let n = self.texts.len();
        let next = AtomicUsize::new(0);
        let before = adapter::cache_stats(&pass.cache);
        let start = Instant::now();
        let per_worker: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        let mut tracer = Tracer::off();
                        let mut times = Vec::new();
                        let mut failed = 0;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (ms, ok) = self.item(pass, i, tamper, &mut tracer);
                            times.push(ms);
                            failed += u64::from(!ok);
                        }
                        (times, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect()
        });
        let wall_ms = ms_since(start);
        let mut run = PassRun {
            wall_ms,
            attempted: n as u64,
            cache: delta(&before, &adapter::cache_stats(&pass.cache)),
            ..PassRun::default()
        };
        for (times, failed) in per_worker {
            run.item_ms.extend(times);
            run.failed += failed;
        }
        run
    }

    /// A pass over the batch on the calling thread.
    fn single_pass(&self, pass: &Pass, tamper: Tamper, t: &mut Tracer) -> PassRun {
        let before = adapter::cache_stats(&pass.cache);
        let start = Instant::now();
        let mut run = PassRun::default();
        for i in 0..self.texts.len() {
            let (ms, ok) = self.item(pass, i, tamper, t);
            run.item_ms.push(ms);
            run.attempted += 1;
            run.failed += u64::from(!ok);
        }
        run.wall_ms = ms_since(start);
        run.cache = delta(&before, &adapter::cache_stats(&pass.cache));
        run
    }
}

/// Counter deltas between two cache snapshots; `bytes` and `entries`
/// are the later snapshot's levels.
fn delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        prefix_hits: after.prefix_hits - before.prefix_hits,
        misses: after.misses - before.misses,
        inserts: after.inserts - before.inserts,
        evictions: after.evictions - before.evictions,
        ..*after
    }
}

/// Sums counters over passes; levels are averaged.
fn cache_totals(runs: &[PassRun]) -> (CacheStats, usize) {
    let mut total = CacheStats::default();
    for r in runs {
        total.hits += r.cache.hits;
        total.prefix_hits += r.cache.prefix_hits;
        total.misses += r.cache.misses;
        total.inserts += r.cache.inserts;
        total.evictions += r.cache.evictions;
        total.bytes += r.cache.bytes;
    }
    (total, runs.len().max(1))
}

fn cache_line(runs: &[PassRun]) -> String {
    let (c, n) = cache_totals(runs);
    let lookups = (c.hits + c.prefix_hits + c.misses).max(1) as f64;
    format!(
        "cache per pass: lookups={:.1} hits={:.1} prefix_hits={:.1} ({:.1}%) misses={:.1} ({:.1}%) \
         inserts={:.1} evictions={:.1} resident_bytes={:.0}\n",
        lookups / n as f64,
        c.hits as f64 / n as f64,
        c.prefix_hits as f64 / n as f64,
        100.0 * c.prefix_hits as f64 / lookups,
        c.misses as f64 / n as f64,
        100.0 * c.misses as f64 / lookups,
        c.inserts as f64 / n as f64,
        c.evictions as f64 / n as f64,
        c.bytes as f64 / n as f64,
    )
}

pub(crate) fn run(p: &Params) -> Measured {
    let setups = if p.trace { 1 } else { p.scale.setups };
    let (batch, setup_s, setup_all) = crate::timed_setup(setups, || setup(p));
    // Passes are numbered so that every re-run pass edits a new knob.
    let mut k = 0u64;
    let mut next_pass = || {
        k += 1;
        batch.pass(k)
    };
    // One untimed pass first, so allocator and page-cache warm-up is
    // not measured; its outputs are checked like every other pass's.
    let warm = batch.parallel_pass(&next_pass(), p.threads, p.tamper);
    let detail = format!(
        "designs={} pages={} input_bytes={} dirty={} setup_s={setup_s:.4} setup_runs={:?}",
        batch.texts.len(),
        batch.pages,
        batch.input_bytes,
        batch.dirty.len(),
        setup_all
    );
    let mut report = crate::conditions(p, &detail);
    let mut values = Values::new();
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    let mut count = |runs: &[PassRun]| {
        for r in runs {
            attempted += r.attempted;
            failed += r.failed;
        }
    };

    if !p.trace {
        let runs = measure::repeat_for(p.seconds, || {
            batch.parallel_pass(&next_pass(), p.threads, p.tamper)
        });
        count(&runs);
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| batch.pages as f64 / (r.wall_ms / 1e3))
            .collect();
        let items: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.item_ms.iter().copied())
            .collect();
        values.insert("throughput_per_s".into(), measure::median(&rates));
        report.push_str(&measure::five_numbers("pages_per_s per pass", &rates));
        values.insert("item_ms_p50".into(), measure::median(&items));
        values.insert("item_ms_p90".into(), measure::quantile(&items, 0.9));
        values.insert("setup_s".into(), setup_s);
        report.push_str(&format!(
            "passes={} design_samples={} beyond_p90={} pages_per_s(median of passes)={:.1} \
             design_ms p50={:.3} p90={:.3}\n",
            runs.len(),
            items.len(),
            measure::beyond(&items, 0.9),
            values["throughput_per_s"],
            values["item_ms_p50"],
            values["item_ms_p90"],
        ));
        report.push_str(&cache_line(&runs));
    } else {
        let third = p.seconds / 3.0;
        let parallel = measure::repeat_for(third, || {
            batch.parallel_pass(&next_pass(), p.threads, p.tamper)
        });
        // Untraced and traced single-worker passes alternate, so the
        // tracing overhead is measured under the same host conditions.
        let mut tracer = Tracer::on();
        let (single, traced): (Vec<PassRun>, Vec<PassRun>) =
            measure::repeat_for(2.0 * third, || {
                let untraced = batch.single_pass(&next_pass(), p.tamper, &mut Tracer::off());
                (
                    untraced,
                    batch.single_pass(&next_pass(), p.tamper, &mut tracer),
                )
            })
            .into_iter()
            .unzip();
        count(&parallel);
        count(&single);
        count(&traced);
        let items = (traced.len() * batch.texts.len()) as f64;
        let per_item = |name: &str| tracer.total(name) / items;
        let mean_wall = parallel.iter().map(|r| r.wall_ms).sum::<f64>() / parallel.len() as f64;
        let single_sum = single.iter().flat_map(|r| &r.item_ms).sum::<f64>() / single.len() as f64;
        let single_item = single_sum / batch.texts.len() as f64;
        let traced_item = traced.iter().flat_map(|r| &r.item_ms).sum::<f64>() / items;

        let mut rows: Vec<(String, f64)> = Vec::new();
        let mut flow_spans = 0.0;
        for (name, children) in [
            (VIEWSTAR_PARSE, false),
            (PIPELINE, true),
            (CASCADE_WRITE, false),
            (CASCADE_PARSE, false),
            (VERIFY, true),
        ] {
            let ms = per_item(name);
            flow_spans += ms;
            rows.push((name.to_string(), ms));
            values.insert(format!("{name}_ms"), ms);
            if !children {
                continue;
            }
            if name == PIPELINE {
                let hash = per_item(HASH);
                rows.push((format!("  {HASH} (probe)"), hash));
                values.insert(format!("{HASH}_ms"), hash);
                let mut stage_sum = 0.0;
                for stage in STAGES {
                    let span = format!("migrate.stage.{stage}");
                    let ms = per_item(&span);
                    stage_sum += ms;
                    rows.push((format!("  {span} (probe)"), ms));
                    values.insert(format!("{span}_ms"), ms);
                }
                let cost = values[&format!("{PIPELINE}_ms")] - stage_sum;
                rows.push(("  migrate.cache.cost (pipeline-stages)".into(), cost));
                values.insert("migrate.cache.cost_ms".into(), cost);
            } else {
                for step in VERIFY_STEPS {
                    let span = format!("migrate.verify.{step}");
                    let ms = per_item(&span);
                    rows.push((format!("  {span} (probe)"), ms));
                    values.insert(format!("{span}_ms"), ms);
                }
            }
        }
        let remainder = traced_item - flow_spans;
        rows.push(("remainder (unattributed)".into(), remainder));
        values.insert("remainder_ms".into(), remainder);
        values.insert("trace.item_ms".into(), traced_item);

        let (c, n) = cache_totals(&traced);
        let n = n as f64;
        let lookups = (c.hits + c.prefix_hits + c.misses).max(1) as f64;
        values.insert("migrate.cache.hits".into(), c.hits as f64 / n);
        values.insert("migrate.cache.prefix_hits".into(), c.prefix_hits as f64 / n);
        values.insert("migrate.cache.misses".into(), c.misses as f64 / n);
        values.insert("migrate.cache.inserts".into(), c.inserts as f64 / n);
        values.insert("migrate.cache.evictions".into(), c.evictions as f64 / n);
        values.insert("migrate.cache.bytes".into(), c.bytes as f64 / n);
        values.insert(
            "migrate.cache.hit_ratio".into(),
            (c.hits + c.prefix_hits) as f64 / lookups,
        );
        let efficiency = single_sum / (p.threads.max(1) as f64 * mean_wall);
        let overhead = traced_item / single_item - 1.0;
        values.insert("pool.efficiency".into(), efficiency);
        values.insert("trace.overhead_ratio".into(), overhead);

        report.push_str(&format!(
            "phases: parallel_passes={} single_passes={} traced_passes={} traced_designs={}\n",
            parallel.len(),
            single.len(),
            traced.len(),
            items
        ));
        report.push_str(&format!(
            "untraced single-worker design_ms={single_item:.4} traced design_ms={traced_item:.4} \
             trace.overhead_ratio={overhead:.4} pool.efficiency={efficiency:.4} \
             (threads={}, parallel pass wall {mean_wall:.2} ms)\n",
            p.threads
        ));
        report.push_str(&cache_line(&traced));
        report.push_str(&crate::layer_table(&rows, traced_item, "design"));
    }
    Measured {
        attempted,
        failed,
        values,
        report,
    }
}
