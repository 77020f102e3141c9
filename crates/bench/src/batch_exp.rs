//! Experiment E-S2-BATCH: parallel batch migration throughput.
//!
//! The paper's Exar case study translated "approximately 1200 schematic
//! pages" as one batch job. This experiment migrates a fleet of
//! generated designs through [`migrate::batch`] at several thread
//! counts, checks the output stays byte-identical to the sequential
//! run, and reports wall-clock speedup plus the per-stage span profile
//! captured by an [`obs::MemoryRecorder`].
//!
//! Speedup is bounded by the host's available parallelism: on a
//! single-CPU machine every multi-thread row degenerates to ≤ 1.0x
//! (threads only add scheduling overhead), so the scaling table prints
//! the host parallelism alongside the rows.

use std::time::Instant;

use migrate::batch::{migrate_batch, BatchConfig};
use migrate::{presets, Migrator};
use obs::{MemoryRecorder, NullRecorder};
use schematic::design::Design;
use schematic::dialect::DialectId;
use schematic::gen::GenConfig;

/// Generates `count` distinct migration-ready designs (one seed each).
pub fn batch_designs(count: usize) -> Vec<Design> {
    (0..count)
        .map(|seed| {
            let cfg = GenConfig::builder()
                .seed(seed as u64)
                .gates_per_page(16)
                .pages(4)
                .depth(1)
                .bus_width(4)
                .build()
                .expect("valid generator config");
            schematic::gen::generate(&cfg)
        })
        .collect()
}

/// One thread-count measurement.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock milliseconds for the batch.
    pub millis: f64,
    /// Speedup vs the 1-thread run in the same sweep.
    pub speedup: f64,
    /// Whether the serialized output matched the sequential run byte
    /// for byte.
    pub identical: bool,
}

/// Migrates `designs` generated designs at each thread count, timing
/// each run and validating byte-identity against the sequential output.
pub fn batch_scaling(designs: usize, threads: &[usize]) -> Vec<BatchRow> {
    let sources = batch_designs(designs);
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

    let mut rows = Vec::new();
    let mut base_ms = None;
    for &t in threads {
        let start = Instant::now();
        let outcomes = migrate_batch(
            &migrator,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(t),
            &NullRecorder,
        );
        let millis = start.elapsed().as_secs_f64() * 1e3;
        let identical = outcomes.results.iter().zip(&reference).all(|(r, want)| {
            r.design()
                .is_some_and(|d| schematic::cascade::write(d) == *want)
        });
        let base = *base_ms.get_or_insert(millis);
        rows.push(BatchRow {
            threads: t,
            millis,
            speedup: base / millis,
            identical,
        });
    }
    rows
}

/// Runs one recorded batch and returns `(span, count, total_micros)`
/// per span name — the per-stage profile the observability layer sees.
pub fn batch_span_profile(designs: usize, threads: usize) -> Vec<(String, u64, u128)> {
    let sources = batch_designs(designs);
    let migrator = Migrator::new(presets::exar_style_config(4, 0));
    let recorder = MemoryRecorder::new();
    let _ = migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(threads),
        &recorder,
    );
    recorder
        .span_names()
        .into_iter()
        .map(|name| {
            let count = recorder.span_count(&name) as u64;
            let total = recorder.span_total(&name).as_micros();
            (name, count, total)
        })
        .collect()
}

/// Renders the scaling table.
pub fn batch_table(rows: &[BatchRow]) -> String {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut s = String::from("E-S2-BATCH parallel batch migration (work stealing)\n");
    s.push_str(&format!("host parallelism: {host} (speedup ceiling)\n"));
    s.push_str(&format!(
        "{:>8} {:>10} {:>8} {:>10}\n",
        "threads", "millis", "speedup", "identical"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:>8} {:>10.2} {:>7.2}x {:>10}\n",
            r.threads, r.millis, r.speedup, r.identical
        ));
    }
    s
}

/// Runs one recorded batch and returns every histogram the batch
/// recorded (queue depth, per-stage value distributions), keyed by
/// name — the source for the percentile table.
pub fn batch_histograms(designs: usize, threads: usize) -> Vec<(String, obs::Histogram)> {
    let sources = batch_designs(designs);
    let migrator = Migrator::new(presets::exar_style_config(4, 0));
    let recorder = MemoryRecorder::new();
    let _ = migrate_batch(
        &migrator,
        &sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(threads),
        &recorder,
    );
    recorder.histograms().into_iter().collect()
}

/// Renders bucket-interpolated percentiles per histogram.
pub fn percentile_table(hists: &[(String, obs::Histogram)]) -> String {
    let mut s = String::from("E-S2-BATCH histogram percentiles (bucket-interpolated)\n");
    s.push_str(&format!(
        "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "histogram", "count", "p50", "p90", "p99", "max"
    ));
    for (name, h) in hists {
        s.push_str(&format!(
            "{:<28} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
            name,
            h.count,
            h.percentile(50.0),
            h.percentile(90.0),
            h.percentile(99.0),
            h.max
        ));
    }
    s
}

/// Renders the span profile table.
pub fn span_table(profile: &[(String, u64, u128)]) -> String {
    let mut s = String::from("E-S2-BATCH span profile (MemoryRecorder)\n");
    s.push_str(&format!(
        "{:<28} {:>7} {:>12}\n",
        "span", "count", "total_us"
    ));
    for (name, count, micros) in profile {
        s.push_str(&format!("{:<28} {:>7} {:>12}\n", name, count, micros));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_outputs_stay_identical() {
        let rows = batch_scaling(8, &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.identical));
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn span_profile_covers_every_stage() {
        let profile = batch_span_profile(4, 2);
        let names: Vec<&str> = profile.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"migrate.batch"));
        assert!(names.contains(&"migrate.pipeline"));
        for stage in [
            "scale",
            "props",
            "callbacks",
            "symbols",
            "bus",
            "connectors",
            "globals",
            "text",
        ] {
            let span = format!("migrate.stage.{stage}");
            let row = profile.iter().find(|(n, _, _)| *n == span);
            assert_eq!(row.map(|(_, c, _)| *c), Some(4), "missing span {span}");
        }
    }

    #[test]
    fn percentile_table_reports_queue_depth() {
        let hists = batch_histograms(4, 2);
        assert!(hists.iter().any(|(n, _)| n == "migrate.batch.queue_depth"));
        let table = percentile_table(&hists);
        assert!(table.contains("p99"));
        assert!(table.contains("migrate.batch.queue_depth"));
    }
}
