//! E-CACHE: incremental migration cache re-run timings.
//!
//! Measures the batch migrator against the content-addressed cache in
//! the three canonical shapes — cold (empty cache), fully warm
//! (unchanged batch), and 1-dirty (one edited design) — asserting the
//! warm run is at least 5x faster than the cold run with byte-identical
//! output. Prints the table and records the numbers as
//! `BENCH_migrate.json` at the workspace root.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_bench::batch_exp::batch_designs;
use interop_bench::cache_exp::{cache_bench_json, cache_rerun, cache_table};
use migrate::batch::{migrate_batch, BatchConfig};
use migrate::{presets, MigrationCache, Migrator};
use obs::NullRecorder;
use schematic::dialect::DialectId;

const DESIGNS: usize = 12;
const THREADS: usize = 2;

fn bench(c: &mut Criterion) {
    let sources = batch_designs(DESIGNS);
    let mut g = c.benchmark_group("batch_cache");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::from_parameter("cold"), &sources, |b, srcs| {
        b.iter(|| {
            // A fresh cache per iteration keeps every run cold.
            let migrator = Migrator::new(presets::exar_style_config(4, 0))
                .with_cache(Arc::new(MigrationCache::new()));
            migrate_batch(
                &migrator,
                srcs,
                DialectId::Cascade,
                &BatchConfig::with_threads(THREADS),
                &NullRecorder,
            )
        })
    });
    let warm_migrator =
        Migrator::new(presets::exar_style_config(4, 0)).with_cache(Arc::new(MigrationCache::new()));
    migrate_batch(
        &warm_migrator,
        &sources,
        DialectId::Cascade,
        &BatchConfig::with_threads(THREADS),
        &NullRecorder,
    );
    g.bench_with_input(BenchmarkId::from_parameter("warm"), &sources, |b, srcs| {
        b.iter(|| {
            migrate_batch(
                &warm_migrator,
                srcs,
                DialectId::Cascade,
                &BatchConfig::with_threads(THREADS),
                &NullRecorder,
            )
        })
    });
    g.finish();

    let rows = cache_rerun(DESIGNS, THREADS);
    println!();
    print!("{}", cache_table(&rows, DESIGNS, THREADS));
    assert!(
        rows.iter().all(|r| r.identical),
        "cache broke byte identity"
    );
    let cold = &rows[0];
    let warm = &rows[1];
    assert!(
        warm.speedup >= 5.0,
        "fully-warm batch must be at least 5x faster than cold: \
         cold {:.2}ms vs warm {:.2}ms ({:.2}x)",
        cold.millis,
        warm.millis,
        warm.speedup
    );

    let json = cache_bench_json(&rows, DESIGNS, THREADS);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_migrate.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nrecorded {path}"),
        Err(e) => println!("\ncould not record {path}: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
