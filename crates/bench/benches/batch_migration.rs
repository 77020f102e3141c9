//! E-S2-BATCH: work-stealing batch migration across thread counts.
//!
//! Migrates 64 generated designs per iteration at 1/2/4/8 worker
//! threads, then prints the scaling table (speedup vs 1 thread, output
//! byte-identity) and the span profile the observability layer records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_bench::batch_exp::{
    batch_designs, batch_histograms, batch_scaling, batch_span_profile, batch_table,
    percentile_table, span_table,
};
use migrate::batch::{migrate_batch, BatchConfig};
use migrate::{presets, Migrator};
use obs::NullRecorder;
use schematic::dialect::DialectId;

const DESIGNS: usize = 64;

fn bench(c: &mut Criterion) {
    let sources = batch_designs(DESIGNS);
    let migrator = Migrator::new(presets::exar_style_config(4, 0));

    let mut g = c.benchmark_group("batch_migration_64_designs");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                migrate_batch(
                    &migrator,
                    &sources,
                    DialectId::Cascade,
                    &BatchConfig::with_threads(t),
                    &NullRecorder,
                )
            })
        });
    }
    g.finish();

    println!();
    print!("{}", batch_table(&batch_scaling(DESIGNS, &[1, 2, 4, 8])));
    println!();
    print!("{}", span_table(&batch_span_profile(DESIGNS, 4)));
    println!();
    print!("{}", percentile_table(&batch_histograms(DESIGNS, 4)));
}

criterion_group!(benches, bench);
criterion_main!(benches);
