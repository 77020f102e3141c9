//! `obsdump` — run a preset workload under hierarchical tracing and
//! dump the result.
//!
//! ```text
//! obsdump [--preset exar|batch|chaos|sim|pnr] [--format tree|chrome|folded|summary]
//!         [--designs N] [--threads N] [--seed N] [--top N] [--cache] [--check]
//! ```
//!
//! Presets:
//! - `exar`  — the full interop flow: an Exar-style batch migration,
//!   a schematic round-trip parse, an HDL parse → flatten → subset
//!   check → simulation run, and a place → route → DRC pass, all under
//!   one root span (the default).
//! - `batch` — parallel batch migration only.
//! - `chaos` — resilient batch migration under a seeded fault plan:
//!   panics, corrupted outputs, latency, and transient errors, with
//!   retries and quarantine visible as counters and events.
//! - `sim`   — HDL frontend plus an event-driven simulation run.
//! - `pnr`   — place → route → DRC only.
//!
//! Formats:
//! - `tree`    — aggregated span tree with total/self time (default).
//! - `chrome`  — Chrome trace-event JSON (load in Perfetto or
//!   `chrome://tracing`).
//! - `folded`  — folded stacks for external flamegraph tooling.
//! - `summary` — span tree + top-N self-time table + counters +
//!   histogram percentiles.
//!
//! `--cache` attaches a content-addressed [`migrate::MigrationCache`]
//! to the migration presets. The `batch` and `exar` presets then run
//! the batch twice — cold, then warm — so `migrate.cache.hit` counters
//! and the cache section in `--format summary` show a real warm-up;
//! the `chaos` preset runs once and reports hit/miss/purge activity
//! under faults.
//!
//! `--check` validates the Chrome JSON export and the span-tree shape
//! (≥ 3 nesting levels) regardless of the chosen output format, and
//! exits non-zero on failure — CI uses this as a smoke test.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

use interop_bench::batch_exp;
use migrate::batch::{migrate_batch, BatchConfig};
use migrate::cache::MigrationCache;
use migrate::{presets, FaultPlan, Migrator, RetryPolicy};
use obs::export::{chrome_trace, folded_stacks, max_depth, self_time_table, span_tree};
use obs::{validate_json, Recorder, Span, TraceRecorder};
use schematic::dialect::DialectId;
use sim::kernel::{Kernel, SchedulerPolicy};
use sim::logic::{Logic, Value};

struct Options {
    preset: String,
    format: String,
    designs: usize,
    threads: usize,
    seed: u64,
    top: usize,
    cache: bool,
    check: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preset: "exar".into(),
            format: "tree".into(),
            designs: 8,
            threads: 4,
            seed: 42,
            top: 12,
            cache: false,
            check: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--preset" => opts.preset = value("--preset")?,
            "--format" => opts.format = value("--format")?,
            "--designs" => {
                opts.designs = value("--designs")?
                    .parse()
                    .map_err(|e| format!("--designs: {e}"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--top" => {
                opts.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?;
            }
            "--cache" => opts.cache = true,
            "--check" => opts.check = true,
            "--help" | "-h" => {
                println!(
                    "usage: obsdump [--preset exar|batch|chaos|sim|pnr] \
                     [--format tree|chrome|folded|summary]\n\
                     \x20              [--designs N] [--threads N] [--seed N] [--top N] \
                     [--cache] [--check]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Batch-migrates `designs` generated designs with the Exar-style
/// preset configuration. With a cache attached the batch runs twice —
/// the first pass populates, the second demonstrates a full warm hit.
fn run_batch(
    rec: &TraceRecorder,
    designs: usize,
    threads: usize,
    cache: Option<&Arc<MigrationCache>>,
) {
    let sources = batch_exp::batch_designs(designs);
    let mut migrator = Migrator::new(presets::exar_style_config(4, 0));
    if let Some(cache) = cache {
        migrator = migrator.with_cache(Arc::clone(cache));
    }
    let passes = if cache.is_some() { 2 } else { 1 };
    for _ in 0..passes {
        let report = migrate_batch(
            &migrator,
            &sources,
            DialectId::Cascade,
            &BatchConfig::with_threads(threads),
            rec,
        );
        assert_eq!(report.results.len(), sources.len());
    }
}

/// Resilient batch migration under a seeded background fault rate:
/// chaos survivability as an observable workload.
fn run_chaos(
    rec: &TraceRecorder,
    designs: usize,
    threads: usize,
    seed: u64,
    cache: Option<&Arc<MigrationCache>>,
) {
    let sources = batch_exp::batch_designs(designs);
    let mut migrator = Migrator::new(presets::exar_style_config(4, 0));
    if let Some(cache) = cache {
        migrator = migrator.with_cache(Arc::clone(cache));
    }
    let cfg = BatchConfig {
        threads,
        retry: RetryPolicy::with_attempts(5).base_delay(2).jitter(seed),
        fault_plan: FaultPlan::seeded(seed).with_rate(30),
        timeout_ticks: Some(40),
        abort_after: None,
    };
    let report = migrate_batch(&migrator, &sources, DialectId::Cascade, &cfg, rec);
    let counter = |name: &str| {
        rec.counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| v)
    };
    eprintln!(
        "chaos: {} designs, {} executed, {} quarantined, {} retries, {} faults, {} vticks, \
         cache {} hit / {} miss / {} purged",
        sources.len(),
        report.executed,
        report.quarantined.len(),
        report.retries,
        report.faults_injected,
        report.virtual_ticks,
        counter("migrate.cache.hit"),
        counter("migrate.cache.miss"),
        counter("migrate.cache.purge"),
    );
}

/// Serializes one generated design to both dialects and re-parses each,
/// exercising the traced schematic parsers.
fn run_schematic(rec: &TraceRecorder) {
    let sources = batch_exp::batch_designs(1);
    let vs = schematic::viewstar::write(&sources[0]);
    schematic::viewstar::parse_recorded(&vs, rec).expect("round-trip viewstar parse");
    let mut cc_design = sources[0].clone();
    cc_design.dialect = DialectId::Cascade;
    let cc = schematic::cascade::write(&cc_design);
    schematic::cascade::parse_recorded(&cc, rec).expect("round-trip cascade parse");
}

/// HDL parse → flatten → subset check → a clocked simulation run.
fn run_sim(rec: &Arc<TraceRecorder>) {
    const SRC: &str = r#"
        module dff(input clk, input din, output reg q, output nq);
          assign nq = ~q;
          always @(posedge clk) q <= din;
        endmodule
    "#;
    let unit = hdl::parser::parse_recorded(SRC, rec.as_ref()).expect("parses");
    let flat = hdl::flatten::flatten_recorded(&unit, "dff", "_", rec.as_ref()).expect("flattens");
    hdl::synth::VendorSubset::vendor_a().check_recorded(&flat.module, rec.as_ref());

    let circuit = sim::elab::compile_unit(&unit, "dff").expect("compiles");
    let mut kernel = Kernel::new(circuit, SchedulerPolicy::sim_a());
    kernel.set_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    for cycle in 0..4u64 {
        let din = if cycle % 2 == 0 {
            Logic::One
        } else {
            Logic::Zero
        };
        kernel.poke_name("din", Value::bit(din)).unwrap();
        kernel.poke_name("clk", Value::bit(Logic::Zero)).unwrap();
        kernel.run_until(cycle * 10 + 5).unwrap();
        kernel.poke_name("clk", Value::bit(Logic::One)).unwrap();
        kernel.run_until(cycle * 10 + 10).unwrap();
    }
}

/// Place → route → DRC over a generated physical workload, with the
/// canonical floorplan rules fed forward.
fn run_pnr(rec: &TraceRecorder) {
    let (mut nl, fp) = pnr::gen::generate(&pnr::gen::PnrGenConfig::default());
    pnr::place::place_recorded(&mut nl, &fp, rec);
    let rules: BTreeMap<String, pnr::backplane::EffectiveRule> = fp
        .net_rules
        .iter()
        .map(|(name, r)| {
            (
                name.clone(),
                pnr::backplane::EffectiveRule {
                    net: name.clone(),
                    width: r.width,
                    spacing: r.spacing,
                    shield: r.shield,
                    max_length: r.max_length,
                },
            )
        })
        .collect();
    let routed = pnr::route::route_recorded(&nl, &fp, &rules, Default::default(), rec);
    pnr::drc::check_recorded(&routed, &fp, rec);
}

fn run_preset(
    rec: &Arc<TraceRecorder>,
    opts: &Options,
    cache: Option<&Arc<MigrationCache>>,
) -> Result<(), String> {
    match opts.preset.as_str() {
        "exar" => {
            let root = Span::enter(rec.as_ref() as &dyn Recorder, "obsdump.exar");
            root.attr("designs", opts.designs);
            root.attr("threads", opts.threads);
            run_batch(rec, opts.designs, opts.threads, cache);
            run_schematic(rec);
            run_sim(rec);
            run_pnr(rec);
            Ok(())
        }
        "batch" => {
            run_batch(rec, opts.designs, opts.threads, cache);
            Ok(())
        }
        "chaos" => {
            run_chaos(rec, opts.designs, opts.threads, opts.seed, cache);
            Ok(())
        }
        "sim" => {
            run_sim(rec);
            Ok(())
        }
        "pnr" => {
            run_pnr(rec);
            Ok(())
        }
        other => Err(format!(
            "unknown preset `{other}` (expected exar, batch, chaos, sim, or pnr)"
        )),
    }
}

fn print_cache_section(cache: &MigrationCache) {
    let s = cache.stats();
    println!("cache:");
    println!(
        "  hits={} prefix_hits={} misses={}",
        s.hits, s.prefix_hits, s.misses
    );
    println!(
        "  inserts={} evictions={} entries={} bytes={}",
        s.inserts, s.evictions, s.entries, s.bytes
    );
    if s.disk_hits > 0 || s.disk_stores > 0 {
        println!("  disk_hits={} disk_stores={}", s.disk_hits, s.disk_stores);
    }
}

fn print_summary(rec: &TraceRecorder, top: usize) {
    println!("{}", span_tree(rec));
    println!("{}", self_time_table(rec, top));
    println!("counters:");
    for (name, value) in rec.counters() {
        println!("  {name:<32} {value}");
    }
    let hists = rec.histograms();
    if !hists.is_empty() {
        println!("histograms (p50/p90/p99):");
        for (name, h) in hists {
            println!(
                "  {name:<32} count={} p50={} p90={} p99={} max={}",
                h.count,
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.max
            );
        }
    }
    let (ds, de) = rec.dropped();
    if ds > 0 || de > 0 {
        println!("dropped: {ds} spans, {de} events (raise trace capacity)");
    }
}

/// Structural smoke check: the Chrome export must be non-trivial,
/// syntactically valid JSON, and the span tree must reach three levels.
fn check(rec: &TraceRecorder) -> Result<(), String> {
    let json = chrome_trace(rec);
    validate_json(&json).map_err(|e| format!("chrome trace is malformed: {e}"))?;
    if !json.contains("\"ph\":\"X\"") {
        return Err("chrome trace contains no complete events".into());
    }
    let depth = max_depth(rec);
    if depth < 3 {
        return Err(format!(
            "span tree only reaches depth {depth}, expected >= 3"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("obsdump: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rec = Arc::new(TraceRecorder::with_capacity(1 << 16));
    let cache = opts.cache.then(|| Arc::new(MigrationCache::new()));
    if let Err(e) = run_preset(&rec, &opts, cache.as_ref()) {
        eprintln!("obsdump: {e}");
        return ExitCode::FAILURE;
    }

    match opts.format.as_str() {
        "tree" => println!("{}", span_tree(&rec)),
        "chrome" => println!("{}", chrome_trace(&rec)),
        "folded" => print!("{}", folded_stacks(&rec)),
        "summary" => {
            print_summary(&rec, opts.top);
            if let Some(cache) = &cache {
                print_cache_section(cache);
            }
        }
        other => {
            eprintln!("obsdump: unknown format `{other}` (expected tree, chrome, folded, summary)");
            return ExitCode::FAILURE;
        }
    }

    if opts.check {
        match check(&rec) {
            Ok(()) => eprintln!("obsdump: check passed (depth {} spans ok)", max_depth(&rec)),
            Err(e) => {
                eprintln!("obsdump: check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
