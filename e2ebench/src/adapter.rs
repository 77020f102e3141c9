//! The only module that calls into the workbench's library crates.
//!
//! Every layer the benchmark drives — `schematic` (read and emit),
//! `interop_core::hash` (fingerprint), `migrate` (stages, cache,
//! verify) and `sim` (kernel, waveforms, race compare, sweep pool) — is
//! reached through a function here. The benchmark uses only plain entry
//! points: no `*_recorded` twins, no `Kernel::set_recorder`, no
//! `sim::logic::reference` and no `Checkpoint`, so simplifying those
//! away leaves this file untouched.

use std::sync::Arc;

use migrate::stage::{builtin_stages, Stage, StageCtx};
use schematic::dialect::{DialectId, DialectRules, Violation};
use schematic::gen::{GenConfig, SplitMix64};
use schematic::netlist::{CompareReport, Netlist};

pub use migrate::{CacheStats, MigrationCache, MigrationConfig, Migrator, VerifyReport};
pub use schematic::Design;
pub use sim::{Circuit, Kernel, RaceReport, SchedulerPolicy, Stim, SweepResult};

/// Target dialect of the Exar migration.
const TARGET: DialectId = DialectId::Cascade;

// ---- inputs ---------------------------------------------------------

/// One generated design of the batch-migration shape: a top cell and
/// one block cell, four pages each, 16 gates a page, a 4-bit bus, with
/// postfix nets, analog properties and globals.
pub fn generate_design(seed: u64) -> Design {
    let cfg = GenConfig::builder()
        .seed(seed)
        .gates_per_page(16)
        .pages(4)
        .depth(1)
        .bus_width(4)
        .build()
        .expect("the batch design shape is a valid generator config");
    schematic::gen::generate(&cfg)
}

/// Pages (sheets) over every cell of a design.
pub fn page_count(design: &Design) -> usize {
    design.cells().map(|(_, cell)| cell.sheets.len()).sum()
}

/// A source edit: declares one more global net, which changes the
/// design's fingerprint and its migrated output.
pub fn edit_source(design: &mut Design, tag: &str) {
    design.add_global(format!("EDIT_{tag}"));
}

/// A seeded 64-bit generator for stimulus choices.
pub fn rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

// ---- read and emit --------------------------------------------------

/// Writes a design as Viewstar text.
pub fn write_viewstar(design: &Design) -> String {
    schematic::viewstar::write(design)
}

/// Reads Viewstar text.
pub fn parse_viewstar(text: &str) -> Result<Design, String> {
    schematic::viewstar::parse(text).map_err(|e| e.to_string())
}

/// Writes a design as Cascade text.
pub fn write_cascade(design: &Design) -> String {
    schematic::cascade::write(design)
}

/// Reads Cascade text.
pub fn parse_cascade(text: &str) -> Result<Design, String> {
    schematic::cascade::parse(text).map_err(|e| e.to_string())
}

// ---- fingerprint ----------------------------------------------------

/// The stable content fingerprint the migration cache keys on.
pub fn fingerprint(design: &Design) -> u64 {
    interop_core::hash::hash_of(design)
}

// ---- migration ------------------------------------------------------

/// The Exar preset: symbol and pin maps, property rules, the a/L
/// callback and global renames.
pub fn exar_config() -> MigrationConfig {
    migrate::presets::exar_style_config(4, 0)
}

/// The Exar preset plus one `globals_map` entry for a net no design
/// carries. Only the globals stage reads that table, so the edit
/// invalidates the globals and text stages and leaves the output of
/// every design unchanged.
pub fn exar_config_with_knob(tag: &str) -> MigrationConfig {
    let mut config = exar_config();
    config
        .globals_map
        .insert(format!("KNOB_{tag}"), format!("knob_{tag}!"));
    config
}

/// A migrator over the built-in pipeline, with an optional cache.
pub fn migrator(config: MigrationConfig, cache: Option<Arc<MigrationCache>>) -> Migrator {
    let m = Migrator::new(config);
    match cache {
        Some(cache) => m.with_cache(cache),
        None => m,
    }
}

/// Migrates a Viewstar design to Cascade.
pub fn migrate(migrator: &Migrator, source: &Design) -> Design {
    migrator.migrate(source, TARGET).design
}

/// Index of the first executed stage whose cache key differs between
/// two migrators: the stage a re-run under `edited` resumes at after a
/// run under `base`.
pub fn first_invalidated_stage(base: &Migrator, edited: &Migrator) -> usize {
    let a = base.stage_chain(DialectId::Viewstar, TARGET);
    let b = edited.stage_chain(DialectId::Viewstar, TARGET);
    a.hashes
        .iter()
        .zip(&b.hashes)
        .position(|(x, y)| x != y)
        .unwrap_or(b.hashes.len())
}

/// A point-in-time copy of the cache's counters.
pub fn cache_stats(cache: &MigrationCache) -> CacheStats {
    cache.stats()
}

/// The built-in stages that the Exar config runs, in pipeline order,
/// ready to be run one at a time.
pub struct Stages {
    stages: Vec<Box<dyn Stage>>,
    config: MigrationConfig,
    src: DialectRules,
    dst: DialectRules,
}

impl Stages {
    /// The stages the migrator's configuration executes, with
    /// Viewstar → Cascade rules.
    pub fn of(migrator: &Migrator) -> Self {
        let config = migrator.config().clone();
        let stages = builtin_stages()
            .into_iter()
            .filter(|s| config.runs(s.id()))
            .collect();
        Stages {
            stages,
            config,
            src: DialectRules::for_id(DialectId::Viewstar),
            dst: DialectRules::for_id(TARGET),
        }
    }

    /// Stage names, in pipeline order.
    pub fn names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.id().name()).collect()
    }

    /// Runs stage `index` over `design`.
    pub fn run(&self, index: usize, design: &mut Design) {
        let ctx = StageCtx {
            config: &self.config,
            src_rules: &self.src,
            dst_rules: &self.dst,
            recorder: &obs::NullRecorder,
            parallelism: 1,
        };
        self.stages[index].run(design, &ctx);
    }

    /// Marks a design that went through every stage as a target-dialect
    /// design, as the pipeline does after its last stage.
    pub fn finish(&self, design: &mut Design) {
        design.dialect = TARGET;
    }
}

// ---- verification ---------------------------------------------------

/// `migrate::verify` of a Viewstar source against its Cascade output,
/// under the migrator's configuration.
pub fn verify(migrator: &Migrator, source: &Design, target: &Design) -> VerifyReport {
    migrate::verify(
        source,
        &DialectRules::for_id(DialectId::Viewstar),
        target,
        &DialectRules::for_id(TARGET),
        migrator.config(),
    )
}

/// True when connectivity is preserved, both extractions were clean
/// and the target conforms.
pub fn is_verified(report: &VerifyReport) -> bool {
    report.is_verified()
}

/// One side's extracted netlist and its extraction errors.
pub type Extracted = (Netlist, Vec<String>);

/// Extracts a Viewstar source design.
pub fn extract_source(design: &Design) -> Extracted {
    extract(design, DialectId::Viewstar)
}

/// Extracts a Cascade target design.
pub fn extract_target(design: &Design) -> Extracted {
    extract(design, TARGET)
}

fn extract(design: &Design, dialect: DialectId) -> Extracted {
    let (netlist, errors) =
        schematic::connectivity::extract_design(design, &DialectRules::for_id(dialect));
    let errors = errors
        .into_iter()
        .map(|(cell, e)| format!("{cell}: {e}"))
        .collect();
    (netlist, errors)
}

/// Rewrites a source netlist through the migrator's symbol and pin
/// maps.
pub fn normalize(netlist: &Netlist, migrator: &Migrator) -> Netlist {
    migrate::verify::normalize_source(netlist, migrator.config())
}

/// Structural netlist comparison.
pub fn compare_netlists(left: &Netlist, right: &Netlist) -> CompareReport {
    schematic::compare(left, right)
}

/// Target-dialect conformance violations.
pub fn conformance(target: &Design) -> Vec<Violation> {
    schematic::dialect::check_conformance(target, &DialectRules::for_id(TARGET))
}

/// Assembles a verification report from its parts, as
/// `migrate::verify` does.
pub fn verify_report(
    compare: CompareReport,
    source_errors: Vec<String>,
    target_errors: Vec<String>,
    conformance: Vec<Violation>,
) -> VerifyReport {
    VerifyReport {
        compare,
        source_errors,
        target_errors,
        conformance,
    }
}

/// True when two verification reports carry the same verdict and the
/// same findings.
pub fn same_verdict(a: &VerifyReport, b: &VerifyReport) -> bool {
    a.is_verified() == b.is_verified()
        && a.compare == b.compare
        && a.source_errors == b.source_errors
        && a.target_errors == b.target_errors
        && a.conformance == b.conformance
}

// ---- simulation -----------------------------------------------------

/// The kernel-throughput model of the `s31_kernel` bench.
pub fn compile_busy_model() -> Arc<Circuit> {
    compile(interop_bench::sim_exp::BUSY_MODEL, "busy")
}

/// The paper's three section 3.1 models, with the signal each race
/// must diverge on (`None` for the race-free rewrite).
pub fn compile_paper_models() -> Vec<(&'static str, Arc<Circuit>, Option<&'static str>)> {
    use sim::race::models;
    vec![
        (
            "PAPER_RACE",
            compile(models::PAPER_RACE, "race"),
            Some("mismatch"),
        ),
        (
            "ORDER_RACE",
            compile(models::ORDER_RACE, "order"),
            Some("y"),
        ),
        ("RACE_FREE", compile(models::RACE_FREE, "clean"), None),
    ]
}

fn compile(src: &str, top: &str) -> Arc<Circuit> {
    let unit = hdl::parse(src).expect("built-in model parses");
    Arc::new(sim::compile_unit(&unit, top).expect("built-in model elaborates"))
}

/// Every legal scheduler policy.
pub fn policies() -> Vec<SchedulerPolicy> {
    SchedulerPolicy::all()
}

/// The clock/data stimulus of the race experiments as data.
pub fn clocked_stim(name: String, cycles: u64) -> Stim {
    Stim::clocked(name, cycles)
}

/// One kernel run: a fresh kernel over the shared circuit, driven by
/// the stimulus to its final time.
pub fn run_kernel(circuit: &Arc<Circuit>, policy: SchedulerPolicy, stim: &Stim) -> Kernel {
    let mut kernel = Kernel::new_shared(Arc::clone(circuit), policy);
    stim.apply(&mut kernel)
        .expect("generated stimuli drive known signals");
    kernel
}

/// Recorded waveform changes of a finished kernel.
pub fn change_count(kernel: &Kernel) -> usize {
    kernel.waveform().changes.len()
}

/// Cross-policy waveform comparison of finished kernels.
pub fn race_compare(kernels: &[Kernel]) -> RaceReport {
    sim::race::compare(kernels)
}

/// The sequential policy × stimulus sweep.
pub fn sweep(
    circuit: &Arc<Circuit>,
    policies: &[SchedulerPolicy],
    stims: &[Stim],
) -> Vec<SweepResult> {
    sim::sweep(circuit, policies, stims).expect("generated stimuli drive known signals")
}

/// The work-stealing policy × stimulus sweep.
pub fn sweep_parallel(
    circuit: &Arc<Circuit>,
    policies: &[SchedulerPolicy],
    stims: &[Stim],
    threads: usize,
) -> Vec<SweepResult> {
    sim::sweep_parallel(circuit, policies, stims, threads)
        .expect("generated stimuli drive known signals")
}

/// True when any signal diverges across policies.
pub fn has_race(report: &RaceReport) -> bool {
    report.has_race()
}

/// Inverts a race verdict: a race report loses its divergences, a
/// race-free one gains a made-up divergence.
pub fn flip_verdict(report: &mut RaceReport) {
    if report.has_race() {
        report.diverging.clear();
    } else {
        report.diverging.push(sim::race::Divergence {
            signal: "flipped".to_string(),
            histories: Vec::new(),
        });
    }
}

/// True when the report shows `signal` diverging across policies.
pub fn diverges_on(report: &RaceReport, signal: &str) -> bool {
    report.diverging.iter().any(|d| d.signal == signal)
}
