//! End-to-end benchmark of the workbench's two paper workflows.
//!
//! - `exar_cold` and `exar_rerun`: the Exar migration, Viewstar text in,
//!   Cascade text out, then independent verification, over about 1200
//!   pages, against an empty and a warm migration cache.
//! - `race_sweep`: the section 3.1 divergence sweep, stimuli × legal
//!   scheduler policies, then waveform comparison.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics; a
//! traced single-worker run reports each layer's self time. Every run
//! checks every output it produces. See `README.md` for the workloads,
//! the metrics and which layer should move which metric.

pub mod adapter;
mod exar;
pub mod measure;
mod race;

use measure::Metric;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ~1200 pages through the full flow against an empty cache.
    ExarCold,
    /// The same batch re-run after a mapping-table edit, warm cache.
    ExarRerun,
    /// `BUSY_MODEL` × every policy × clocked stimuli.
    RaceSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ExarCold, Workload::ExarRerun, Workload::RaceSweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExarCold => "exar_cold",
            Workload::ExarRerun => "exar_rerun",
            Workload::RaceSweep => "race_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deliberate defect injected into the outputs before they are
/// checked, to show that the correctness gate is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Outputs are checked as produced.
    None,
    /// Every emitted Cascade text gets one extra byte.
    CorruptEmit,
    /// Every race verdict is inverted.
    FlipVerdict,
}

/// Input sizes and repetition counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Designs in the Exar batch (8 pages each).
    pub designs: usize,
    /// Designs that carry a fresh source edit on every re-run pass.
    pub dirty: usize,
    /// Clocked stimuli in the sweep.
    pub stims: usize,
    /// Times the set-up is repeated for the `setup_s` median.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's scale: 150 designs (1200 pages), 6 of them
    /// dirty; 30 stimuli; set-up timed three times.
    pub const FULL: Scale = Scale {
        designs: 150,
        dirty: 6,
        stims: 30,
        setups: 3,
    };
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// What to run.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced single-worker run (per-layer metrics) instead of the
    /// untraced end-to-end run.
    pub trace: bool,
    /// Worker threads for the parallel phases.
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Injected defect, if any.
    pub tamper: Tamper,
}

/// What a run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checks made (designs, sweep rows, model verdicts).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The end-to-end metrics (untraced) or per-layer metrics (traced),
    /// every name of the matching `BENCHMARK.json` list in its order.
    pub metrics: Vec<Metric>,
    /// The human-readable report: recorded conditions, and for traced
    /// runs the per-layer self-time table.
    pub report: String,
}

impl Outcome {
    /// Failed checks over attempted checks.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Stage names of the built-in pipeline, in order.
pub const STAGES: [&str; 8] = [
    "scale",
    "props",
    "callbacks",
    "symbols",
    "bus",
    "connectors",
    "globals",
    "text",
];

/// Scheduler policies, in `SchedulerPolicy::all()` order.
pub const POLICIES: [&str; 4] = ["SimA", "SimB", "SimC", "SimD"];

/// Verification steps, in `migrate::verify` order.
pub const VERIFY_STEPS: [&str; 5] = [
    "extract_src",
    "extract_dst",
    "normalize",
    "compare",
    "conformance",
];

/// Per-layer metrics with their units, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: String, unit| out.push((name, unit));
    for name in [
        "schematic.viewstar.parse_ms",
        "schematic.cascade.write_ms",
        "schematic.cascade.parse_ms",
        "interop_core.hash_ms",
    ] {
        push(name.to_string(), "ms");
    }
    for stage in STAGES {
        push(format!("migrate.stage.{stage}_ms"), "ms");
    }
    push("migrate.pipeline_ms".into(), "ms");
    push("migrate.cache.cost_ms".into(), "ms");
    for counter in ["hits", "prefix_hits", "misses", "inserts", "evictions"] {
        push(format!("migrate.cache.{counter}"), "count");
    }
    push("migrate.cache.bytes".into(), "bytes");
    push("migrate.cache.hit_ratio".into(), "ratio");
    push("migrate.verify_ms".into(), "ms");
    for step in VERIFY_STEPS {
        push(format!("migrate.verify.{step}_ms"), "ms");
    }
    for policy in POLICIES {
        push(format!("sim.kernel.{policy}_ms"), "ms");
    }
    for policy in POLICIES {
        push(format!("sim.waveform.changes.{policy}"), "count");
    }
    push("sim.kernel.ns_per_change".into(), "ns");
    push("sim.race.compare_ms".into(), "ms");
    push("sim.race.diverging".into(), "count");
    push("pool.efficiency".into(), "ratio");
    push("trace.overhead_ratio".into(), "ratio");
    push("trace.item_ms".into(), "ms");
    push("remainder_ms".into(), "ms");
    push("fail_ratio".into(), "ratio");
    out
}

/// Measured values by metric name, before they are put in list order.
type Values = std::collections::BTreeMap<String, f64>;

/// What one workload run hands back.
struct Measured {
    attempted: u64,
    failed: u64,
    values: Values,
    report: String,
}

/// Runs one workload and returns its checked measurements.
pub fn run(params: &Params) -> Outcome {
    let m = match params.workload {
        Workload::ExarCold | Workload::ExarRerun => exar::run(params),
        Workload::RaceSweep => race::run(params),
    };
    let mut outcome = Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
        report: m.report,
    };
    let wanted: Vec<(String, &'static str)> = if params.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    outcome.metrics = wanted
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "fail_ratio" => outcome.fail_ratio(),
                "peak_rss_mb" => measure::peak_rss_mb(),
                _ => m.values.get(&name).copied().unwrap_or(0.0),
            };
            Metric { name, value, unit }
        })
        .collect();
    outcome
}

/// Runs `setup` `times` times, keeping the last result, and returns it
/// with the median set-up time in seconds.
fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let start = std::time::Instant::now();
        kept = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    let median = measure::median(&secs);
    (kept.expect("set up at least once"), median, secs)
}

/// One line of recorded conditions shared by every report.
fn conditions(params: &Params, detail: &str) -> String {
    format!(
        "workload={} seed={} trace={} seconds={} threads={} host_parallelism={} {detail}\n",
        params.workload.name(),
        params.seed,
        params.trace as u8,
        params.seconds,
        params.threads,
        measure::host_parallelism(),
    )
}

/// Renders a per-layer table: self ms per item and share of the flow.
fn layer_table(rows: &[(String, f64)], item_ms: f64, item: &str) -> String {
    let mut s = format!(
        "{:<38} {:>12} {:>8}\n",
        format!("layer (self time per {item})"),
        "ms",
        "share"
    );
    for (name, ms) in rows {
        let share = if item_ms > 0.0 {
            100.0 * ms / item_ms
        } else {
            0.0
        };
        s.push_str(&format!("{name:<38} {ms:>12.4} {share:>7.1}%\n"));
    }
    s.push_str(&format!(
        "{:<38} {item_ms:>12.4} {:>7.1}%\n",
        "flow total", 100.0
    ));
    s
}

#[cfg(test)]
mod tests;
