//! The section 3.1 divergence sweep: `BUSY_MODEL` × every legal
//! scheduler policy × clocked stimuli, then waveform comparison; plus
//! the paper's three race models, whose verdicts are fixed.

use std::slice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{self, Circuit, SchedulerPolicy, Stim, SweepResult};
use crate::measure::{self, ms_since, Tracer};
use crate::{Measured, Params, Tamper, Values, POLICIES};

const COMPARE: &str = "sim.race.compare";

/// Stimulus lengths in cycles; every length appears equally often, so
/// the seed changes the stimulus order but not the total work.
const CYCLES: [u64; 5] = [12, 13, 14, 15, 16];

/// Cycles of the clocked stimulus the paper's models are checked with.
const MODEL_CYCLES: u64 = 4;

struct Sweep {
    busy: Arc<Circuit>,
    models: Vec<(&'static str, Arc<Circuit>, Option<&'static str>)>,
    policies: Vec<SchedulerPolicy>,
    stims: Vec<Stim>,
    model_stim: Stim,
    /// The sequential `sweep` over `stims`.
    reference: Vec<SweepResult>,
    kernel_spans: Vec<String>,
}

fn setup(p: &Params) -> Sweep {
    let busy = adapter::compile_busy_model();
    let models = adapter::compile_paper_models();
    let policies = adapter::policies();
    let mut cycles: Vec<u64> = (0..p.scale.stims)
        .map(|i| CYCLES[i % CYCLES.len()])
        .collect();
    let mut rng = adapter::rng(p.seed);
    for i in (1..cycles.len()).rev() {
        cycles.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let stims: Vec<Stim> = cycles
        .iter()
        .enumerate()
        .map(|(i, &c)| adapter::clocked_stim(format!("s{i}_c{c}"), c))
        .collect();
    let reference = adapter::sweep(&busy, &policies, &stims);
    Sweep {
        busy,
        models,
        policies,
        stims,
        model_stim: adapter::clocked_stim("paper".into(), MODEL_CYCLES),
        reference,
        kernel_spans: POLICIES.iter().map(|p| format!("sim.kernel.{p}")).collect(),
    }
}

/// Checks counted in one round.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One stimulus taken through every policy and compared, each layer
/// call in a span.
struct StimRun {
    ms: f64,
    ok: bool,
    changes: Vec<usize>,
    diverging: usize,
}

impl Sweep {
    fn runs_per_round(&self) -> usize {
        self.policies.len() * self.stims.len()
    }

    fn same(&self, i: usize, mut got: SweepResult, tamper: Tamper) -> bool {
        if tamper == Tamper::FlipVerdict {
            adapter::flip_verdict(&mut got.report);
        }
        got == self.reference[i]
    }

    /// The sweep through the library's work-stealing pool; returns its
    /// wall time.
    fn pool_sweep(&self, threads: usize, tamper: Tamper, tally: &mut Tally) -> f64 {
        let start = Instant::now();
        let results = adapter::sweep_parallel(&self.busy, &self.policies, &self.stims, threads);
        let ms = ms_since(start);
        tally.add(results.len() == self.stims.len());
        for (i, r) in results.into_iter().enumerate() {
            tally.add(self.same(i, r, tamper));
        }
        ms
    }

    /// Per-stimulus verdict latency: `threads` closed-loop workers each
    /// sweep one stimulus at a time.
    fn latency_pass(&self, threads: usize, tamper: Tamper, tally: &mut Tally) -> Vec<f64> {
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(f64, bool)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= self.stims.len() {
                                break;
                            }
                            let start = Instant::now();
                            let mut got = adapter::sweep(
                                &self.busy,
                                &self.policies,
                                slice::from_ref(&self.stims[i]),
                            );
                            let ms = ms_since(start);
                            let ok = got.len() == 1 && self.same(i, got.remove(0), tamper);
                            out.push((ms, ok));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect()
        });
        let mut times = Vec::new();
        for (ms, ok) in per_worker.into_iter().flatten() {
            times.push(ms);
            tally.add(ok);
        }
        times
    }

    /// The paper's models keep their verdicts: `PAPER_RACE` diverges on
    /// `mismatch`, `ORDER_RACE` on `y`, `RACE_FREE` not at all.
    fn model_verdicts(&self, tamper: Tamper, tally: &mut Tally) {
        for (_, circuit, signal) in &self.models {
            let mut got =
                adapter::sweep(circuit, &self.policies, slice::from_ref(&self.model_stim));
            let Some(mut result) = got.pop() else {
                tally.add(false);
                continue;
            };
            if tamper == Tamper::FlipVerdict {
                adapter::flip_verdict(&mut result.report);
            }
            tally.add(match signal {
                Some(signal) => adapter::diverges_on(&result.report, signal),
                None => !adapter::has_race(&result.report),
            });
        }
    }

    /// One stimulus through each policy's kernel and the compare, on
    /// the calling thread.
    fn stim_run(&self, i: usize, tamper: Tamper, t: &mut Tracer) -> StimRun {
        let stim = &self.stims[i];
        let start = Instant::now();
        let kernels: Vec<_> = self
            .policies
            .iter()
            .zip(&self.kernel_spans)
            .map(|(policy, span)| t.span(span, || adapter::run_kernel(&self.busy, *policy, stim)))
            .collect();
        let report = t.span(COMPARE, || adapter::race_compare(&kernels));
        let ms = ms_since(start);
        let diverging = report.diverging.len();
        let got = SweepResult {
            stim: stim.name.clone(),
            report,
        };
        StimRun {
            ms,
            ok: self.same(i, got, tamper),
            changes: kernels.iter().map(adapter::change_count).collect(),
            diverging,
        }
    }
}

pub(crate) fn run(p: &Params) -> Measured {
    let setups = if p.trace { 1 } else { p.scale.setups };
    let (sweep, setup_s, setup_all) = crate::timed_setup(setups, || setup(p));
    assert_eq!(
        sweep.policies.iter().map(|p| p.name).collect::<Vec<_>>(),
        POLICIES,
        "policy names are the per-layer metric names"
    );
    let mut tally = Tally::default();
    // One untimed round first, so warm-up is not measured; it is
    // checked like every other round.
    sweep.pool_sweep(p.threads, p.tamper, &mut tally);
    let detail = format!(
        "model=BUSY_MODEL stims={} cycles={:?} policies={} runs_per_sweep={} setup_s={setup_s:.4} \
         setup_runs={:?}",
        sweep.stims.len(),
        CYCLES,
        sweep.policies.len(),
        sweep.runs_per_round(),
        setup_all
    );
    let mut report = crate::conditions(p, &detail);
    let mut values = Values::new();

    if !p.trace {
        let rounds = measure::repeat_for(p.seconds, || {
            let wall = sweep.pool_sweep(p.threads, p.tamper, &mut tally);
            let latencies = sweep.latency_pass(p.threads, p.tamper, &mut tally);
            sweep.model_verdicts(p.tamper, &mut tally);
            (wall, latencies)
        });
        let rates: Vec<f64> = rounds
            .iter()
            .map(|(wall, _)| sweep.runs_per_round() as f64 / (wall / 1e3))
            .collect();
        let stim_ms: Vec<f64> = rounds.iter().flat_map(|(_, l)| l.iter().copied()).collect();
        values.insert("throughput_per_s".into(), measure::median(&rates));
        report.push_str(&measure::five_numbers("sim_runs_per_s per sweep", &rates));
        values.insert("item_ms_p50".into(), measure::median(&stim_ms));
        values.insert("item_ms_p90".into(), measure::quantile(&stim_ms, 0.9));
        values.insert("setup_s".into(), setup_s);
        report.push_str(&format!(
            "rounds={} stim_samples={} beyond_p90={} sim_runs_per_s(median of sweeps)={:.1} \
             stim_ms p50={:.3} p90={:.3}\n",
            rounds.len(),
            stim_ms.len(),
            measure::beyond(&stim_ms, 0.9),
            values["throughput_per_s"],
            values["item_ms_p50"],
            values["item_ms_p90"],
        ));
    } else {
        let third = p.seconds / 3.0;
        let pool_walls = measure::repeat_for(third, || {
            let wall = sweep.pool_sweep(p.threads, p.tamper, &mut tally);
            sweep.model_verdicts(p.tamper, &mut tally);
            wall
        });
        // Untraced and traced single-worker rounds alternate, so the
        // tracing overhead is measured under the same host conditions.
        // Every round's per-policy change counts must repeat the first
        // round's.
        let mut baseline: Option<Vec<Vec<usize>>> = None;
        let mut round = |t: &mut Tracer, tally: &mut Tally| {
            let runs: Vec<StimRun> = (0..sweep.stims.len())
                .map(|i| sweep.stim_run(i, p.tamper, t))
                .collect();
            let changes: Vec<Vec<usize>> = runs.iter().map(|r| r.changes.clone()).collect();
            let repeat = baseline.get_or_insert_with(|| changes.clone()) == &changes;
            for r in &runs {
                tally.add(r.ok);
            }
            tally.add(repeat);
            sweep.model_verdicts(p.tamper, tally);
            runs
        };
        let mut tracer = Tracer::on();
        let (single, traced): (Vec<Vec<StimRun>>, Vec<Vec<StimRun>>) =
            measure::repeat_for(2.0 * third, || {
                let untraced = round(&mut Tracer::off(), &mut tally);
                (untraced, round(&mut tracer, &mut tally))
            })
            .into_iter()
            .unzip();

        let n_rounds = traced.len() as f64;
        let items = n_rounds * sweep.stims.len() as f64;
        let mut rows: Vec<(String, f64)> = Vec::new();
        let mut kernel_ms = 0.0;
        let mut changes_total = 0usize;
        for (j, policy) in POLICIES.iter().enumerate() {
            let span = &sweep.kernel_spans[j];
            let ms = tracer.total(span) / items;
            kernel_ms += tracer.total(span);
            rows.push((span.clone(), ms));
            values.insert(format!("{span}_ms"), ms);
            let changes: usize = traced.iter().flatten().map(|r| r.changes[j]).sum();
            changes_total += changes;
            values.insert(
                format!("sim.waveform.changes.{policy}"),
                changes as f64 / n_rounds,
            );
        }
        let compare = tracer.total(COMPARE) / items;
        rows.push((COMPARE.to_string(), compare));
        values.insert(format!("{COMPARE}_ms"), compare);
        values.insert(
            "sim.kernel.ns_per_change".into(),
            kernel_ms * 1e6 / changes_total.max(1) as f64,
        );
        let diverging: usize = traced.iter().flatten().map(|r| r.diverging).sum();
        values.insert("sim.race.diverging".into(), diverging as f64 / n_rounds);

        let traced_item = traced.iter().flatten().map(|r| r.ms).sum::<f64>() / items;
        let remainder = traced_item - rows.iter().map(|(_, ms)| ms).sum::<f64>();
        rows.push(("remainder (unattributed)".into(), remainder));
        values.insert("remainder_ms".into(), remainder);
        values.insert("trace.item_ms".into(), traced_item);

        let single_round = single.iter().flatten().map(|r| r.ms).sum::<f64>() / single.len() as f64;
        let single_item = single_round / sweep.stims.len() as f64;
        let mean_wall = pool_walls.iter().sum::<f64>() / pool_walls.len() as f64;
        let efficiency = single_round / (p.threads.max(1) as f64 * mean_wall);
        let overhead = traced_item / single_item - 1.0;
        values.insert("pool.efficiency".into(), efficiency);
        values.insert("trace.overhead_ratio".into(), overhead);

        report.push_str(&format!(
            "phases: pool_sweeps={} single_rounds={} traced_rounds={} traced_stims={items}\n",
            pool_walls.len(),
            single.len(),
            traced.len()
        ));
        report.push_str(&format!(
            "untraced single-worker stim_ms={single_item:.4} traced stim_ms={traced_item:.4} \
             trace.overhead_ratio={overhead:.4} pool.efficiency={efficiency:.4} \
             (threads={}, pool sweep wall {mean_wall:.2} ms)\n",
            p.threads
        ));
        report.push_str(&format!(
            "waveform changes per sweep: {}\n",
            POLICIES
                .iter()
                .map(|pol| format!("{pol}={}", values[&format!("sim.waveform.changes.{pol}")]))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        report.push_str(&crate::layer_table(&rows, traced_item, "stimulus"));
    }
    Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        report,
    }
}
