//! Small-scale runs of every workload, and proof that the correctness
//! gate is live: a corrupted emitted text and a flipped race verdict
//! must each raise `fail_ratio`.

use super::*;

const SMALL: Scale = Scale {
    designs: 4,
    dirty: 1,
    stims: 2,
    setups: 2,
};

fn small(workload: Workload, trace: bool, tamper: Tamper) -> Outcome {
    run(&Params {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        threads: 2,
        scale: SMALL,
        tamper,
    })
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn every_workload_passes_its_gate_and_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let out = small(workload, false, Tamper::None);
        assert!(out.attempted > 0, "{}", workload.name());
        assert_eq!(out.failed, 0, "{}:\n{}", workload.name(), out.report);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                workload.name()
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_where_it_runs() {
    let migration_layers = [
        "schematic.viewstar.parse_ms",
        "schematic.cascade.write_ms",
        "schematic.cascade.parse_ms",
        "interop_core.hash_ms",
        "migrate.pipeline_ms",
        "migrate.cache.cost_ms",
        "migrate.verify_ms",
    ];
    for workload in [Workload::ExarCold, Workload::ExarRerun] {
        let out = small(workload, true, Tamper::None);
        assert_eq!(out.failed, 0, "{}:\n{}", workload.name(), out.report);
        for name in migration_layers {
            assert!(value(&out, name) > 0.0, "{} {name}", workload.name());
        }
        for step in VERIFY_STEPS {
            assert!(value(&out, &format!("migrate.verify.{step}_ms")) > 0.0);
        }
        assert!(value(&out, "migrate.cache.inserts") > 0.0);
        assert!(value(&out, "pool.efficiency") > 0.0);
        assert!(out.report.contains("remainder (unattributed)"));
        assert_eq!(value(&out, "sim.kernel.SimA_ms"), 0.0);
    }
    let cold = small(Workload::ExarCold, true, Tamper::None);
    for stage in STAGES {
        assert!(
            value(&cold, &format!("migrate.stage.{stage}_ms")) > 0.0,
            "{stage}"
        );
    }
    assert_eq!(value(&cold, "migrate.cache.misses"), SMALL.designs as f64);
    let rerun = small(Workload::ExarRerun, true, Tamper::None);
    assert_eq!(value(&rerun, "migrate.cache.misses"), SMALL.dirty as f64);
    assert_eq!(
        value(&rerun, "migrate.cache.prefix_hits"),
        (SMALL.designs - SMALL.dirty) as f64
    );

    let race = small(Workload::RaceSweep, true, Tamper::None);
    assert_eq!(race.failed, 0, "{}", race.report);
    for policy in POLICIES {
        assert!(value(&race, &format!("sim.kernel.{policy}_ms")) > 0.0);
        assert!(value(&race, &format!("sim.waveform.changes.{policy}")) > 0.0);
    }
    for name in [
        "sim.race.compare_ms",
        "sim.kernel.ns_per_change",
        "pool.efficiency",
    ] {
        assert!(value(&race, name) > 0.0, "{name}");
    }
    assert_eq!(value(&race, "migrate.pipeline_ms"), 0.0);
}

#[test]
fn corrupted_emitted_text_raises_the_fail_ratio() {
    for workload in [Workload::ExarCold, Workload::ExarRerun] {
        for trace in [false, true] {
            let out = small(workload, trace, Tamper::CorruptEmit);
            assert!(out.fail_ratio() > 0.0, "{} trace={trace}", workload.name());
            if trace {
                assert!(value(&out, "fail_ratio") > 0.0);
            }
        }
    }
}

#[test]
fn flipped_race_verdict_raises_the_fail_ratio() {
    for trace in [false, true] {
        let out = small(Workload::RaceSweep, trace, Tamper::FlipVerdict);
        assert!(out.fail_ratio() > 0.0, "trace={trace}");
        if trace {
            assert!(value(&out, "fail_ratio") > 0.0);
        }
    }
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    // Each entry's name, and its unit when it has one (workloads do not).
    let entries: Vec<(String, Option<String>)> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| {
            let quoted = |s: &str| s[..s.find('"').expect("closing quote")].to_string();
            let unit = rest
                .split_once("\"unit\": \"")
                .filter(|(before, _)| !before.contains('}'))
                .map(|(_, after)| quoted(after));
            (quoted(rest), unit)
        })
        .collect();
    let mut want: Vec<(String, Option<String>)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), None))
        .collect();
    want.extend(
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string()))),
    );
    want.extend(
        per_layer()
            .into_iter()
            .map(|(n, u)| (n, Some(u.to_string()))),
    );
    assert_eq!(entries, want);
}
