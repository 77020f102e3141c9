//! Timing, tracing and result formatting shared by the workloads.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Times calls into a layer when tracing is on, and only forwards them
/// when it is off, so the traced and untraced runs share one flow.
///
/// Spans are recorded around calls the benchmark makes; none of them
/// nest, so a span's duration is its layer's self time.
pub struct Tracer {
    spans: Option<BTreeMap<String, f64>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { spans: None }
    }

    /// A tracer that sums each span's milliseconds by name.
    pub fn on() -> Self {
        Tracer {
            spans: Some(BTreeMap::new()),
        }
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.spans.is_some()
    }

    /// Runs `f`, adding its duration to span `name` when tracing.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let ms = ms_since(start);
        match spans.get_mut(name) {
            Some(total) => *total += ms,
            None => {
                spans.insert(name.to_string(), ms);
            }
        }
        out
    }

    /// Total milliseconds recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .as_ref()
            .and_then(|s| s.get(name))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Calls `f` until `seconds` have gone by, at least once, and returns
/// every result.
pub fn repeat_for<T>(seconds: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f());
        if start.elapsed() >= budget {
            return out;
        }
    }
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many samples lie strictly above the `q`-quantile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|v| **v > cut).count()
}

/// `label: min q1 median q3 max (n=count)` of a sample.
pub fn five_numbers(label: &str, values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "{label}: min={:.3} q1={:.3} median={:.3} q3={:.3} max={:.3} (n={})\n",
        sorted.first().copied().unwrap_or(0.0),
        quantile(&sorted, 0.25),
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.75),
        sorted.last().copied().unwrap_or(0.0),
        sorted.len()
    )
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0
/// where `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the host offers.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest text that reads back as the same f64,
    // which keeps every measured digit.
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tracer_sums_spans_only_when_on() {
        let mut off = Tracer::off();
        assert_eq!(off.span("a", || 7), 7);
        assert_eq!(off.total("a"), 0.0);
        let mut on = Tracer::on();
        on.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        on.span("a", || ());
        assert!(on.total("a") >= 2.0);
        assert_eq!(on.total("b"), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(
            3,
            0,
            &[
                Metric {
                    name: "x_ms".into(),
                    value: 1.5,
                    unit: "ms",
                },
                Metric {
                    name: "n".into(),
                    value: 2.0,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }
}
