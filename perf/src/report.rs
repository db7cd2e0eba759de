//! Turns slice results into named metrics, checks them against
//! `BENCHMARK.json`, prints them, and compares two result sets.

use qasom_obs::JsonValue;

use crate::json::{at, fields, get, items, num, parse, text};
use crate::stats::{highest_percentile, median, percentile, sorted, spread};

/// The benchmark's definition, compiled in so names, units and bounds
/// have one source.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

pub struct Benchmark {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

pub fn benchmark() -> Benchmark {
    let doc = parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
    let defs = |key: &str| {
        items(get(&doc, key).expect("BENCHMARK.json lists its metrics"))
            .iter()
            .map(|m| MetricDef {
                name: get(m, "name").and_then(text).unwrap_or_default().to_owned(),
                unit: get(m, "unit").and_then(text).unwrap_or_default().to_owned(),
                lower_is_better: get(m, "better").and_then(text) == Some("lower"),
                bound: get(m, "bound").and_then(num),
            })
            .collect()
    };
    Benchmark {
        workloads: items(get(&doc, "workloads").expect("BENCHMARK.json lists its workloads"))
            .iter()
            .filter_map(|w| get(w, "name").and_then(text).map(str::to_owned))
            .collect(),
        end_to_end: defs("end_to_end"),
        per_layer: defs("per_layer"),
    }
}

/// One named value with the inter-slice spread (IQR over median) of the
/// per-slice values behind it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub spread: f64,
}

/// One workload's untraced slices, aggregated.
pub struct Aggregate {
    pub attempted: u64,
    pub failed: u64,
    /// Pooled latency samples and the percentile `session_p99_ms` could
    /// be taken at (99 wherever a run has its ≥1 000 samples).
    pub samples: usize,
    pub tail_percentile: f64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
}

fn field(slice: &JsonValue, key: &str) -> f64 {
    get(slice, key).and_then(num).unwrap_or(0.0)
}

fn latencies_ms(slice: &JsonValue) -> Vec<f64> {
    get(slice, "latencies_ns")
        .map(items)
        .unwrap_or_default()
        .iter()
        .filter_map(num)
        .map(|ns| ns / 1e6)
        .collect()
}

/// Records one outcome of the check `name`; a check passes only if every
/// outcome recorded under its name did.
pub fn merge_check(checks: &mut Vec<(String, bool)>, name: &str, ok: bool) {
    match checks.iter_mut().find(|(n, _)| n == name) {
        Some(entry) => entry.1 &= ok,
        None => checks.push((name.to_owned(), ok)),
    }
}

pub fn merge_checks(into: &mut Vec<(String, bool)>, slice: &JsonValue) {
    for (name, ok) in get(slice, "checks").map(fields).unwrap_or_default() {
        merge_check(into, name, matches!(ok, JsonValue::Bool(true)));
    }
}

pub fn slice_notes(slice: &JsonValue) -> Vec<String> {
    get(slice, "notes")
        .map(items)
        .unwrap_or_default()
        .iter()
        .filter_map(text)
        .map(str::to_owned)
        .collect()
}

/// Rates, costs and the median latency are taken per measurement window
/// and reported as the median window over all slices, so that a stall of
/// some tens of milliseconds moves nothing; the tail latency comes from
/// the pooled samples, where stalls belong; `setup_s` and `peak_rss_mb`
/// are per process and reported as the median slice.
pub fn aggregate(slices: &[JsonValue]) -> Aggregate {
    let pooled = sorted(slices.iter().flat_map(latencies_ms).collect());
    let tail = highest_percentile(pooled.len()).min(99.0);
    let attempted: f64 = slices.iter().map(|s| field(s, "attempted")).sum();
    let completed: f64 = slices.iter().map(|s| field(s, "completed")).sum();
    let qos_met: f64 = slices.iter().map(|s| field(s, "qos_met")).sum();

    let mut metrics = Vec::new();
    // `value` over everything measured, `spread` between the slices.
    let mut push = |name: &str, value: f64, per_slice: Vec<f64>| {
        metrics.push(Metric {
            name: name.to_owned(),
            value,
            spread: spread(&per_slice),
        });
    };
    let mut per_slice = |name: &str, f: &dyn Fn(&JsonValue) -> f64| {
        let values: Vec<f64> = slices.iter().map(f).collect();
        push(name, median(&values), values);
    };
    per_slice("setup_s", &|s| field(s, "setup_s"));
    per_slice("peak_rss_mb", &|s| field(s, "peak_rss_kb") / 1024.0);
    let mut per_window = |name: &str, f: &dyn Fn(&JsonValue) -> f64| {
        let of_slice = |s: &JsonValue| -> Vec<f64> {
            get(s, "windows")
                .map(items)
                .unwrap_or_default()
                .iter()
                .filter(|w| field(w, "completed") > 0.0)
                .map(f)
                .collect()
        };
        let all: Vec<f64> = slices.iter().flat_map(of_slice).collect();
        push(
            name,
            median(&all),
            slices.iter().map(|s| median(&of_slice(s))).collect(),
        );
    };
    per_window("session_p50_ms", &|w| field(w, "p50_ms"));
    per_window("sessions_per_s", &|w| {
        field(w, "completed") / field(w, "seconds")
    });
    per_window("cpu_ms_per_session", &|w| {
        field(w, "cpu_ms") / field(w, "completed")
    });
    per_window("alloc_kb_per_session", &|w| {
        field(w, "alloc_bytes") / 1024.0 / field(w, "completed")
    });
    per_window("allocs_per_session", &|w| {
        field(w, "allocs") / field(w, "completed")
    });
    push(
        "qos_met_share",
        qos_met / attempted.max(1.0),
        slices
            .iter()
            .map(|s| field(s, "qos_met") / field(s, "attempted").max(1.0))
            .collect(),
    );

    let mut checks = Vec::new();
    let mut notes = Vec::new();
    for slice in slices {
        merge_checks(&mut checks, slice);
        notes.extend(slice_notes(slice));
    }
    Aggregate {
        attempted: attempted as u64,
        failed: (attempted - completed) as u64,
        samples: pooled.len(),
        tail_percentile: tail,
        metrics,
        checks,
        notes,
    }
}

/// Whole-system metrics that cannot carry a bound — the tail latency,
/// whose run-to-run spread exceeds any bound the benchmark may set, and
/// the churn generator's view, which exists on one workload only — over
/// the pooled samples of `slices`. Reported beside the per-layer set.
pub fn system_metrics(slices: &[JsonValue]) -> Vec<Metric> {
    let pooled = sorted(slices.iter().flat_map(latencies_ms).collect());
    let tail = highest_percentile(pooled.len()).min(99.0);
    let churn_ms = |key: &str| -> Vec<f64> {
        sorted(
            slices
                .iter()
                .flat_map(|s| at(s, &["churn", key]).map(items).unwrap_or_default())
                .filter_map(num)
                .map(|ns| ns / 1e6)
                .collect(),
        )
    };
    let (op, late) = (churn_ms("op_ns"), churn_ms("late_ns"));
    let recover: Vec<f64> = slices
        .iter()
        .filter_map(|s| at(s, &["churn", "recover_s"]).and_then(num))
        .collect();
    [
        ("session_p99_ms", percentile(&pooled, tail)),
        ("churn_op_p50_ms", percentile(&op, 50.0)),
        (
            "churn_op_p99_ms",
            percentile(&op, highest_percentile(op.len()).min(99.0)),
        ),
        (
            "churn_late_ms_p99",
            percentile(&late, highest_percentile(late.len()).min(99.0)),
        ),
        ("recover_s", median(&recover)),
    ]
    .into_iter()
    .map(|(name, value)| Metric {
        name: name.to_owned(),
        value,
        spread: 0.0,
    })
    .collect()
}

/// The per-layer metrics of a traced slice, by name.
pub fn layers(slice: &JsonValue) -> Vec<Metric> {
    get(slice, "layers")
        .map(fields)
        .unwrap_or_default()
        .iter()
        .map(|(name, value)| Metric {
            name: name.clone(),
            value: num(value).unwrap_or(0.0),
            spread: 0.0,
        })
        .collect()
}

/// Renders `measured` as the `{name: {value, unit[, spread]}}` object the
/// benchmark defines — exactly the metrics in `defs`, in that order.
///
/// # Errors
///
/// Names the first defined metric that was not measured, or measured
/// metric that is not defined: the code and `BENCHMARK.json` disagree.
pub fn named(
    defs: &[MetricDef],
    measured: &[Metric],
    with_spread: bool,
) -> Result<JsonValue, String> {
    if let Some(extra) = measured
        .iter()
        .find(|m| defs.iter().all(|d| d.name != m.name))
    {
        return Err(format!("metric {} is not in BENCHMARK.json", extra.name));
    }
    let mut out = JsonValue::object();
    for def in defs {
        let metric = measured
            .iter()
            .find(|m| m.name == def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        let mut entry = JsonValue::object()
            .field("value", metric.value)
            .field("unit", def.unit.as_str());
        if with_spread {
            entry = entry.field("spread", metric.spread);
        }
        out = out.field(&def.name, entry);
    }
    Ok(out)
}

pub fn checks_json(checks: &[(String, bool)]) -> JsonValue {
    checks
        .iter()
        .fold(JsonValue::object(), |o, (name, ok)| o.field(name, *ok))
}

/// Prints one workload's metrics as an aligned table.
pub fn print_metrics(title: &str, metrics: &JsonValue) {
    println!("  {title}");
    for (name, entry) in fields(metrics) {
        let value = get(entry, "value").and_then(num).unwrap_or(0.0);
        let unit = get(entry, "unit").and_then(text).unwrap_or("");
        match get(entry, "spread").and_then(num) {
            Some(s) => println!(
                "    {name:<40} {value:>14.4} {unit:<6} (spread {:.1} %)",
                s * 100.0
            ),
            None => println!("    {name:<40} {value:>14.4} {unit}"),
        }
    }
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric),
/// judged by the metric's bound. Returns whether any row is `worse`.
///
/// # Errors
///
/// Fails when a file cannot be read or lacks a defined metric.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bench = benchmark();
    let mut any_worse = false;
    println!(
        "{:<14} {:<22} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    for workload in &bench.workloads {
        for def in &bench.end_to_end {
            let read = |doc: &JsonValue, key: &str| {
                at(doc, &["workloads", workload, "end_to_end", &def.name, key])
                    .and_then(num)
                    .ok_or_else(|| format!("{workload}/{} has no {key}", def.name))
            };
            let (va, vb) = (read(&a, "value")?, read(&b, "value")?);
            let noise = read(&a, "spread")?.max(read(&b, "spread")?);
            let bound = def.bound.unwrap_or(0.0);
            // Positive = B is worse than A, as a share of A.
            let worse_by = if def.lower_is_better {
                vb - va
            } else {
                va - vb
            } / va.abs().max(f64::MIN_POSITIVE);
            let verdict = verdict(worse_by, noise, bound);
            any_worse |= verdict == "worse";
            println!(
                "{workload:<14} {:<22} {va:>12.4} {vb:>12.4} {:>+8.1}% {:>6.1}% {:>6.1}%  {verdict}",
                def.name,
                worse_by * 100.0,
                noise * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(any_worse)
}

/// Judges a change of `worse_by` (share of the baseline, positive =
/// worse) against the metric's `bound`, given the wider of the two sets'
/// inter-slice spreads.
fn verdict(worse_by: f64, noise: f64, bound: f64) -> &'static str {
    if worse_by.abs() <= bound {
        "same"
    } else if noise > bound {
        "unresolved"
    } else if worse_by > 0.0 {
        "worse"
    } else {
        "better"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.04, 0.01, 0.05), "same");
        assert_eq!(verdict(-0.04, 0.5, 0.05), "same");
        assert_eq!(verdict(0.2, 0.01, 0.05), "worse");
        assert_eq!(verdict(-0.2, 0.01, 0.05), "better");
        assert_eq!(verdict(0.2, 0.06, 0.05), "unresolved");
        assert_eq!(verdict(-0.2, 0.06, 0.05), "unresolved");
    }

    #[test]
    fn benchmark_json_is_self_consistent() {
        let bench = benchmark();
        assert_eq!(bench.workloads.len(), crate::workloads::WORKLOADS.len());
        for w in crate::workloads::WORKLOADS {
            assert!(bench.workloads.iter().any(|n| n == w.name), "{}", w.name);
        }
        assert!(bench
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(bench
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.lower_is_better));
        assert!(bench.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
