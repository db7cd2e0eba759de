//! `qasom-perf` — the QASOM serving benchmark (see `perf/README.md`).
//!
//! ```text
//! qasom-perf run     [--seed N] [--out PATH] [--quick]     every workload, every metric
//! qasom-perf bench   --workload W --seed N --seconds S --trace 0|1
//! qasom-perf compare A.json B.json
//! qasom-perf slice   …                                     (internal: one child process)
//! ```

mod alloc;
mod json;
mod load;
mod report;
mod slice;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use qasom_obs::JsonValue;

use report::{aggregate, benchmark, checks_json, layers, merge_checks, named, print_metrics};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Warm-up before each measured window, discarded.
const WARMUP_S: f64 = 1.0;
/// Slices behind one `bench` result: set-up, warm-up and measurement
/// repeat in a fresh process each, and `setup_s` is their median.
const BENCH_SLICES: usize = 5;

const USAGE: &str = "usage: qasom-perf run [--seed N] [--out PATH] [--quick]
       qasom-perf bench --workload W --seed N --seconds S --trace 0|1
       qasom-perf compare A.json B.json";

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.value(name) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{name}: cannot parse {raw:?}")),
            None => default.ok_or_else(|| format!("{name} is required\n{USAGE}")),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.parsed("--workload", None)?;
        workloads::workload(&name).ok_or_else(|| format!("unknown workload {name}"))
    }
}

/// The per-layer set: the traced slice's layers, then the whole-system
/// metrics over `system`.
fn per_layer(traced: &JsonValue, system: &[JsonValue]) -> Vec<report::Metric> {
    let mut metrics = layers(traced);
    metrics.extend(report::system_metrics(system));
    metrics
}

/// Runs one slice in a fresh child process and parses its result.
fn child_slice(
    workload: Workload,
    seed: u64,
    warmup: f64,
    seconds: f64,
    trace: bool,
) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["slice", "--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--warmup", &warmup.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn slice: {e}"))?;
    if !output.status.success() {
        return Err(format!("slice {} failed: {}", workload.name, output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
}

fn host_json() -> JsonValue {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_default();
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    JsonValue::object()
        .field(
            "nproc",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .field("cpu_model", cpu_model)
        .field("kernel", read("/proc/sys/kernel/osrelease").trim())
        .field("commit", commit)
}

/// The driver's entry point: one workload, one JSON line.
fn bench(flags: &Flags) -> Result<bool, String> {
    let workload = flags.workload()?;
    let seed: u64 = flags.parsed("--seed", None)?;
    let seconds: f64 = flags.parsed("--seconds", None)?;
    let trace = flags.parsed::<u8>("--trace", None)? != 0;
    let bench = benchmark();

    // A traced run is one slice for the full time; an untraced one is
    // several shorter slices, so that set-up repeats.
    let (count, trace_flag) = if trace {
        (1, true)
    } else {
        (BENCH_SLICES, false)
    };
    let slices = (0..count)
        .map(|_| child_slice(workload, seed, WARMUP_S, seconds / count as f64, trace_flag))
        .collect::<Result<Vec<_>, _>>()?;
    let agg = aggregate(&slices);
    for note in &agg.notes {
        eprintln!("qasom-perf: {note}");
    }
    let metrics = if trace {
        named(&bench.per_layer, &per_layer(&slices[0], &slices), false)?
    } else {
        named(&bench.end_to_end, &agg.metrics, false)?
    };
    let (attempted, failed, checks) = (agg.attempted, agg.failed, agg.checks);
    let correct = checks.iter().all(|(_, ok)| *ok);
    for (name, _) in checks.iter().filter(|(_, ok)| !ok) {
        eprintln!("qasom-perf: check failed: {name}");
    }
    println!(
        "{}",
        JsonValue::object()
            .field("correct", correct)
            .field("attempted", attempted.max(1))
            .field("failed", failed)
            .field("metrics", metrics)
            .to_compact()
    );
    Ok(correct)
}

/// The whole benchmark: every workload as interleaved slices, then one
/// traced slice each; prints every metric and writes the result file.
fn run(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", Some(1))?;
    let quick = flags.has("--quick");
    let (slices, warmup, seconds) = if quick {
        (1usize, 0.25, 1.0)
    } else {
        (5, WARMUP_S, 6.0)
    };
    let bench = benchmark();

    // Round-robin over workloads, so slow drift of the machine hits all
    // of them alike.
    let mut untraced: Vec<Vec<JsonValue>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..slices {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("qasom-perf: {} slice {}/{slices}", workload.name, round + 1);
            untraced[w].push(child_slice(*workload, seed, warmup, seconds, false)?);
        }
    }

    let mut correct = true;
    let mut per_workload = JsonValue::object();
    println!(
        "QASOM serving benchmark — seed {seed}, {slices} slice(s) x {seconds} s per workload; \
         in-process qasomd (qasom_daemon::spawn, BrokerConfig::default(), default features), \
         traffic over the host loopback interface, not a link"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        eprintln!("qasom-perf: {} traced slice", workload.name);
        let traced = child_slice(*workload, seed, warmup, seconds, true)?;
        let agg = aggregate(&untraced[w]);
        let mut checks = agg.checks.clone();
        merge_checks(&mut checks, &traced);
        correct &= checks.iter().all(|(_, ok)| *ok);

        let end_to_end = named(&bench.end_to_end, &agg.metrics, true)?;
        // The whole-system metrics come from the untraced slices.
        let per_layer = named(&bench.per_layer, &per_layer(&traced, &untraced[w]), false)?;
        let failed_share = agg.failed as f64 / agg.attempted.max(1) as f64;
        println!(
            "\n{} — {} sessions attempted, {} failed (failed_share {failed_share:.4}); \
             {} latency samples, tail taken at p{}",
            workload.name, agg.attempted, agg.failed, agg.samples, agg.tail_percentile
        );
        print_metrics("end to end", &end_to_end);
        print_metrics("per layer (traced slice)", &per_layer);
        for (name, ok) in &checks {
            println!("    check {name:<44} {}", if *ok { "ok" } else { "FAILED" });
        }
        for note in agg.notes.iter().chain(&report::slice_notes(&traced)) {
            println!("    note: {note}");
        }
        per_workload = per_workload.field(
            workload.name,
            JsonValue::object()
                .field("attempted", agg.attempted)
                .field("failed", agg.failed)
                .field("failed_share", failed_share)
                .field("samples", agg.samples)
                .field("tail_percentile", agg.tail_percentile)
                .field("end_to_end", end_to_end)
                .field("per_layer", per_layer)
                .field("checks", checks_json(&checks)),
        );
    }

    let result = JsonValue::object()
        .field("schema", "qasom.perf-result.v1")
        .field("seed", seed)
        .field("slices", slices)
        .field("slice_seconds", seconds)
        .field(
            "program",
            "in-process qasom_daemon::spawn(127.0.0.1:0, BrokerConfig::default()), default features, host loopback",
        )
        .field("host", host_json())
        .field("correct", correct)
        .field("workloads", per_workload);
    let out = flags.value("--out").map_or_else(
        || slice::out_dir().join("result.json"),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult written to {}; correct = {correct}", out.display());
    Ok(correct)
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let flags = Flags(rest.to_vec());
    match command.as_str() {
        "run" => run(&flags),
        "bench" => bench(&flags),
        "slice" => {
            let result = slice::run(&slice::SliceSpec {
                workload: flags.workload()?,
                seed: flags.parsed("--seed", None)?,
                warmup: flags.parsed("--warmup", None)?,
                seconds: flags.parsed("--seconds", None)?,
                trace: flags.parsed::<u8>("--trace", None)? != 0,
            })?;
            println!("{}", result.to_compact());
            Ok(true)
        }
        "compare" => match rest {
            [a, b] => report::compare(a, b).map(|any_worse| !any_worse),
            _ => Err(USAGE.to_owned()),
        },
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("qasom-perf: {message}");
            ExitCode::FAILURE
        }
    }
}
