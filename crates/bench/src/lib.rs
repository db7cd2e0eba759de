//! Experiment harness regenerating every figure of the QASOM evaluation
//! (thesis Ch. VI §3 and Ch. V §7).
//!
//! [`FIGURES`] lists every figure: its key, title, x label, whether it
//! measures wall-clock time, and the `fig_*`-style function that
//! reproduces it as a set of labelled [`FigureSeries`] (or returns the
//! error that stopped it). The `repro` binary prints every row as a
//! table; the `figures` scenario ([`scenarios`]) renders the
//! deterministic ones as one JSON document, pinned by its golden file.
//! Timed series are produced on *this* machine against the simulated
//! substrate, so absolute values differ from the original testbed — the
//! shapes (slopes, orderings, crossovers) are what reproduction means
//! here; see `EXPERIMENTS.md` for the side-by-side reading.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod scenarios;

use std::error::Error;
use std::time::Instant;

use qasom_adaptation::BehaviouralAdapter;
use qasom_netsim::LinkConfig;
use qasom_ontology::OntologyBuilder;
use qasom_qos::QosModel;
use qasom_selection::baseline::Baselines;
use qasom_selection::distributed::{DistributedQassa, DistributedSetup, REPLY_TIMEOUT_MS};
use qasom_selection::workload::{TaskShape, Tightness, Workload, WorkloadSpec};
use qasom_selection::{AggregationApproach, LocalRank, Qassa, QassaConfig};
use qasom_task::{bpel, Activity, BehaviouralGraph, TaskError, TaskNode, UserTask};

/// Whatever stopped a figure: a malformed workload, a failed selection,
/// a protocol that never completed, …
pub type FigureError = Box<dyn Error>;

/// A figure's series, or the error that stopped it.
pub type FigureResult = Result<Vec<FigureSeries>, FigureError>;

/// One plotted series of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Series label, as printed in the table header.
    pub label: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
}

impl FigureSeries {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        FigureSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }
}

/// Prints a figure as an aligned table (x column + one column per series).
pub fn print_figure(title: &str, x_name: &str, series: &[FigureSeries]) {
    println!("\n== {title} ==");
    print!("{x_name:>12}");
    for s in series {
        print!("  {:>18}", s.label);
    }
    println!();
    let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..rows {
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|&(x, _)| x))
            .unwrap_or(f64::NAN);
        print!("{x:>12.2}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!("  {y:>18.4}"),
                None => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// One regenerated figure: a row of [`FIGURES`].
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The command-line key that selects it (`vi5` selects both VI.5a
    /// and VI.5b).
    pub key: &'static str,
    /// Printed title.
    pub title: &'static str,
    /// x-axis label.
    pub x_label: &'static str,
    /// Whether its series are wall-clock times ([`time_ms`]). Every
    /// other row is deterministic: a pure function of the code,
    /// simulated `[ms]` included.
    pub timed: bool,
    /// Produces the series.
    pub run: fn(&QosModel) -> FigureResult,
}

/// Every figure, in print order.
pub const FIGURES: &[Figure] = &[
    Figure {
        key: "vi5",
        title: "Fig. VI.5a — selection time vs services/activity (5 activities, 4 constraints)",
        x_label: "services",
        timed: true,
        run: fig_vi5a,
    },
    Figure {
        key: "vi5",
        title: "Fig. VI.5b — selection time vs #QoS constraints (100 services/activity)",
        x_label: "constraints",
        timed: true,
        run: fig_vi5b,
    },
    Figure {
        key: "vi6",
        title: "Fig. VI.6a — optimality vs services/activity (vs exhaustive optimum)",
        x_label: "services",
        timed: false,
        run: fig_vi6a,
    },
    Figure {
        key: "vi6",
        title: "Fig. VI.6b — optimality vs #QoS constraints",
        x_label: "constraints",
        timed: false,
        run: fig_vi6b,
    },
    Figure {
        key: "vi7",
        title: "Fig. VI.7 — selection time per aggregation approach (choice+loop tasks)",
        x_label: "services",
        timed: true,
        run: fig_vi7,
    },
    Figure {
        key: "vi8",
        title: "Fig. VI.8 — optimality per aggregation approach",
        x_label: "services",
        timed: false,
        run: fig_vi8,
    },
    Figure {
        key: "vi9",
        title: "Fig. VI.9 — generated QoS follows N(m, σ)",
        x_label: "property",
        timed: false,
        run: fig_vi9,
    },
    Figure {
        key: "vi10",
        title: "Fig. VI.10 — selection time with constraints at m vs m+σ",
        x_label: "services",
        timed: true,
        run: fig_vi10,
    },
    Figure {
        key: "vi11",
        title: "Fig. VI.11 — optimality with constraints at m vs m+σ",
        x_label: "services",
        timed: false,
        run: fig_vi11,
    },
    Figure {
        key: "vi12",
        title: "Fig. VI.12 — distributed QASSA: simulated phase times vs provider nodes",
        x_label: "providers",
        timed: false,
        run: fig_vi12,
    },
    Figure {
        key: "vi13",
        title: "Fig. VI.13 — abstract BPEL → behavioural graph transformation time",
        x_label: "activities",
        timed: true,
        run: |_| fig_vi13(),
    },
    Figure {
        key: "v_adapt",
        title: "Ch. V — behavioural adaptation (order-embedding resume mapping) time",
        x_label: "activities",
        timed: true,
        run: |_| fig_v_adapt(),
    },
    Figure {
        key: "loss",
        title: "Extra — message loss: retries vs no retries (8 providers, 10 seeds)",
        x_label: "loss prob",
        timed: false,
        run: fig_loss,
    },
    Figure {
        key: "activities",
        title: "Extra — selection time vs number of activities (100 services each)",
        x_label: "activities",
        timed: true,
        run: fig_activities,
    },
    Figure {
        key: "discovery",
        title: "Discovery — indexed vs linear scan (32 × 4 taxonomy, category-level request)",
        x_label: "services",
        timed: true,
        run: fig_discovery,
    },
    Figure {
        key: "scale",
        title: "Scalability — QASSA at large pools (serial vs parallel local phase)",
        x_label: "services",
        timed: true,
        run: scalability,
    },
    Figure {
        key: "ablate",
        title: "Ablation — K-means band count k: selection time",
        x_label: "k",
        timed: true,
        run: ablate_kmeans_k_time,
    },
    Figure {
        key: "ablate",
        title: "Ablation — K-means band count k: optimality",
        x_label: "k",
        timed: false,
        run: ablate_kmeans_k_optimality,
    },
    Figure {
        key: "ablate",
        title: "Ablation — global phase repair budget (feasible-rate, tight constraints)",
        x_label: "services",
        timed: false,
        run: ablate_global_strategy,
    },
    Figure {
        key: "ablate",
        title: "Ablation — proactive vs reactive monitoring (lead on a drifting service)",
        x_label: "drift slope",
        timed: false,
        run: ablate_monitoring,
    },
    Figure {
        key: "ablate",
        title: "Ablation — semantic vs syntactic discovery recall",
        x_label: "providers",
        timed: false,
        run: ablate_semantics,
    },
    Figure {
        key: "compare",
        title: "Selector comparison — median time, seed 0 (8 services at m−σ/4, 100 at m)",
        x_label: "services",
        timed: true,
        run: compare_selectors_time,
    },
    Figure {
        key: "compare",
        title: "Selector comparison — utility and feasible rate, 10 seeds (8 at m−σ/4, 100 at m)",
        x_label: "services",
        timed: false,
        run: compare_selectors,
    },
];

/// The rows of [`FIGURES`] the command-line `keys` select: every row
/// when `keys` is empty or holds `all`, else the rows whose key is
/// listed, in table order.
///
/// # Errors
///
/// A key no row has, with the list of valid keys.
pub fn select_figures(keys: &[String]) -> Result<Vec<&'static Figure>, String> {
    let mut valid = vec!["all"];
    for f in FIGURES {
        if !valid.contains(&f.key) {
            valid.push(f.key);
        }
    }
    if let Some(unknown) = keys.iter().find(|k| !valid.contains(&k.as_str())) {
        return Err(format!(
            "unknown figure {unknown:?}; valid keys: {}",
            valid.join(" ")
        ));
    }
    let all = keys.is_empty() || keys.iter().any(|k| k == "all");
    Ok(FIGURES
        .iter()
        .filter(|f| all || keys.iter().any(|k| k == f.key))
        .collect())
}

/// Times `f` (milliseconds), median of `repeats` runs after one warm-up.
/// The first error `f` returns stops the timing and is returned.
#[allow(
    clippy::disallowed_methods,
    reason = "the repro figures time wall-clock on purpose"
)]
pub fn time_ms<T>(
    repeats: usize,
    mut f: impl FnMut() -> Result<T, FigureError>,
) -> Result<f64, FigureError> {
    f()?; // warm-up
    let mut samples = Vec::with_capacity(repeats.max(1));
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64() * 1_000.0);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[samples.len() / 2])
}

fn qassa_time_ms(model: &QosModel, w: &Workload, repeats: usize) -> Result<f64, FigureError> {
    let problem = w.problem();
    let qassa = Qassa::new(model);
    time_ms(repeats, || Ok(qassa.select(&problem)?))
}

/// Mean QASSA/exhaustive utility ratio over `seeds` feasible instances
/// (infeasible-for-both instances are skipped; QASSA missing a feasible
/// solution scores 0, so misses show up as optimality loss).
fn optimality(
    model: &QosModel,
    config: QassaConfig,
    spec: &WorkloadSpec,
    seeds: u64,
) -> Result<f64, FigureError> {
    let baselines = Baselines::new(model);
    let qassa = Qassa::with_config(model, config);
    let mut total = 0.0;
    let mut counted = 0usize;
    for seed in 0..seeds {
        let w = spec.build(model, seed);
        let problem = w.problem();
        let exact = baselines.exhaustive(&problem)?;
        if !exact.feasible || exact.utility <= 0.0 {
            continue;
        }
        let ours = qassa.select(&problem)?;
        let ratio = if ours.feasible {
            (ours.utility / exact.utility).min(1.0)
        } else {
            0.0
        };
        total += ratio;
        counted += 1;
    }
    Ok(if counted == 0 {
        f64::NAN
    } else {
        total / counted as f64
    })
}

/// Fig. VI.5a — QASSA execution time vs. services per activity
/// (5 activities, 4 global constraints).
pub fn fig_vi5a(model: &QosModel) -> FigureResult {
    let mut qassa = FigureSeries::new("QASSA [ms]");
    let mut greedy = FigureSeries::new("greedy [ms]");
    for n in [10, 50, 100, 150, 200, 250, 300] {
        let w = WorkloadSpec::evaluation_default()
            .services_per_activity(n)
            .build(model, 42);
        qassa.points.push((n as f64, qassa_time_ms(model, &w, 5)?));
        let b = Baselines::new(model);
        let problem = w.problem();
        greedy
            .points
            .push((n as f64, time_ms(5, || Ok(b.greedy(&problem)?))?));
    }
    Ok(vec![qassa, greedy])
}

/// Fig. VI.5b — QASSA execution time vs. number of global QoS constraints
/// (100 services per activity).
pub fn fig_vi5b(model: &QosModel) -> FigureResult {
    let mut s = FigureSeries::new("QASSA [ms]");
    for k in 1..=8 {
        let w = WorkloadSpec::evaluation_default()
            .property_count(k)
            .build(model, 42);
        s.points.push((k as f64, qassa_time_ms(model, &w, 5)?));
    }
    Ok(vec![s])
}

/// Fig. VI.6a — optimality vs. services per activity (4 activities so the
/// exhaustive optimum stays tractable).
pub fn fig_vi6a(model: &QosModel) -> FigureResult {
    let mut s = FigureSeries::new("optimality");
    for n in [4, 6, 8, 10, 12, 15] {
        let spec = WorkloadSpec::evaluation_default()
            .activities(4)
            .services_per_activity(n);
        s.points.push((
            n as f64,
            optimality(model, QassaConfig::default(), &spec, 8)?,
        ));
    }
    Ok(vec![s])
}

/// Fig. VI.6b — optimality vs. number of constraints (4 activities × 10
/// services).
pub fn fig_vi6b(model: &QosModel) -> FigureResult {
    let mut s = FigureSeries::new("optimality");
    for k in 1..=6 {
        let spec = WorkloadSpec::evaluation_default()
            .activities(4)
            .services_per_activity(10)
            .property_count(k);
        s.points.push((
            k as f64,
            optimality(model, QassaConfig::default(), &spec, 8)?,
        ));
    }
    Ok(vec![s])
}

fn approaches() -> [(AggregationApproach, &'static str); 3] {
    [
        (AggregationApproach::Pessimistic, "pessimistic"),
        (AggregationApproach::Optimistic, "optimistic"),
        (AggregationApproach::MeanValue, "mean-value"),
    ]
}

/// Fig. VI.7 — execution time under the three aggregation approaches
/// (choice- and loop-bearing tasks).
pub fn fig_vi7(model: &QosModel) -> FigureResult {
    approaches()
        .into_iter()
        .map(|(approach, label)| {
            let mut s = FigureSeries::new(format!("{label} [ms]"));
            for n in [10, 50, 100, 200, 300] {
                let w = WorkloadSpec::evaluation_default()
                    .shape(TaskShape::Full)
                    .approach(approach)
                    .services_per_activity(n)
                    .build(model, 42);
                s.points.push((n as f64, qassa_time_ms(model, &w, 5)?));
            }
            Ok(s)
        })
        .collect()
}

/// Fig. VI.8 — optimality under the three aggregation approaches.
pub fn fig_vi8(model: &QosModel) -> FigureResult {
    approaches()
        .into_iter()
        .map(|(approach, label)| {
            let mut s = FigureSeries::new(label);
            for n in [4, 8, 12] {
                let spec = WorkloadSpec::evaluation_default()
                    .activities(4)
                    .shape(TaskShape::Full)
                    .approach(approach)
                    .services_per_activity(n);
                s.points.push((
                    n as f64,
                    optimality(model, QassaConfig::default(), &spec, 6)?,
                ));
            }
            Ok(s)
        })
        .collect()
}

/// Fig. VI.9 — sanity of the normally distributed QoS workload: per
/// property, the sample mean and standard deviation of the generated
/// values (compare against the configured `N(m, σ)`).
pub fn fig_vi9(model: &QosModel) -> FigureResult {
    let w = WorkloadSpec::evaluation_default()
        .activities(1)
        .services_per_activity(5_000)
        .build(model, 42);
    let mut mean_s = FigureSeries::new("sample mean");
    let mut std_s = FigureSeries::new("sample std dev");
    let props: Vec<_> = w.problem().properties();
    for (i, &p) in props.iter().enumerate() {
        let values: Vec<f64> = w.candidates()[0]
            .iter()
            .filter_map(|c| c.qos().get(p))
            .collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        mean_s.points.push((i as f64, mean));
        std_s.points.push((i as f64, var.sqrt()));
    }
    Ok(vec![mean_s, std_s])
}

/// Fig. VI.10 — execution time with global constraints fixed at `m`
/// (tight) vs. one σ looser.
pub fn fig_vi10(model: &QosModel) -> FigureResult {
    [
        (Tightness::AtMean, "bound at m [ms]"),
        (Tightness::AtMeanPlusSigma, "bound at m+σ [ms]"),
    ]
    .into_iter()
    .map(|(tightness, label)| {
        let mut s = FigureSeries::new(label);
        for n in [10, 50, 100, 200, 300] {
            let w = WorkloadSpec::evaluation_default()
                .tightness(tightness)
                .services_per_activity(n)
                .build(model, 42);
            s.points.push((n as f64, qassa_time_ms(model, &w, 5)?));
        }
        Ok(s)
    })
    .collect()
}

/// Fig. VI.11 — optimality with constraints at `m` vs. `m+σ`.
pub fn fig_vi11(model: &QosModel) -> FigureResult {
    [
        (Tightness::AtMean, "bound at m"),
        (Tightness::AtMeanPlusSigma, "bound at m+σ"),
    ]
    .into_iter()
    .map(|(tightness, label)| {
        let mut s = FigureSeries::new(label);
        for n in [4, 8, 12] {
            let spec = WorkloadSpec::evaluation_default()
                .activities(4)
                .tightness(tightness)
                .services_per_activity(n);
            s.points.push((
                n as f64,
                optimality(model, QassaConfig::default(), &spec, 6)?,
            ));
        }
        Ok(s)
    })
    .collect()
}

/// Fig. VI.12 — distributed QASSA: simulated local- and global-selection
/// time vs. number of provider nodes.
pub fn fig_vi12(model: &QosModel) -> FigureResult {
    let w = WorkloadSpec::evaluation_default().build(model, 42);
    let mut local = FigureSeries::new("local phase [ms]");
    let mut global = FigureSeries::new("global phase [ms]");
    let driver = DistributedQassa::new(model);
    for providers in [2usize, 5, 10, 20, 50] {
        let setup = DistributedSetup {
            providers,
            link: LinkConfig::new(5.0, 1.0),
            ..DistributedSetup::default()
        };
        let report = driver.run(&w, &setup, 42)?;
        local
            .points
            .push((providers as f64, report.local_phase.as_millis_f64()));
        global
            .points
            .push((providers as f64, report.global_phase.as_millis_f64()));
    }
    Ok(vec![local, global])
}

/// Generates an abstract-BPEL document with `n` activities and a mixed
/// structure (sequence / flow / if / while), as Fig. VI.13's inputs.
pub fn synthetic_bpel(n: usize) -> String {
    let mut body = String::new();
    let mut i = 0;
    let invoke = |i: usize| {
        format!(
            "<invoke name=\"a{i}\" function=\"wl#F{}\" inputs=\"wl#In\" outputs=\"wl#Out\"/>",
            i % 7
        )
    };
    while i < n {
        match i % 8 {
            0..=2 => {
                body.push_str(&invoke(i));
                i += 1;
            }
            3 => {
                let take = (n - i).clamp(1, 3);
                body.push_str("<flow>");
                for _ in 0..take {
                    body.push_str(&invoke(i));
                    i += 1;
                }
                body.push_str("</flow>");
            }
            4 => {
                let take = (n - i).clamp(1, 2);
                body.push_str("<if>");
                for b in 0..take {
                    body.push_str(&format!("<branch probability=\"{}\">", 1.0 / take as f64));
                    body.push_str(&invoke(i));
                    i += 1;
                    body.push_str("</branch>");
                    let _ = b;
                }
                body.push_str("</if>");
            }
            _ => {
                body.push_str("<while expected=\"2\" max=\"4\">");
                body.push_str(&invoke(i));
                i += 1;
                body.push_str("</while>");
            }
        }
    }
    format!("<process name=\"synthetic\"><sequence>{body}</sequence></process>")
}

/// Fig. VI.13 — time to transform abstract-BPEL specifications into
/// behavioural graphs (parse + graph construction).
pub fn fig_vi13() -> FigureResult {
    let mut s = FigureSeries::new("transform [ms]");
    for n in [5, 10, 20, 40, 60, 80, 100] {
        let doc = synthetic_bpel(n);
        let ms = time_ms(20, || Ok(BehaviouralGraph::from_task(&bpel::parse(&doc)?)))?;
        s.points.push((n as f64, ms));
    }
    Ok(vec![s])
}

/// Builds the pair (current behaviour, reordered alternative) used by the
/// behavioural-adaptation benchmark: `n` sequential activities, the
/// alternative swapping the tail order.
pub fn adaptation_pair(n: usize) -> Result<(UserTask, UserTask), TaskError> {
    let act = |i: usize, prefix: &str| {
        TaskNode::activity(Activity::new(
            format!("{prefix}{i}"),
            format!("ad#F{i}").as_str(),
        ))
    };
    let current = UserTask::new("current", TaskNode::sequence((0..n).map(|i| act(i, "c"))))?;
    // Alternative: same functions; the unexecuted tail is wrapped in a
    // parallel block (a different behaviour realising the same class).
    let half = n / 2;
    let mut nodes: Vec<TaskNode> = (0..half).map(|i| act(i, "a")).collect();
    if half < n {
        nodes.push(TaskNode::parallel((half..n).map(|i| act(i, "a"))));
    }
    let alternative = UserTask::new("alternative", TaskNode::sequence(nodes))?;
    Ok((current, alternative))
}

/// Ch. V evaluation — behavioural-adaptation time (the order-embedding
/// resume mapping) vs. task size; the executed prefix is the first half.
pub fn fig_v_adapt() -> FigureResult {
    let mut onto = OntologyBuilder::new("ad");
    for i in 0..64 {
        onto.concept(&format!("F{i}"));
    }
    let onto = onto.build()?;
    let adapter = BehaviouralAdapter::new(&onto);

    let mut s = FigureSeries::new("resume mapping [ms]");
    for n in [4usize, 8, 12, 16, 20, 24] {
        let (current, alternative) = adaptation_pair(n)?;
        let executed: Vec<String> = (0..n / 2).map(|i| format!("c{i}")).collect();
        let executed_refs: Vec<&str> = executed.iter().map(String::as_str).collect();
        let ms = time_ms(10, || {
            adapter
                .resume_mapping(&current, &alternative, &executed_refs)
                .ok_or_else(|| format!("no resume mapping for {n} activities").into())
        })?;
        s.points.push((n as f64, ms));
    }
    Ok(vec![s])
}

/// The band counts the K-means ablation sweeps, each as a QASSA
/// configuration.
fn band_counts() -> impl Iterator<Item = (usize, QassaConfig)> {
    [2usize, 3, 4, 6, 8].into_iter().map(|k| {
        let config = QassaConfig {
            local: LocalRank { bands: k },
            ..QassaConfig::default()
        };
        (k, config)
    })
}

/// Ablation — K-means band count `k`: selection time on the default
/// workload.
pub fn ablate_kmeans_k_time(model: &QosModel) -> FigureResult {
    let mut s = FigureSeries::new("time [ms]");
    let w = WorkloadSpec::evaluation_default().build(model, 42);
    let problem = w.problem();
    for (k, config) in band_counts() {
        let qassa = Qassa::with_config(model, config);
        s.points
            .push((k as f64, time_ms(5, || Ok(qassa.select(&problem)?))?));
    }
    Ok(vec![s])
}

/// Ablation — K-means band count `k`: optimality at exhaustive-tractable
/// size (4 activities × 10 services, 6 seeds).
pub fn ablate_kmeans_k_optimality(model: &QosModel) -> FigureResult {
    let spec = WorkloadSpec::evaluation_default()
        .activities(4)
        .services_per_activity(10);
    let mut s = FigureSeries::new("optimality");
    for (k, config) in band_counts() {
        s.points
            .push((k as f64, optimality(model, config, &spec, 6)?));
    }
    Ok(vec![s])
}

/// Ablation — repair budget of the global phase: 0 (pure level descent)
/// vs. the default utility-aware repair.
pub fn ablate_global_strategy(model: &QosModel) -> FigureResult {
    [(0usize, "no repairs"), (64, "repairs (default)")]
        .into_iter()
        .map(|(budget, label)| {
            let config = QassaConfig {
                max_repairs_per_level: budget,
                ..QassaConfig::default()
            };
            let mut s = FigureSeries::new(format!("{label}: feasible rate"));
            for n in [10usize, 50, 100] {
                let mut feasible = 0;
                const SEEDS: u64 = 10;
                for seed in 0..SEEDS {
                    let w = WorkloadSpec::evaluation_default()
                        .services_per_activity(n)
                        .tightness(Tightness::AtMean)
                        .build(model, seed);
                    let out = Qassa::with_config(model, config).select(&w.problem())?;
                    if out.feasible {
                        feasible += 1;
                    }
                }
                s.points.push((n as f64, feasible as f64 / SEEDS as f64));
            }
            Ok(s)
        })
        .collect()
}

/// Extra distributed figure: fault tolerance of the protocol under
/// message loss — mean candidate coverage and mean total latency vs.
/// link loss probability, with retransmissions enabled (default capped
/// exponential backoff) against retransmissions disabled, averaged over
/// 10 seeds per point.
pub fn fig_loss(model: &QosModel) -> FigureResult {
    let w = WorkloadSpec::evaluation_default()
        .activities(3)
        .services_per_activity(30)
        .build(model, 42);
    let driver = DistributedQassa::new(model);
    const SEEDS: u64 = 10;
    let variants = [("retries", true), ("no retries", false)];
    let mut out = Vec::new();
    for (label, retries) in variants {
        let mut coverage = FigureSeries::new(format!("coverage ({label})"));
        let mut total = FigureSeries::new(format!("total [ms] ({label})"));
        for loss in [0.0f64, 0.1, 0.2, 0.3, 0.4, 0.6] {
            let setup = DistributedSetup {
                providers: 8,
                link: LinkConfig::new(5.0, 1.0).with_loss(loss),
                retries,
                ..DistributedSetup::default()
            };
            let (mut cov_sum, mut ms_sum) = (0.0, 0.0);
            for seed in 0..SEEDS {
                match driver.run(&w, &setup, seed) {
                    Ok(report) => {
                        cov_sum += report.fault.coverage_ratio();
                        ms_sum += report.total().as_millis_f64();
                    }
                    // An activity lost every candidate: zero coverage,
                    // and the run still paid the full deadline.
                    Err(_) => ms_sum += REPLY_TIMEOUT_MS as f64,
                }
            }
            coverage.points.push((loss, cov_sum / SEEDS as f64));
            total.points.push((loss, ms_sum / SEEDS as f64));
        }
        out.push(coverage);
        out.push(total);
    }
    Ok(out)
}

/// Extra axis: QASSA execution time vs. number of abstract activities
/// (100 services each, 4 constraints).
pub fn fig_activities(model: &QosModel) -> FigureResult {
    let mut s = FigureSeries::new("QASSA [ms]");
    for n in [2usize, 5, 10, 15, 20] {
        let w = WorkloadSpec::evaluation_default()
            .activities(n)
            .build(model, 42);
        s.points.push((n as f64, qassa_time_ms(model, &w, 5)?));
    }
    Ok(vec![s])
}

/// Scalability beyond the paper's axis: QASSA at very large candidate
/// pools, with the serial and the multi-core (parallel local phase)
/// variants — the timeliness claim stretched an order of magnitude.
pub fn scalability(model: &QosModel) -> FigureResult {
    let mut serial = FigureSeries::new("serial [ms]");
    let mut parallel = FigureSeries::new("parallel local [ms]");
    for n in [300usize, 600, 1000, 2000] {
        let w = WorkloadSpec::evaluation_default()
            .activities(10)
            .services_per_activity(n)
            .build(model, 42);
        let problem = w.problem();
        let qassa = Qassa::new(model);
        serial
            .points
            .push((n as f64, time_ms(3, || Ok(qassa.select(&problem)?))?));
        parallel.points.push((
            n as f64,
            time_ms(3, || Ok(qassa.select_parallel(&problem)?))?,
        ));
    }
    Ok(vec![serial, parallel])
}

/// A selector the comparison runs on one workload.
type Selector<'m> = (
    &'static str,
    Box<dyn Fn(&Workload) -> Result<qasom_selection::SelectionOutcome, FigureError> + 'm>,
);

/// QASSA and the four baselines, in table order.
fn selectors(model: &QosModel) -> [Selector<'_>; 5] {
    let baselines = Baselines::new(model);
    [
        (
            "QASSA",
            Box::new(move |w: &Workload| Ok(Qassa::new(model).select(&w.problem())?)),
        ),
        (
            "greedy",
            Box::new(move |w: &Workload| Ok(baselines.greedy(&w.problem())?)),
        ),
        (
            "decomposed",
            Box::new(move |w: &Workload| Ok(baselines.decomposed(&w.problem())?)),
        ),
        (
            "genetic",
            Box::new(move |w: &Workload| Ok(baselines.genetic(&w.problem())?)),
        ),
        (
            "random",
            Box::new(move |w: &Workload| Ok(baselines.random(&w.problem(), 1)?)),
        ),
    ]
}

/// The comparison's two regimes, keyed by services per activity (5
/// activities × 4 constraints each): scarce, with bounds a quarter σ
/// tighter than `m`, and abundant, with bounds at `m`.
fn regimes() -> [(f64, WorkloadSpec); 2] {
    [
        (
            8.0,
            WorkloadSpec::evaluation_default()
                .services_per_activity(8)
                .tightness(Tightness::LooserBySigmas(-0.25)),
        ),
        (
            100.0,
            WorkloadSpec::evaluation_default().tightness(Tightness::AtMean),
        ),
    ]
}

/// Head-to-head selector comparison, timed: each selector's median time
/// on each regime's seed-0 workload.
pub fn compare_selectors_time(model: &QosModel) -> FigureResult {
    selectors(model)
        .iter()
        .map(|(name, run)| {
            let mut s = FigureSeries::new(format!("{name} [ms]"));
            for (x, spec) in regimes() {
                let w = spec.build(model, 0);
                s.points.push((x, time_ms(3, || run(&w))?));
            }
            Ok(s)
        })
        .collect()
}

/// Head-to-head selector comparison: each selector's mean utility and
/// feasible rate over 10 seeds of each regime.
pub fn compare_selectors(model: &QosModel) -> FigureResult {
    const SEEDS: u64 = 10;
    let mut out = Vec::new();
    for (name, run) in &selectors(model) {
        let mut utility = FigureSeries::new(format!("{name} utility"));
        let mut feasible_rate = FigureSeries::new(format!("{name} feasible"));
        for (x, spec) in regimes() {
            let mut utilities = 0.0;
            let mut feasible = 0usize;
            for seed in 0..SEEDS {
                let outcome = run(&spec.build(model, seed))?;
                utilities += outcome.utility;
                feasible += usize::from(outcome.feasible);
            }
            utility.points.push((x, utilities / SEEDS as f64));
            feasible_rate
                .points
                .push((x, feasible as f64 / SEEDS as f64));
        }
        out.push(utility);
        out.push(feasible_rate);
    }
    Ok(out)
}

/// Ablation — proactive (EWMA+trend) vs reactive violation detection:
/// for a service whose response time ramps up linearly, how many
/// invocations earlier does the proactive monitor flag the (future)
/// violation? Larger lead = more time to substitute before the user
/// feels it.
pub fn ablate_monitoring(model: &QosModel) -> FigureResult {
    use qasom_adaptation::QosMonitor;
    use qasom_registry::{ServiceDescription, ServiceRegistry};

    let rt = model
        .property("ResponseTime")
        .ok_or("the QoS model has no ResponseTime")?;
    let bound = 200.0;
    let mut lead_series = FigureSeries::new("proactive lead [invocations]");
    for slope in [2.0f64, 5.0, 10.0, 20.0] {
        let mut reg = ServiceRegistry::new();
        let id = reg.register(ServiceDescription::new("s", "d#F"));
        let mut monitor = QosMonitor::new();
        let mut reactive_at: Option<usize> = None;
        let mut proactive_at: Option<usize> = None;
        for step in 0..400usize {
            let value = 100.0 + slope * step as f64;
            let mut q = qasom_qos::QosVector::new();
            q.set(rt, value);
            monitor.observe(model, id, &q);
            let observed = "the monitor observed ResponseTime";
            let estimate = monitor
                .qos_estimate(id)
                .and_then(|q| q.get(rt))
                .ok_or(observed)?;
            let predicted = monitor
                .predict(id)
                .and_then(|q| q.get(rt))
                .ok_or(observed)?;
            if proactive_at.is_none() && predicted > bound {
                proactive_at = Some(step);
            }
            if reactive_at.is_none() && estimate > bound {
                reactive_at = Some(step);
                break;
            }
        }
        let lead = match (reactive_at, proactive_at) {
            (Some(r), Some(p)) => (r as f64) - (p as f64),
            _ => f64::NAN,
        };
        lead_series.points.push((slope, lead));
    }
    Ok(vec![lead_series])
}

/// Ablation — semantic vs syntactic discovery recall: providers advertise
/// *specialised* capabilities (subconcepts of what the user asks for);
/// semantic matching finds them all, exact-syntax matching finds none.
pub fn ablate_semantics(model: &QosModel) -> FigureResult {
    use qasom_ontology::OntologyError;
    use qasom_registry::{Discovery, DiscoveryQuery, ServiceDescription, ServiceRegistry};
    use qasom_task::Activity;

    let build = |specialised: usize, with_taxonomy: bool| -> Result<_, OntologyError> {
        let mut b = OntologyBuilder::new("shop");
        let pay = b.concept("Pay");
        if with_taxonomy {
            for i in 0..specialised {
                b.subconcept(&format!("Pay{i}"), pay);
            }
        }
        let onto = b.build()?;
        let mut reg = ServiceRegistry::new();
        for i in 0..specialised {
            reg.register(ServiceDescription::new(
                format!("till-{i}"),
                &format!("shop#Pay{i}"),
            ));
        }
        Ok((onto, reg))
    };

    let mut semantic = FigureSeries::new("semantic recall");
    let mut syntactic = FigureSeries::new("syntactic recall");
    for n in [1usize, 5, 10, 20] {
        let activity = Activity::new("pay", "shop#Pay");
        let (onto, reg) = build(n, true)?;
        let found = Discovery::new(&onto, model)
            .discover(&reg, &DiscoveryQuery::new(&activity))
            .len();
        semantic.points.push((n as f64, found as f64 / n as f64));

        let (onto, reg) = build(n, false)?;
        let found = Discovery::new(&onto, model)
            .discover(&reg, &DiscoveryQuery::new(&activity))
            .len();
        syntactic.points.push((n as f64, found as f64 / n as f64));
    }
    Ok(vec![semantic, syntactic])
}

/// Discovery latency at registry scale (DESIGN.md §5c): the capability
/// index against the linear full-scan oracle over 1k/5k/20k advertisements of a
/// 32-category × 4-leaf taxonomy. A category-level request plugs in 4
/// leaves × n/128 services; both paths must return identical candidate
/// vectors before either is timed — only the work differs.
pub fn fig_discovery(model: &QosModel) -> FigureResult {
    use qasom_registry::{Discovery, DiscoveryQuery, ServiceDescription, ServiceRegistry};
    use std::sync::Arc;

    let mut b = OntologyBuilder::new("d");
    let root = b.concept("Capability");
    for i in 0..32 {
        let mid = b.subconcept(&format!("Cat{i}"), root);
        for j in 0..4 {
            b.subconcept(&format!("Cat{i}Leaf{j}"), mid);
        }
    }
    let onto = Arc::new(b.build()?);
    let activity = Activity::new("a", "d#Cat7");
    let indexed_query = DiscoveryQuery::new(&activity);
    let linear_query = DiscoveryQuery::new(&activity).linear_scan(true);

    let mut indexed_ms = FigureSeries::new("indexed [ms]");
    let mut linear_ms = FigureSeries::new("linear [ms]");
    let mut speedup = FigureSeries::new("linear/indexed");
    for n in [1_000usize, 5_000, 20_000] {
        let mut registry = ServiceRegistry::with_ontology(Arc::clone(&onto));
        for s in 0..n {
            registry.register(ServiceDescription::new(
                format!("svc{s}"),
                &format!("d#Cat{}Leaf{}", s % 32, s % 4),
            ));
        }
        let discovery = Discovery::new(&onto, model);
        let expected = discovery.discover(&registry, &indexed_query);
        if expected.is_empty() || expected != discovery.discover(&registry, &linear_query) {
            return Err("indexed and linear discovery disagree".into());
        }

        let x = n as f64;
        let i = time_ms(20, || {
            Ok(std::hint::black_box(
                discovery.discover(&registry, &indexed_query),
            ))
        })?;
        let l = time_ms(20, || {
            Ok(std::hint::black_box(
                discovery.discover(&registry, &linear_query),
            ))
        })?;
        indexed_ms.points.push((x, i));
        linear_ms.points.push((x, l));
        speedup.points.push((x, l / i.max(f64::MIN_POSITIVE)));
    }
    Ok(vec![indexed_ms, linear_ms, speedup])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_bpel_parses_at_all_sizes() {
        for n in [1, 5, 17, 64] {
            let doc = synthetic_bpel(n);
            let task = bpel::parse(&doc).expect("valid BPEL");
            assert_eq!(task.activity_count(), n);
        }
    }

    #[test]
    fn adaptation_pair_always_admits_a_mapping() {
        let mut onto = OntologyBuilder::new("ad");
        for i in 0..32 {
            onto.concept(&format!("F{i}"));
        }
        let onto = onto.build().unwrap();
        let adapter = BehaviouralAdapter::new(&onto);
        for n in [4usize, 9, 14] {
            let (cur, alt) = adaptation_pair(n).unwrap();
            let executed: Vec<String> = (0..n / 2).map(|i| format!("c{i}")).collect();
            let refs: Vec<&str> = executed.iter().map(String::as_str).collect();
            assert!(adapter.resume_mapping(&cur, &alt, &refs).is_some());
        }
    }

    #[test]
    fn time_ms_returns_positive_duration() {
        let ms = time_ms(3, || Ok(std::hint::black_box((0..1000).sum::<u64>()))).unwrap();
        assert!(ms >= 0.0);
    }

    #[test]
    fn repro_keys_select_rows_and_unknown_keys_are_refused() {
        let keys = |list: &[&str]| list.iter().map(|&k| k.to_owned()).collect::<Vec<_>>();
        assert_eq!(select_figures(&[]).unwrap().len(), FIGURES.len());
        assert_eq!(
            select_figures(&keys(&["all"])).unwrap().len(),
            FIGURES.len()
        );
        let titles: Vec<&str> = select_figures(&keys(&["vi12", "vi6"]))
            .unwrap()
            .iter()
            .map(|f| f.title)
            .collect();
        assert_eq!(titles.len(), 3);
        assert!(titles[0].starts_with("Fig. VI.6a") && titles[2].starts_with("Fig. VI.12"));

        let err = select_figures(&keys(&["vi6", "comapre"])).unwrap_err();
        assert!(err.contains("\"comapre\""), "{err}");
        assert!(err.contains("valid keys: all vi5 vi6"), "{err}");
        assert!(err.ends_with("ablate compare"), "{err}");
    }

    #[test]
    fn fig_vi13_series_is_monotone_in_size() {
        // Smoke: the transformation runs at every size (no timing
        // assertion — CI machines vary).
        let series = fig_vi13().unwrap();
        assert_eq!(series[0].points.len(), 7);
    }
}
