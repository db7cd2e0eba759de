//! Golden outputs of the scenario registry: every deterministic
//! `qasom-cli` subcommand, run in-process with the arguments CI uses,
//! must reproduce its checked-in document under `tests/fixtures/cli/`
//! byte for byte. The files were generated by the `qasom-cli` binary
//! before the subcommands were folded into the registry, so they also
//! pin every flag default.
//!
//! The `figures` document pins every deterministic series of the
//! evaluation; the claims tests below assert what the paper reads off
//! those series, on the very document the golden test compares.
//!
//! After an intentional change, regenerate a file with
//! `qasom-cli <scenario> <args> --out tests/fixtures/cli/<scenario>.json`.

use std::sync::OnceLock;

use qasom_bench::scenarios::{self, Flags};
use qasom_obs::JsonValue;

macro_rules! golden {
    ($name:literal, $args:literal) => {
        (
            $name,
            $args,
            include_str!(concat!("fixtures/cli/", $name, ".json")),
        )
    };
}

/// `(scenario, arguments, expected output)`, in registry order.
const GOLDEN: &[(&str, &str, &str)] = &[
    golden!("report", "--seed 42"),
    golden!("daemon-stress", "--seed 42"),
    golden!("persist-stress", "--seed 42"),
    golden!("figures", ""),
];

/// The `figures` document, computed once per test binary: the golden
/// test renders it and every claims test reads it.
fn figures() -> &'static JsonValue {
    static DOCUMENT: OnceLock<JsonValue> = OnceLock::new();
    DOCUMENT.get_or_init(|| {
        let scenario = scenarios::find("figures").expect("figures is registered");
        let flags = Flags::parse(scenario.name, scenario.flags, Vec::new()).expect("no flags");
        (scenario.run)(&flags).unwrap_or_else(|e| panic!("figures: {e}"))
    })
}

#[test]
fn every_scenario_reproduces_its_golden_output() {
    for &(name, args, golden) in GOLDEN {
        let args: Vec<&str> = args.split_whitespace().collect();
        let rendered = if name == "figures" {
            // `render` without `--schema` is `to_pretty`.
            figures().to_pretty()
        } else {
            scenarios::run(name, &args).unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        assert_eq!(
            format!("{rendered}\n"),
            golden,
            "{name} {args:?} drifted from tests/fixtures/cli/{name}.json"
        );
    }
}

#[test]
fn the_golden_set_covers_the_whole_registry() {
    let covered: Vec<&str> = GOLDEN.iter().map(|&(name, ..)| name).collect();
    let registered: Vec<&str> = scenarios::SCENARIOS.iter().map(|s| s.name).collect();
    assert_eq!(covered, registered);
}

fn array(value: &JsonValue) -> &[JsonValue] {
    match value {
        JsonValue::Array(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

fn number(value: &JsonValue) -> f64 {
    match value {
        JsonValue::F64(v) => *v,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    match value.get(key) {
        Some(JsonValue::Str(text)) => text,
        other => panic!("expected a string under {key:?}, found {other:?}"),
    }
}

/// The points of series `label` of the figure whose title starts with
/// `title`.
fn series(title: &str, label: &str) -> Vec<(f64, f64)> {
    let figure = array(figures().get("figures").expect("figures"))
        .iter()
        .find(|f| text(f, "title").starts_with(title))
        .unwrap_or_else(|| panic!("no figure titled {title:?}"));
    let series = array(figure.get("series").expect("series"))
        .iter()
        .find(|s| text(s, "label") == label)
        .unwrap_or_else(|| panic!("{title:?} has no series {label:?}"));
    let points: Vec<(f64, f64)> = array(series.get("points").expect("points"))
        .iter()
        .map(|point| match array(point) {
            [x, y] => (number(x), number(y)),
            other => panic!("a point is [x, y], found {other:?}"),
        })
        .collect();
    assert!(!points.is_empty(), "{title:?} {label:?} has no points");
    points
}

/// Asserts `better(a, b)` point by point of two series over one x axis.
fn at_every_x(a: &[(f64, f64)], b: &[(f64, f64)], what: &str, better: fn(f64, f64) -> bool) {
    assert_eq!(a.len(), b.len(), "{what}: the series differ in length");
    for (&(x, ya), &(xb, yb)) in a.iter().zip(b) {
        assert_eq!(x, xb, "{what}: the series differ in x");
        assert!(better(ya, yb), "{what} at x = {x}: {ya} against {yb}");
    }
}

#[test]
fn qassa_stays_within_ten_percent_of_the_optimum() {
    for (title, label) in [
        ("Fig. VI.6a", "optimality"),
        ("Fig. VI.6b", "optimality"),
        ("Fig. VI.8", "pessimistic"),
        ("Fig. VI.8", "optimistic"),
        ("Fig. VI.8", "mean-value"),
        ("Fig. VI.11", "bound at m"),
        ("Fig. VI.11", "bound at m+σ"),
    ] {
        for (x, optimality) in series(title, label) {
            assert!(
                optimality >= 0.9,
                "{title} {label} at x = {x}: optimality {optimality}"
            );
        }
    }
}

#[test]
fn the_distributed_local_phase_shrinks_with_providers_while_the_global_phase_stays_flat() {
    let local = series("Fig. VI.12", "local phase [ms]");
    assert!(
        local.windows(2).all(|w| w[1].1 <= w[0].1),
        "local phase grows somewhere: {local:?}"
    );
    let global = series("Fig. VI.12", "global phase [ms]");
    assert!(
        global.iter().all(|&(_, ms)| ms == global[0].1),
        "global phase moves: {global:?}"
    );
}

#[test]
fn retries_never_lower_coverage_under_message_loss() {
    at_every_x(
        &series("Extra — message loss", "coverage (retries)"),
        &series("Extra — message loss", "coverage (no retries)"),
        "coverage with retries against without",
        |with, without| with >= without,
    );
}

#[test]
fn repairs_never_lower_the_feasible_rate() {
    let title = "Ablation — global phase repair budget";
    at_every_x(
        &series(title, "repairs (default): feasible rate"),
        &series(title, "no repairs: feasible rate"),
        "feasible rate with repairs against without",
        |repairs, none| repairs >= none,
    );
}

#[test]
fn semantic_discovery_recalls_at_least_what_syntactic_discovery_does() {
    let title = "Ablation — semantic vs syntactic";
    at_every_x(
        &series(title, "semantic recall"),
        &series(title, "syntactic recall"),
        "semantic recall against syntactic",
        |semantic, syntactic| semantic >= syntactic,
    );
}

#[test]
fn proactive_monitoring_flags_a_drifting_service_before_the_reactive_window() {
    for (slope, lead) in series(
        "Ablation — proactive vs reactive",
        "proactive lead [invocations]",
    ) {
        assert!(lead >= 1.0, "drift slope {slope}: lead {lead}");
    }
}

#[test]
fn qassa_is_feasible_at_least_as_often_as_greedy_and_random_in_both_regimes() {
    let title = "Selector comparison — utility";
    let qassa = series(title, "QASSA feasible");
    for rival in ["greedy feasible", "random feasible"] {
        at_every_x(
            &qassa,
            &series(title, rival),
            &format!("QASSA feasible rate against {rival}"),
            |ours, theirs| ours >= theirs,
        );
    }
}
