//! `qasom-cli` — run the middleware against XML-provisioned environments.
//!
//! ```text
//! qasom-cli --services services.xml --classes classes.xml --task shop-v1 \
//!           [--taxonomy taxonomy.xml] [--constraint Delay=1.5s]... \
//!           [--weight Delay=2]... [--seed 42] [--verbose] [--report FILE]
//! qasom-cli <scenario> [--seed 42] ... [--out FILE]
//! ```
//!
//! * `--services`  QSD document (see `qasom_registry::qsd`).
//! * `--classes`   task-class document (`<taskclasses>`).
//! * `--task`      name of the behaviour to request.
//! * `--taxonomy`  optional concept taxonomy:
//!   `<ontology ns="shop"><concept name="Pay"><concept name="PayByCard"/></concept></ontology>`
//!   (functions not listed match syntactically).
//! * `--constraint NAME=VALUE[UNIT]` e.g. `Delay=1.5s`, `TotalPrice=30EUR`.
//! * `--weight NAME=W` preference weights.
//! * `--report FILE` write the seed-stamped
//!   [`RunReport`](qasom_obs::report::RunReport) JSON of this run to
//!   `FILE` (`-` for stdout).
//!
//! The scenario subcommands (`report`, `daemon-stress`,
//! `persist-stress`, `figures`) are the rows of
//! [`qasom_bench::scenarios::SCENARIOS`]: each is documented, flagged and
//! implemented there, prints a JSON document that is byte-identical for
//! identical arguments, and `qasom-cli --help` lists them all.
//! `qasom-cli report --schema --out tests/fixtures/run_report_schema.txt`
//! regenerates the `RunReport` schema fixture.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use qasom::{Environment, EventLog, UserRequest};
use qasom_bench::scenarios::{self, FlagSpec, Flags, Kind, Scenario, SEED};
use qasom_obs::{MemoryRecorder, Recorder};
use qasom_ontology::{ConceptId, Iri, Ontology, OntologyBuilder};
use qasom_qos::{QosModel, Unit};
use qasom_task::xml::{self, XmlElement};

/// Flags of the default (XML-provisioned) run.
const RUN_FLAGS: &[FlagSpec] = &[
    ("--services", Kind::Required("FILE")),
    ("--classes", Kind::Required("FILE")),
    ("--task", Kind::Required("NAME")),
    ("--taxonomy", Kind::Value("FILE", "")),
    ("--constraint", Kind::Repeated("NAME=VALUE[UNIT]")),
    ("--weight", Kind::Repeated("NAME=W")),
    SEED,
    ("--verbose", Kind::Switch),
    ("--report", Kind::Value("FILE", "")),
];

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scenario = args.first().and_then(|name| scenarios::find(name));
    if scenario.is_some() {
        args.remove(0);
    }
    let outcome = if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage(scenario);
        Ok(())
    } else {
        match scenario {
            Some(scenario) => Flags::parse(scenario.name, scenario.flags, args)
                .and_then(|flags| write_text(&scenario.render(&flags)?, flags.get("--out"))),
            None => Flags::parse("", RUN_FLAGS, args).and_then(|flags| run(&flags)),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the usage of one scenario — or, without one, of the default
/// run followed by every scenario — generated from the flag tables.
fn print_usage(scenario: Option<&Scenario>) {
    match scenario {
        Some(s) => println!("usage: {}", scenarios::usage(s.name, s.flags)),
        None => {
            println!("usage: {}", scenarios::usage("", RUN_FLAGS));
            for s in scenarios::SCENARIOS {
                println!("       {}", scenarios::usage(s.name, s.flags));
            }
        }
    }
}

/// Writes `text` (plus a trailing newline) to `path` (`None` or `"-"` →
/// stdout).
fn write_text(text: &str, path: Option<&str>) -> Result<(), String> {
    match path {
        None | Some("-") => {
            println!("{text}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
    }
}

/// Parses `NAME=VALUE[UNIT]`, e.g. `Delay=1.5s` or `Availability=0.9`.
fn parse_constraint(raw: &str) -> Result<(String, f64, Unit), String> {
    let (name, rest) = raw
        .split_once('=')
        .ok_or_else(|| format!("bad constraint {raw:?} (expected NAME=VALUE[UNIT])"))?;
    let split = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .map_or(rest.len(), |(i, _)| i);
    let (value, unit) = rest.split_at(split);
    let value: f64 = value
        .parse()
        .map_err(|_| format!("bad constraint value in {raw:?}"))?;
    let unit: Unit = unit
        .parse()
        .map_err(|_| format!("unknown unit {unit:?} in {raw:?}"))?;
    Ok((name.to_owned(), value, unit))
}

/// Parses the taxonomy dialect into an [`Ontology`].
fn parse_taxonomy(input: &str) -> Result<Ontology, String> {
    let root = xml::parse(input).map_err(|e| e.to_string())?;
    if root.name != "ontology" {
        return Err(format!("expected <ontology>, found <{}>", root.name));
    }
    let ns = root.attr("ns").unwrap_or("domain");
    let mut builder = OntologyBuilder::new(ns);
    fn walk(
        builder: &mut OntologyBuilder,
        ns: &str,
        el: &XmlElement,
        parent: Option<ConceptId>,
    ) -> Result<(), String> {
        for child in &el.children {
            if child.name != "concept" {
                return Err(format!("expected <concept>, found <{}>", child.name));
            }
            let name = child
                .attr("name")
                .ok_or("concept requires a name attribute")?;
            let iri: Iri = format!("{ns}#{name}")
                .parse()
                .map_err(|e| format!("bad concept name {name:?} in namespace {ns:?}: {e}"))?;
            let id = match parent {
                Some(p) => builder.subconcept_iri(iri, p),
                None => builder.concept_iri(iri),
            };
            walk(builder, ns, child, Some(id))?;
        }
        Ok(())
    }
    walk(&mut builder, ns, &root, None)?;
    builder.build().map_err(|e| e.to_string())
}

fn run(flags: &Flags) -> Result<(), String> {
    let read = |flag: &str| {
        let path = flags.get(flag).unwrap_or_default();
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let services_doc = read("--services")?;
    let classes_doc = read("--classes")?;
    let task_name = flags.get("--task").unwrap_or_default();
    let constraints = flags
        .all("--constraint")
        .map(parse_constraint)
        .collect::<Result<Vec<_>, _>>()?;
    let weights = flags
        .all("--weight")
        .map(|raw| {
            let (name, w) = raw
                .split_once('=')
                .ok_or_else(|| format!("bad weight {raw:?} (expected NAME=W)"))?;
            let w: f64 = w.parse().map_err(|_| format!("bad weight value {w:?}"))?;
            Ok((name.to_owned(), w))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let ontology = match flags.get("--taxonomy") {
        Some(path) => {
            let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_taxonomy(&doc)?
        }
        None => OntologyBuilder::new("domain")
            .build()
            .map_err(|e| e.to_string())?,
    };

    let mut env = Environment::new(QosModel::standard(), ontology, flags.num("--seed")?);
    let recorder = Arc::new(MemoryRecorder::new());
    env.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    let log = EventLog::new();
    env.subscribe(Arc::new(log.clone()));
    let ids = env
        .load_services(&services_doc)
        .map_err(|e| e.to_string())?;
    let classes = env
        .load_task_classes(&classes_doc)
        .map_err(|e| e.to_string())?;
    println!(
        "loaded {} service(s), {} task class(es)",
        ids.len(),
        classes
    );

    let task = env
        .task_repository()
        .task(task_name)
        .ok_or_else(|| format!("task {task_name:?} not found in the repository"))?
        .clone();
    let mut request = UserRequest::new(task);
    for (name, value, unit) in &constraints {
        request = request
            .constraint(name.clone(), *value, *unit)
            .map_err(|e| e.to_string())?;
    }
    for (name, w) in &weights {
        request = request.weight(name.clone(), *w);
    }

    let composition = env.compose(&request).map_err(|e| e.to_string())?;
    println!(
        "composed {task_name:?}: feasible={}, promised QoS {}",
        composition.outcome().feasible,
        env.model().format_vector(composition.promised_qos())
    );
    let names: HashMap<_, _> = env
        .registry()
        .iter()
        .map(|(id, d)| (id, d.name().to_owned()))
        .collect();
    for (i, activity) in composition.task().activities().enumerate() {
        let chosen = &composition.outcome().assignment[i];
        println!(
            "  {:<20} -> {}",
            activity.activity().name(),
            names.get(&chosen.id()).cloned().unwrap_or_default()
        );
    }

    let compose_section = Environment::compose_section(&composition);

    let report = env.execute(composition).map_err(|e| e.to_string())?;
    println!(
        "executed via {:?}: {} invocation(s), {} substitution(s), {} behavioural adaptation(s)",
        report.final_task,
        report.invocations.len(),
        report.substitutions,
        report.behavioural_adaptations
    );
    println!(
        "delivered QoS: {}",
        env.model().format_vector(&report.delivered)
    );
    if flags.is_set("--verbose") {
        println!("\nevent trace:");
        for event in log.events() {
            println!("  {event:?}");
        }
    }
    if let Some(path) = flags.get("--report") {
        let mut run_report = env.run_report(task_name);
        run_report.compose = Some(compose_section);
        run_report.execution = Some(env.execution_section(&report));
        write_text(&run_report.to_pretty_string(), Some(path))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_taxonomy;

    /// A name that cannot form an `ns#local` IRI is a one-line error,
    /// not a panic inside the ontology builder.
    #[test]
    fn malformed_concept_names_are_errors_not_panics() {
        for doc in [
            r#"<ontology ns="d"><concept name="a#b"/></ontology>"#,
            r#"<ontology ns="d"><concept name=""/></ontology>"#,
            r#"<ontology ns="d"><concept name="A"><concept name="x#y"/></concept></ontology>"#,
            r#"<ontology ns="a#b"><concept name="A"/></ontology>"#,
            r#"<ontology ns=""><concept name="A"/></ontology>"#,
        ] {
            let err = parse_taxonomy(doc).map(|_| ()).unwrap_err();
            assert!(err.starts_with("bad concept name"), "{doc}: {err}");
        }
        assert!(parse_taxonomy(r#"<ontology ns="d"><concept name="A"/></ontology>"#).is_ok());
    }
}
