//! The scenario registry: every deterministic `qasom-cli` subcommand as
//! one row of [`SCENARIOS`].
//!
//! A row is a name, the flags it accepts (with their defaults) and a
//! plain function from the parsed [`Flags`] to the JSON document the
//! subcommand prints. `qasom-cli` parses its command line with
//! [`Flags::parse`] against the row and generates its help text from it;
//! `tests/cli_golden.rs` runs the same rows in-process against the
//! checked-in outputs under `tests/fixtures/cli/`. A new scenario is one
//! function plus one row here — nothing in the CLI changes.
//!
//! Every document is a pure function of the flags: identical arguments
//! produce byte-identical output. The crate's `clippy.toml` therefore
//! bans the wall clock and unordered collections; the figure timer
//! `time_ms` is the one function allowed to read the clock, and the
//! `figures` row runs only the figures that never call it.
//!
//! The synthetic provider market the serving scenarios run on,
//! `one_concept_market`, and its `one_activity_request` are `pub` for
//! the integration tests under `tests/` that serve the same market.

use std::str::FromStr;
use std::sync::Arc;

use qasom::{demo, Environment, RegistryDelta, SharedEnvironment, UserRequest};
use qasom_daemon::{AdmissionConfig, BrokerConfig, LoopbackClient, LoopbackDaemon};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{key_paths, JsonValue, MemoryRecorder};
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::persist::{
    encode_state, Fs as _, MemoryBackend, PersistConfig, PersistentRegistry, RegistryJournal,
};
use qasom_registry::{ServiceDescription, ServiceId};
use qasom_task::{Activity, TaskNode, UserTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a flag is given on the command line. The `&str` payloads are the
/// value placeholders the usage line shows (`N`, `FILE`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `--flag`: present or absent, no value.
    Switch,
    /// `--flag VALUE`; when absent it reads as the given default, or as
    /// unset when the default is empty.
    Value(&'static str, &'static str),
    /// `--flag VALUE`; parsing fails without it.
    Required(&'static str),
    /// `--flag VALUE`, any number of times.
    Repeated(&'static str),
}

/// One command-line flag: its spelling (dashes included) and [`Kind`].
pub type FlagSpec = (&'static str, Kind);

/// `--seed N`, default 42: every seeded scenario takes it.
pub const SEED: FlagSpec = ("--seed", Kind::Value("N", "42"));
/// `--out FILE`: where the CLI writes the document (`-` or absent →
/// stdout). Scenario functions never read it.
pub const OUT: FlagSpec = ("--out", Kind::Value("FILE", ""));

/// `qasom-cli [command] …` usage text for one flag table, wrapped to a
/// terminal line with a hanging indent.
pub fn usage(command: &str, specs: &[FlagSpec]) -> String {
    let mut text = format!("qasom-cli {command}").trim_end().to_owned();
    let mut column = text.len();
    for (name, kind) in specs {
        let word = match kind {
            Kind::Switch => format!("[{name}]"),
            Kind::Value(value, _) => format!("[{name} {value}]"),
            Kind::Required(value) => format!("{name} {value}"),
            Kind::Repeated(value) => format!("[{name} {value}]..."),
        };
        if column + 1 + word.len() > 78 {
            text.push_str("\n         ");
            column = 9;
        }
        text.push(' ');
        text.push_str(&word);
        column += 1 + word.len();
    }
    text
}

/// A command line parsed against a flag table.
#[derive(Debug, Clone)]
pub struct Flags {
    specs: &'static [FlagSpec],
    given: Vec<(&'static str, String)>,
}

impl Flags {
    /// Parses `args` (everything after the command name) against
    /// `specs`.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag missing its value, or an absent
    /// [`Kind::Required`] flag; `command` only words the hint.
    pub fn parse(
        command: &str,
        specs: &'static [FlagSpec],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, String> {
        let help = format!("{command} --help");
        let help = help.trim_start();
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let &(name, kind) = specs
                .iter()
                .find(|(name, _)| *name == arg)
                .ok_or_else(|| format!("unknown flag {arg:?} (try {help})"))?;
            let value = match kind {
                Kind::Switch => String::new(),
                _ => args
                    .next()
                    .ok_or_else(|| format!("{name} requires a value"))?,
            };
            given.push((name, value));
        }
        let flags = Flags { specs, given };
        for (name, kind) in specs {
            if matches!(kind, Kind::Required(_)) && flags.get(name).is_none() {
                return Err(format!("{name} is required (try {help})"));
            }
        }
        Ok(flags)
    }

    /// Every value `name` was given, in command-line order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(given, _)| *given == name)
            .map(|(_, value)| value.as_str())
    }

    /// Whether `name` appeared on the command line.
    pub fn is_set(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The value of `name`: the last one given, else the table's
    /// default, else `None`.
    pub fn get(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().rev().find(|(given, _)| *given == name);
        given.map(|(_, value)| value.as_str()).or_else(|| {
            self.specs.iter().find_map(|(spec, kind)| match kind {
                Kind::Value(_, default) if *spec == name && !default.is_empty() => Some(*default),
                _ => None,
            })
        })
    }

    /// The value of `name` as a number.
    ///
    /// # Errors
    ///
    /// The value does not parse, or there is neither a value nor a
    /// default.
    pub fn num<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .get(name)
            .ok_or_else(|| format!("{name} requires a value"))?;
        raw.parse()
            .map_err(|_| format!("could not parse {raw:?} as a number"))
    }
}

/// One deterministic `qasom-cli` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Subcommand name.
    pub name: &'static str,
    /// Flags it accepts.
    pub flags: &'static [FlagSpec],
    /// Produces the document; a pure function of the flags.
    pub run: fn(&Flags) -> Result<JsonValue, String>,
}

const fn count(name: &'static str, default: &'static str) -> FlagSpec {
    (name, Kind::Value("N", default))
}

/// Every scenario, in help order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "report",
        flags: &[SEED, ("--schema", Kind::Switch), OUT],
        run: report,
    },
    Scenario {
        name: "daemon-stress",
        flags: &[
            SEED,
            count("--rounds", "12"),
            count("--clients", "4"),
            count("--queue", "6"),
            count("--quota", "2"),
            count("--batch", "4"),
            OUT,
        ],
        run: daemon_stress,
    },
    Scenario {
        name: "persist-stress",
        flags: &[
            SEED,
            count("--services", "200"),
            count("--rounds", "24"),
            count("--checkpoint-every", "16"),
            OUT,
        ],
        run: persist_stress,
    },
    Scenario {
        name: "figures",
        flags: &[OUT],
        run: figures,
    },
];

/// The scenario called `name`.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

impl Scenario {
    /// Runs the scenario and renders what the CLI emits: the document
    /// as pretty JSON — or, under `--schema`, its sorted key paths (for
    /// `report`, the exact content of
    /// `tests/fixtures/run_report_schema.txt`).
    ///
    /// # Errors
    ///
    /// Whatever the scenario function reports.
    pub fn render(&self, flags: &Flags) -> Result<String, String> {
        let doc = (self.run)(flags)?;
        Ok(if flags.is_set("--schema") {
            key_paths(&doc).join("\n")
        } else {
            doc.to_pretty()
        })
    }
}

/// Parses `args` against scenario `name` and renders it: `qasom-cli
/// <name> <args>` minus the `--out` handling.
///
/// # Errors
///
/// An unknown scenario, a bad command line, or a scenario failure.
pub fn run(name: &str, args: &[&str]) -> Result<String, String> {
    let scenario = find(name).ok_or_else(|| format!("no scenario {name:?}"))?;
    let args = args.iter().map(|&arg| arg.to_owned());
    scenario.render(&Flags::parse(name, scenario.flags, args)?)
}

// ---------------------------------------------------------------------
// Markets
// ---------------------------------------------------------------------

fn standard_property(name: &str) -> Result<qasom_qos::PropertyId, String> {
    QosModel::standard()
        .property(name)
        .ok_or_else(|| format!("the standard model defines {name}"))
}

/// The smallest market: `providers` services `s{i}` of the one concept
/// `d#A`, response time `40 + i` ms, faithful behaviour, no recorder.
///
/// # Errors
///
/// Only if the standard QoS model stops defining `ResponseTime`.
pub fn one_concept_market(providers: usize, seed: u64) -> Result<Environment, String> {
    let rt = standard_property("ResponseTime")?;
    let mut builder = OntologyBuilder::new("d");
    builder.concept("A");
    let ontology = builder.build().map_err(|e| e.to_string())?;
    let mut env = Environment::new(QosModel::standard(), ontology, seed);
    for i in 0..providers {
        let desc = ServiceDescription::new(format!("s{i}"), "d#A").with_qos(rt, 40.0 + i as f64);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal));
    }
    Ok(env)
}

/// The request every [`one_concept_market`] session makes: a task
/// `task` of the single activity `a` → `d#A`, preferring low delay.
///
/// # Errors
///
/// Only if the one-activity task stops being a valid task.
pub fn one_activity_request(task: &str) -> Result<UserRequest, String> {
    let task = UserTask::new(task, TaskNode::activity(Activity::new("a", "d#A")))
        .map_err(|e| e.to_string())?;
    Ok(UserRequest::new(task).weight("Delay", 1.0))
}

/// Connects `count` loopback clients named `{prefix}{i}` and completes
/// their handshakes; fails only on an internal codec error.
fn connect_clients(
    daemon: &mut LoopbackDaemon,
    count: usize,
    prefix: &str,
) -> Result<Vec<LoopbackClient>, String> {
    let clients = (0..count)
        .map(|i| {
            let client = daemon.connect();
            daemon
                .send_hello(client, &format!("{prefix}{i}"))
                .map_err(|e| e.to_string())?;
            Ok(client)
        })
        .collect::<Result<_, String>>()?;
    daemon.pump();
    Ok(clients)
}

fn recorded(mut env: Environment) -> Environment {
    env.set_recorder(Arc::new(MemoryRecorder::new()));
    env
}

/// The live `burst` provider the serving scenarios toggle, if any (one
/// read-lock acquisition).
fn find_burst(shared: &SharedEnvironment) -> Option<ServiceId> {
    shared.with(|e| {
        e.registry()
            .iter()
            .find(|(_, d)| d.name() == "burst")
            .map(|(id, _)| id)
    })
}

/// One advertisement of the `{ns}#F{f}` / `{ns}#F{f}Sub` taxonomy the
/// persistence scenario churns over, drawn from `rng`.
fn random_description(
    rng: &mut StdRng,
    model: &QosModel,
    ns: &str,
    functions: usize,
    name: String,
) -> ServiceDescription {
    let f = rng.gen_range(0..functions);
    let sub = if rng.gen_range(0..2) == 1 { "Sub" } else { "" };
    let mut desc = ServiceDescription::new(name, format!("{ns}#F{f}{sub}").as_str());
    if let Some(rt) = model.property("ResponseTime") {
        desc = desc.with_qos(rt, 10.0 + f64::from(rng.gen_range(0..90u32)));
    }
    if let Some(av) = model.property("Availability") {
        desc = desc.with_qos(av, 0.9 + f64::from(rng.gen_range(0..10u32)) / 100.0);
    }
    desc
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// `report`: the builtin deterministic end-to-end scenario
/// ([`qasom::demo`]) as a `RunReport`.
fn report(flags: &Flags) -> Result<JsonValue, String> {
    Ok(demo::demo_run_report(flags.num("--seed")?)?.to_json())
}

/// `daemon-stress`: the `qasomd` broker over the in-process loopback
/// transport. A small provider market, `--clients` clients hammering a
/// shared "hot" request (exercising the batcher), a rotating bursty
/// client pushing past its quota, a cold request every few rounds (a
/// separate batch) and provider churn through `RegistryDelta`.
/// Admission order, batch composition and shed decisions are all a pure
/// function of the flags; the `RunReport` carries the `daemon.*`
/// counters. The default limits are tight enough that the script
/// exercises quota denials.
fn daemon_stress(flags: &Flags) -> Result<JsonValue, String> {
    let rounds: usize = flags.num("--rounds")?;
    let shared = SharedEnvironment::new(recorded(one_concept_market(6, flags.num("--seed")?)?));
    let mut daemon = LoopbackDaemon::new(
        shared.clone(),
        BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity: flags.num("--queue")?,
                client_quota: flags.num("--quota")?,
                batch_max: flags.num("--batch")?,
            },
        },
    );
    let clients = connect_clients(
        &mut daemon,
        flags.num::<usize>("--clients")?.max(1),
        "client-",
    )?;

    let hot = one_activity_request("hot")?;
    let mut corr = 0u64;
    let mut submit = |daemon: &mut LoopbackDaemon, client, request: &UserRequest| {
        corr += 1;
        daemon
            .send_compose(client, corr, request)
            .map_err(|e| e.to_string())
    };
    for round in 0..rounds {
        if round % 3 == 0 {
            // Daemon-side code churns through the typed API and reads
            // through `with`, never a closure over the write lock.
            let delta = match find_burst(&shared) {
                Some(id) => RegistryDelta::new().undeploy(id),
                None => {
                    let rt = shared
                        .with(|e| e.model().property("ResponseTime"))
                        .ok_or("the standard model defines ResponseTime")?;
                    RegistryDelta::new()
                        .deploy_faithful(ServiceDescription::new("burst", "d#A").with_qos(rt, 10.0))
                }
            };
            shared.apply_churn(delta);
        }
        for (i, client) in clients.iter().enumerate() {
            // The round's bursty client doubles down past its quota.
            let sends = if i == round % clients.len() { 3 } else { 1 };
            for _ in 0..sends {
                submit(&mut daemon, *client, &hot)?;
            }
        }
        if round % 4 == 2 {
            let task = UserTask::new(
                format!("cold-{}", round % 2),
                TaskNode::activity(Activity::new("a", "d#A")),
            )
            .map_err(|e| e.to_string())?;
            let cold = UserRequest::new(task)
                .constraint("ResponseTime", 1.0, Unit::Seconds)
                .map_err(|e| e.to_string())?;
            submit(&mut daemon, clients[0], &cold)?;
        }
        daemon.pump();
        for client in &clients {
            // Drain (and thereby decode-check) every response frame.
            daemon.drain_events(*client).map_err(|e| e.to_string())?;
        }
    }
    for client in &clients {
        daemon.send_bye(*client).map_err(|e| e.to_string())?;
    }
    daemon.pump();
    Ok(shared.with(|e| e.run_report("daemon-stress")).to_json())
}

/// `persist-stress`: the kill-and-replay determinism harness for the
/// registry persistence layer (DESIGN.md §14). Seeded churn runs over a
/// journaled in-memory backend; after every round the durable bytes are
/// forked (the crash image) and recovered — the recovered registry must
/// be byte-identical to the never-crashed oracle (state encoding,
/// capability index, epoch, WAL cursor), and a deliberately torn fork
/// must recover cleanly and deterministically. Fails on the first
/// divergence.
fn persist_stress(flags: &Flags) -> Result<JsonValue, String> {
    const FUNCTIONS: usize = 4;
    let seed: u64 = flags.num("--seed")?;
    let services: usize = flags.num("--services")?;
    let rounds: usize = flags.num("--rounds")?;
    let checkpoint_every: usize = flags.num("--checkpoint-every")?;

    let mut builder = OntologyBuilder::new("ps");
    for f in 0..FUNCTIONS {
        let base = builder.concept(&format!("F{f}"));
        builder.subconcept(&format!("F{f}Sub"), base);
    }
    let ontology = Arc::new(builder.build().map_err(|e| e.to_string())?);
    let model = QosModel::standard();
    let config = PersistConfig { checkpoint_every };

    let backend = MemoryBackend::new();
    let (mut oracle, boot) =
        PersistentRegistry::open(backend.clone(), config, Some(Arc::clone(&ontology)))
            .map_err(|e| e.to_string())?;
    if boot.recovered_anything() {
        return Err("fresh in-memory backend reported recovered state".into());
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a57_1e55);
    let mut next_name = 0usize;
    let mut deploy = |oracle: &mut PersistentRegistry, rng: &mut StdRng| -> Result<(), String> {
        let desc = random_description(rng, &model, "ps", FUNCTIONS, format!("s{next_name}"));
        next_name += 1;
        oracle.register(desc).map_err(|e| e.to_string())?;
        Ok(())
    };
    for _ in 0..services {
        deploy(&mut oracle, &mut rng)?;
    }

    // Kill-and-replay at a crash image: the recovered registry must be
    // byte-identical to the never-crashed oracle.
    let verify = |oracle: &PersistentRegistry, image: MemoryBackend| -> Result<(), String> {
        let (recovered, _) = PersistentRegistry::open(image, config, Some(Arc::clone(&ontology)))
            .map_err(|e| format!("recovery failed: {e}"))?;
        if encode_state(recovered.registry()) != encode_state(oracle.registry()) {
            return Err("recovered state bytes diverge from the oracle".into());
        }
        if !recovered.registry().index_eq(oracle.registry()) {
            return Err("recovered capability index diverges from the oracle".into());
        }
        if !recovered.registry().index_matches_rebuild() {
            return Err("recovered capability index fails the rebuild oracle".into());
        }
        if recovered.registry().event_cursor() != oracle.registry().event_cursor() {
            return Err("recovered epoch diverges from the oracle".into());
        }
        let wal_cursor =
            |registry: &PersistentRegistry| registry.journal().map(RegistryJournal::wal_cursor);
        if wal_cursor(&recovered) != wal_cursor(oracle) {
            return Err("recovered WAL cursor diverges from the oracle".into());
        }
        Ok(())
    };

    let mut crash_points = 0u64;
    let mut torn_drills = 0u64;
    verify(&oracle, backend.fork())?;
    crash_points += 1;

    for round in 0..rounds {
        // Churn: a few arrivals, sometimes a departure of a random live
        // service.
        for _ in 0..1 + round % 3 {
            deploy(&mut oracle, &mut rng)?;
        }
        if oracle.registry().len() > 4 && rng.gen_range(0..2) == 1 {
            let live: Vec<_> = oracle.registry().iter().map(|(id, _)| id).collect();
            let id = live[rng.gen_range(0..live.len())];
            oracle.deregister(id).map_err(|e| e.to_string())?;
        }

        verify(&oracle, backend.fork())?;
        crash_points += 1;

        // Torn-tail drill: tear the crash image's WAL tail and require
        // a clean, deterministic recovery (no panic, no partial
        // replay — two recoveries of the same torn image agree).
        let mut torn = backend.fork();
        let mut wal = torn.file("registry.wal").unwrap_or_default();
        if let Some(last) = wal.last_mut() {
            *last ^= 0xA5;
            torn.create("registry.wal", &wal)
                .map_err(|e| e.to_string())?;
            let (first, report) =
                PersistentRegistry::open(torn.fork(), config, Some(Arc::clone(&ontology)))
                    .map_err(|e| format!("torn-tail recovery failed: {e}"))?;
            if !report.torn_tail {
                return Err("torn tail was not detected".into());
            }
            let (second, _) = PersistentRegistry::open(torn, config, Some(Arc::clone(&ontology)))
                .map_err(|e| format!("torn-tail re-recovery failed: {e}"))?;
            if encode_state(first.registry()) != encode_state(second.registry()) {
                return Err("torn-tail recovery is not deterministic".into());
            }
            if !first.registry().index_matches_rebuild() {
                return Err("torn-tail recovery broke the capability index".into());
            }
            torn_drills += 1;
        }
    }

    let stats = oracle
        .journal()
        .map(RegistryJournal::stats)
        .unwrap_or_default();
    Ok(JsonValue::object()
        .field("bench", "persist")
        .field("seed", seed)
        .field("services", services)
        .field("rounds", rounds)
        .field("checkpoint_every", checkpoint_every)
        .field("crash_points_verified", crash_points)
        .field("torn_tail_drills", torn_drills)
        .field("final_epoch", oracle.registry().event_cursor())
        .field("live_services", oracle.registry().len())
        .field("wal_appends", stats.appends)
        .field("wal_bytes", stats.wal_bytes)
        .field("checkpoints", stats.checkpoints)
        .field("oracle_match", true))
}

/// `figures`: every deterministic series of the evaluation — the rows
/// of [`crate::FIGURES`] that are not timed — as one document. Their
/// seeds are fixed by the figures themselves.
fn figures(_: &Flags) -> Result<JsonValue, String> {
    let model = QosModel::standard();
    let figures = crate::FIGURES
        .iter()
        .filter(|figure| !figure.timed)
        .map(|figure| {
            let series = (figure.run)(&model).map_err(|e| format!("{}: {e}", figure.title))?;
            let series: Vec<JsonValue> = series
                .into_iter()
                .map(|s| {
                    let points: Vec<JsonValue> = s
                        .points
                        .into_iter()
                        .map(|(x, y)| JsonValue::from(vec![x.into(), y.into()]))
                        .collect();
                    JsonValue::object()
                        .field("label", s.label)
                        .field("points", points)
                })
                .collect();
            Ok(JsonValue::object()
                .field("key", figure.key)
                .field("title", figure.title)
                .field("x", figure.x_label)
                .field("series", series))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(JsonValue::object().field("figures", figures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_obs::keys;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn flags_parse_defaults_overrides_switches_and_repeats() {
        const SPECS: &[FlagSpec] = &[
            SEED,
            ("--schema", Kind::Switch),
            ("--task", Kind::Required("NAME")),
            ("--weight", Kind::Repeated("NAME=W")),
            OUT,
        ];
        let flags = Flags::parse("x", SPECS, args(&["--task", "t"])).unwrap();
        assert_eq!(flags.num::<u64>("--seed"), Ok(42));
        assert!(!flags.is_set("--schema"));
        assert_eq!(flags.get("--out"), None);

        let flags = Flags::parse(
            "x",
            SPECS,
            args(&[
                "--seed", "7", "--weight", "a=1", "--schema", "--task", "t", "--weight", "b=2",
            ]),
        )
        .unwrap();
        assert_eq!(flags.num::<u64>("--seed"), Ok(7));
        assert!(flags.is_set("--schema"));
        assert_eq!(flags.all("--weight").collect::<Vec<_>>(), ["a=1", "b=2"]);

        let err = |list: &[&str]| Flags::parse("x", SPECS, args(list)).unwrap_err();
        assert!(err(&[]).contains("--task is required"));
        assert!(err(&["--task"]).contains("requires a value"));
        assert!(err(&["--task", "t", "--bogus"]).contains("unknown flag"));
        let flags = Flags::parse("x", SPECS, args(&["--task", "t", "--seed", "x"])).unwrap();
        assert!(flags.num::<u64>("--seed").is_err());
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let persist = find("persist-stress").unwrap();
        assert_eq!(
            usage(persist.name, persist.flags),
            "qasom-cli persist-stress [--seed N] [--services N] [--rounds N]\n          \
             [--checkpoint-every N] [--out FILE]"
        );
        let daemon = find("daemon-stress").unwrap();
        assert!(usage(daemon.name, daemon.flags)
            .lines()
            .all(|l| l.len() <= 78));
    }

    #[test]
    fn the_daemon_script_exercises_batching_and_quotas() {
        let daemon = find("daemon-stress").unwrap();
        let flags = Flags::parse(daemon.name, daemon.flags, Vec::new()).unwrap();
        let report = (daemon.run)(&flags).unwrap();
        let object = |value: &JsonValue, key: &str| match value {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone()),
            _ => None,
        };
        let counters = object(&report, "metrics")
            .and_then(|metrics| object(&metrics, "counters"))
            .expect("metrics.counters present");
        // A counter that never moved is absent and reads 0.
        let count = |key: &str| match object(&counters, key) {
            Some(JsonValue::U64(n)) => n,
            None => 0,
            other => panic!("{key}: {other:?}"),
        };
        let admitted = count(keys::DAEMON_ADMITTED);
        assert!(admitted > 0);
        // The batcher actually groups: fewer compose passes than
        // sessions.
        let batches = count(keys::DAEMON_BATCHES);
        assert!(batches > 0 && batches < admitted);
        // The bursty client trips its quota; the script is sized so the
        // queue itself never saturates before quotas do.
        assert!(count(keys::DAEMON_QUOTA_DENIALS) > 0);
        assert_eq!(
            admitted,
            count(keys::DAEMON_COMPLETED)
                + count(keys::DAEMON_REJECTED)
                + count(keys::DAEMON_FAILED)
        );
    }
}
