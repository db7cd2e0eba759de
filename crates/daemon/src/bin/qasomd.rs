//! `qasomd` — the QASOM serving daemon.
//!
//! Binds a TCP listener, builds a synthetic provider market and serves
//! composition sessions over the frame protocol until stdin closes
//! (pipe `/dev/null` to run until killed). See `DESIGN.md` §10 for the
//! protocol and the admission model.
//!
//! With `--data-dir` the registry is durable: registrations are
//! journaled to a CRC-framed WAL under the directory, snapshots are
//! checkpointed, and a restart pointed at the same directory *warm
//! boots* — the directory is recovered from snapshot + WAL tail
//! instead of re-registering the provider market (DESIGN.md §14).
//!
//! ```text
//! qasomd [--addr HOST:PORT] [--seed N] [--providers N]
//!        [--queue N] [--quota N] [--batch N] [--data-dir DIR]
//! ```

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use qasom::{Environment, SharedEnvironment};
use qasom_daemon::{AdmissionConfig, BrokerConfig};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{MemoryRecorder, Recorder};
use qasom_ontology::OntologyBuilder;
use qasom_qos::QosModel;
use qasom_registry::persist::{FileBackend, PersistConfig};
use qasom_registry::ServiceDescription;

/// `eprintln!` that drops write errors: a log reader that went away
/// (a closed pipe) must not take the daemon down with it.
macro_rules! log {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

struct Options {
    addr: String,
    seed: u64,
    providers: usize,
    admission: AdmissionConfig,
    data_dir: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:7479".to_owned(),
            seed: 42,
            providers: 8,
            admission: AdmissionConfig::default(),
            data_dir: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--seed" => options.seed = parse(&value("--seed")?)?,
            "--providers" => options.providers = parse(&value("--providers")?)?,
            "--queue" => options.admission.queue_capacity = parse(&value("--queue")?)?,
            "--quota" => options.admission.client_quota = parse(&value("--quota")?)?,
            "--batch" => options.admission.batch_max = parse(&value("--batch")?)?,
            "--data-dir" => options.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(options)
}

fn parse<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("could not parse {raw:?} as a number"))
}

fn usage() -> String {
    "usage: qasomd [--addr HOST:PORT] [--seed N] [--providers N] \
     [--queue N] [--quota N] [--batch N] [--data-dir DIR]"
        .to_owned()
}

fn market(
    seed: u64,
    providers: usize,
    data_dir: Option<&Path>,
) -> Result<SharedEnvironment, String> {
    let mut builder = OntologyBuilder::new("d");
    builder.concept("A");
    let ontology = builder.build().expect("static demo ontology builds");
    let mut env = Environment::new(QosModel::standard(), ontology, seed);
    env.set_recorder(Arc::new(MemoryRecorder::new()) as Arc<dyn Recorder>);

    if let Some(dir) = data_dir {
        let backend = FileBackend::open(dir)
            .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
        // An empty data dir is a cold boot: the journal is attached
        // either way, so the market deployed below is journaled from
        // its first registration.
        let report = env
            .open_registry(backend, PersistConfig::default())
            .map_err(|e| format!("cannot recover registry from {}: {e}", dir.display()))?;
        if report.recovered_anything() {
            // Registry rows survived the restart; runtime behaviours
            // live only in memory and are re-created from the
            // advertised QoS (the market is synthetic and faithful).
            let live: Vec<_> = env
                .registry()
                .iter()
                .map(|(id, desc)| (id, desc.qos().clone()))
                .collect();
            for (id, nominal) in live {
                env.attach_behaviour(id, SyntheticService::new(nominal));
            }
            log!(
                "qasomd: warm restart from {}: {} live services at epoch {} \
                 (snapshot cursor {}, {} WAL events replayed{})",
                dir.display(),
                env.registry().len(),
                env.epoch(),
                report.snapshot_cursor,
                report.wal_events_applied,
                if report.torn_tail {
                    ", torn tail discarded"
                } else {
                    ""
                },
            );
            return Ok(SharedEnvironment::new(env));
        }
    }

    let rt = env
        .model()
        .property("ResponseTime")
        .expect("the standard model defines ResponseTime");
    for i in 0..providers.max(1) {
        let desc = ServiceDescription::new(format!("s{i}"), "d#A").with_qos(rt, 40.0 + i as f64);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal));
    }
    Ok(SharedEnvironment::new(env))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            log!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let shared = match market(options.seed, options.providers, options.data_dir.as_deref()) {
        Ok(shared) => shared,
        Err(message) => {
            log!("qasomd: {message}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match qasom_daemon::spawn(
        &options.addr,
        shared.clone(),
        BrokerConfig {
            admission: options.admission,
        },
    ) {
        Ok(handle) => handle,
        Err(e) => {
            log!("qasomd: cannot bind {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    log!(
        "qasomd: serving on {} (seed {}, {} providers, queue {}, quota {}, batch {})",
        handle.addr(),
        options.seed,
        shared.with(|e| e.registry().len()),
        options.admission.queue_capacity,
        options.admission.client_quota,
        options.admission.batch_max
    );
    if let Some(dir) = &options.data_dir {
        log!("qasomd: journaling registry to {}", dir.display());
    }
    log!("qasomd: close stdin to stop");

    // Block until stdin closes — no polling, no clocks.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
    }

    handle.stop();
    // A final checkpoint makes the next boot snapshot-only (empty WAL).
    shared.checkpoint_registry();
    let report = shared.with(|e| e.run_report("qasomd"));
    // Like the log, the report is best effort once the reader is gone.
    let _ = writeln!(std::io::stdout(), "{}", report.to_pretty_string());
    ExitCode::SUCCESS
}
