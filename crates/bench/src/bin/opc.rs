//! `opc` — the OpenPulse-optimizing compiler, as a command-line tool.
//!
//! Four subcommands; a bare `opc` (or `opc --help`) prints them and exits
//! with status 2. The one-command pipeline and the benchmark corpus
//! (see `quant-corpus`):
//!
//! ```text
//! opc compile [--mode standard|optimized] [--shots N] [--seed N]
//!             [--noiseless] [--trajectories N] program.qasm
//! opc corpus  [--tier smoke|full] [--shots N] [--seed N]
//!             [--device-seed N] [--out DIR] [--check]
//! ```
//!
//! `opc compile` runs QASM → routing → compilation → pulse schedule →
//! simulated execution → counts + Hellinger fidelity in one shot
//! (`quant_corpus::run_circuit`). The schedule is verified by the
//! compiler itself; a schedule with findings fails the compile. `opc
//! corpus` runs the generated benchmark corpus under both compilation
//! flows and writes `CORPUS_REPORT.json` + `CORPUS_REPORT.md`; `--check`
//! exits nonzero unless pulse-level compilation beats gate-level on
//! schedule duration for ≥ 3 families.
//!
//! Example: `cargo run --release -p repro-bench --bin opc -- compile bell.qasm`
//!
//! Two service subcommands turn the same pipeline into a job engine
//! (see `quant-service`):
//!
//! ```text
//! opc serve  [--addr HOST:PORT] [--workers N] [--queue N]
//! opc submit [--addr HOST:PORT] [--device armonk|almaden] [--qubits N]
//!            [--device-seed N] [--seed N] [--shots N] [--noiseless]
//!            [--standard] program.qasm [more.qasm ...]
//! ```
//!
//! `opc serve` runs a `CompileService` behind a line-oriented TCP
//! protocol (one thread per connection, the service's own worker pool
//! and queue behind it). `opc submit` sends jobs to such a server — or,
//! without `--addr`, runs them through an in-process service, so the
//! request path is testable with no socket at all.

use pulse_compiler::CompileMode;
use quant_circuit::qasm;
use quant_corpus::{CorpusOptions, PipelineConfig, Tier};
use quant_device::{calibrate, DeviceModel, ShotPool, DT};
use quant_math::seeded;
use quant_service::{wire, CompileService, DeviceKind, DeviceSpec, JobSpec, ServiceConfig};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const USAGE: &str = "\
usage: opc <command> [flags]

  opc compile [--mode standard|optimized] [--shots N] [--seed N]
              [--noiseless] [--trajectories N] program.qasm
  opc corpus  [--tier smoke|full] [--shots N] [--seed N]
              [--device-seed N] [--out DIR] [--check]
  opc serve   [--addr HOST:PORT] [--workers N] [--queue N]
  opc submit  [--addr HOST:PORT] [--device armonk|almaden] [--qubits N]
              [--device-seed N] [--seed N] [--shots N] [--noiseless]
              [--standard] program.qasm [more.qasm ...]";

/// `opc serve`: a `CompileService` behind the wire protocol.
fn cmd_serve(rest: &[String]) -> ! {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServiceConfig::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let take = |it: &mut std::slice::Iter<'_, String>, what: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("opc serve: {what} needs a value");
                    std::process::exit(2);
                }
            }
        };
        match arg.as_str() {
            "--addr" => addr = take(&mut iter, "--addr"),
            "--workers" => match take(&mut iter, "--workers").parse() {
                Ok(n) => cfg.workers = n,
                Err(_) => {
                    eprintln!("opc serve: --workers needs an integer");
                    std::process::exit(2);
                }
            },
            "--queue" => match take(&mut iter, "--queue").parse() {
                Ok(n) => cfg.queue_capacity = n,
                Err(_) => {
                    eprintln!("opc serve: --queue needs an integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("opc serve: unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    let service = match CompileService::new(cfg) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("opc serve: {e}");
            std::process::exit(1);
        }
    };
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("opc serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "opc serve: listening on {addr} ({} workers, queue {})",
        service.config().workers,
        service.config().queue_capacity
    );
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("opc serve: accept failed: {e}");
                continue;
            }
        };
        let service = Arc::clone(&service);
        let handle = std::thread::Builder::new()
            .name("opc-conn".into())
            .spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into());
                let reader_stream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("opc serve [{peer}]: clone failed: {e}");
                        return;
                    }
                };
                let mut reader = BufReader::new(reader_stream);
                let mut writer = BufWriter::new(stream);
                if let Err(e) = wire::serve_connection(&mut reader, &mut writer, &service) {
                    eprintln!("opc serve [{peer}]: {e}");
                }
            });
        if let Err(e) = handle {
            eprintln!("opc serve: spawn failed: {e}");
        }
    }
    std::process::exit(0);
}

struct SubmitArgs {
    addr: Option<String>,
    qubits: Option<u32>,
    /// Every file's job apart from its program and width.
    job: JobSpec,
    paths: Vec<String>,
}

fn parse_submit_args(rest: &[String]) -> Result<SubmitArgs, String> {
    // Device and job share the default seed, as in `opc compile`.
    let device = DeviceSpec::new(DeviceKind::Almaden, 1, PipelineConfig::default().seed);
    let mut args = SubmitArgs {
        addr: None,
        qubits: None,
        job: JobSpec::qasm(device, ""),
        paths: Vec::new(),
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(take("--addr")?),
            "--device" => {
                let v = take("--device")?;
                args.job.device.kind = DeviceKind::parse(&v)
                    .ok_or_else(|| format!("unknown device `{v}` (armonk|almaden)"))?;
            }
            "--qubits" => {
                args.qubits = Some(
                    take("--qubits")?
                        .parse()
                        .map_err(|_| "--qubits needs an integer".to_string())?,
                )
            }
            "--device-seed" => {
                args.job.device.seed = take("--device-seed")?
                    .parse()
                    .map_err(|_| "--device-seed needs an integer".to_string())?
            }
            "--seed" => {
                args.job.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--shots" => {
                args.job.shots = take("--shots")?
                    .parse()
                    .map_err(|_| "--shots needs an integer".to_string())?
            }
            "--noiseless" => args.job.noisy = false,
            "--standard" => args.job.mode = CompileMode::Standard,
            other if !other.starts_with('-') => args.paths.push(other.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.paths.is_empty() {
        return Err("opc submit needs at least one .qasm file".to_string());
    }
    Ok(args)
}

fn print_output(path: &str, out: &quant_service::JobOutput) {
    println!(
        "{path}: ok — key {:016x}, {} pulses, {} dt, fidelity {:.4}",
        out.key, out.pulse_count, out.duration_dt, out.fidelity
    );
    print_counts(&out.counts, out.num_qubits);
}

/// `opc submit`: jobs to a remote server, or through an in-process
/// service when no `--addr` is given.
fn cmd_submit(rest: &[String]) -> ! {
    let args = match parse_submit_args(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("opc submit: {msg}");
            std::process::exit(2);
        }
    };
    let mut failed = false;
    let jobs: Vec<(String, JobSpec)> = args
        .paths
        .iter()
        .filter_map(|path| match std::fs::read_to_string(path) {
            Ok(source) => {
                // Width defaults to the parsed register size so small
                // programs do not pay for a 10-qubit tune-up.
                let qubits = args
                    .qubits
                    .or_else(|| qasm::parse(&source).ok().map(|c| c.num_qubits()));
                let mut spec = args.job.clone();
                spec.device.qubits = qubits.unwrap_or(1);
                spec.circuit = quant_service::CircuitSource::Qasm(source);
                Some((path.clone(), spec))
            }
            Err(e) => {
                eprintln!("opc submit: cannot read {path}: {e}");
                failed = true;
                None
            }
        })
        .collect();

    match &args.addr {
        Some(addr) => {
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opc submit: cannot connect to {addr}: {e}");
                    std::process::exit(1);
                }
            };
            let reader_stream = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opc submit: clone failed: {e}");
                    std::process::exit(1);
                }
            };
            let mut reader = BufReader::new(reader_stream);
            let mut writer = BufWriter::new(stream);
            for (path, spec) in &jobs {
                let sent = wire::write_request(&mut writer, spec)
                    .and_then(|()| writer.flush())
                    .and_then(|()| wire::read_response(&mut reader));
                match sent {
                    Ok(wire::WireResponse::Ok(out)) => print_output(path, &out),
                    Ok(wire::WireResponse::Error(kind, msg)) => {
                        eprintln!("{path}: {kind} error — {msg}");
                        failed = true;
                    }
                    Err(e) => {
                        eprintln!("{path}: transport error — {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        None => {
            let service = match CompileService::new(ServiceConfig::default()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("opc submit: {e}");
                    std::process::exit(1);
                }
            };
            let tickets: Vec<_> = jobs
                .iter()
                .map(|(path, spec)| (path, service.submit(spec.clone())))
                .collect();
            for (path, ticket) in tickets {
                match ticket.and_then(|t| t.wait().map(|out| (*out).clone())) {
                    Ok(out) => print_output(path, &out),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                    }
                }
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Prints measurement counts as little-endian bit strings.
fn print_counts(counts: &[u64], width: u32) {
    for (idx, &c) in counts.iter().enumerate() {
        if c > 0 {
            let bits: String = (0..width)
                .map(|q| if (idx >> q) & 1 == 1 { '1' } else { '0' })
                .collect();
            println!("  |{bits}⟩ (q0 first): {c}");
        }
    }
}

/// `opc compile`: the one-command QASM → pulses → counts pipeline.
fn die_compile(msg: &str) -> ! {
    eprintln!("opc compile: {msg}");
    std::process::exit(2);
}

fn cmd_compile(rest: &[String]) -> ! {
    let die = die_compile;
    let mut config = PipelineConfig::default();
    let mut path: Option<String> = None;
    let mut trajectories_requested = false;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--mode" => {
                config.mode = match take("--mode").as_str() {
                    "standard" => CompileMode::Standard,
                    "optimized" => CompileMode::Optimized,
                    other => die(&format!("unknown mode `{other}`")),
                }
            }
            "--shots" => {
                config.shots = take("--shots")
                    .parse()
                    .unwrap_or_else(|_| die("--shots needs an integer"))
            }
            "--seed" => {
                config.seed = take("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--trajectories" => {
                config.trajectories = take("--trajectories")
                    .parse()
                    .unwrap_or_else(|_| die("--trajectories needs an integer"));
                trajectories_requested = true;
            }
            "--noiseless" => config.noisy = false,
            "--help" | "-h" => die(
                "usage: opc compile [--mode standard|optimized] [--shots N] \
                 [--seed N] [--noiseless] [--trajectories N] program.qasm",
            ),
            other if !other.starts_with('-') => path = Some(other.to_string()),
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let Some(path) = path else {
        die("pass a program.qasm")
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("opc compile: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let circuit = match qasm::parse(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("opc compile: parse error: {e}");
            std::process::exit(1);
        }
    };
    // One seed draws both the device and the job.
    let mut rng = seeded(config.seed);
    let device = DeviceModel::almaden_like(circuit.num_qubits() as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    let run = match quant_corpus::run_circuit(
        &device,
        &calibration,
        &circuit,
        &config,
        &ShotPool::from_env(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opc compile: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "compiled {} ({:?} flow): {} ops on {} qubits, {} swaps inserted, routed depth {}",
        path,
        run.mode,
        circuit.len(),
        circuit.num_qubits(),
        run.swaps_inserted,
        run.routed_depth,
    );
    println!(
        "pulse schedule: {} pulses, {} dt = {:.2} µs",
        run.pulse_count,
        run.duration_dt,
        run.duration_dt as f64 * DT * 1e6
    );
    // The compiler verified the schedule; findings would have failed it.
    println!(
        "schedule verified clean ({} static rules)",
        quant_pulse::VERIFY_RULES.len()
    );
    println!("{}", run.compiled.program.schedule.ascii_art(72));
    if trajectories_requested && run.executor == quant_corpus::ExecutorKind::Density {
        eprintln!(
            "opc compile: warning: --trajectories {} ignored — {} qubits fits the exact \
             density-matrix executor, which takes no trajectory count",
            config.trajectories,
            circuit.num_qubits(),
        );
    }
    println!(
        "execution ({} shots, {}, {} backend): Hellinger fidelity {:.4}",
        config.shots,
        if config.noisy { "noisy" } else { "noiseless" },
        run.executor.name(),
        run.fidelity
    );
    print_counts(&run.counts, circuit.num_qubits());
    std::process::exit(0);
}

/// `opc corpus`: the comparative benchmark platform.
fn die_corpus(msg: &str) -> ! {
    eprintln!("opc corpus: {msg}");
    std::process::exit(2);
}

fn cmd_corpus(rest: &[String]) -> ! {
    let die = die_corpus;
    let mut options = CorpusOptions::default();
    let mut out_dir = String::from(".");
    let mut check = false;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--tier" => {
                options.tier = match take("--tier").as_str() {
                    "smoke" => Tier::Smoke,
                    "full" => Tier::Full,
                    other => die(&format!("unknown tier `{other}`")),
                }
            }
            "--shots" => {
                options.shots = take("--shots")
                    .parse()
                    .unwrap_or_else(|_| die("--shots needs an integer"))
            }
            "--seed" => {
                options.seed = take("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer"))
            }
            "--device-seed" => {
                options.device_seed = take("--device-seed")
                    .parse()
                    .unwrap_or_else(|_| die("--device-seed needs an integer"))
            }
            "--out" => out_dir = take("--out"),
            "--check" => check = true,
            "--help" | "-h" => die(
                "usage: opc corpus [--tier smoke|full] [--shots N] [--seed N] \
                 [--device-seed N] [--out DIR] [--check]",
            ),
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    // Wall-clock columns come from an injected clock: the corpus library
    // itself is clock-free per the determinism lint.
    let t0 = std::time::Instant::now();
    options.clock = Some(Arc::new(move || t0.elapsed().as_millis() as u64));
    let report = match quant_corpus::run_corpus(&options, &ShotPool::from_env()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opc corpus: {e}");
            std::process::exit(1);
        }
    };
    let json_path = format!("{out_dir}/CORPUS_REPORT.json");
    let md_path = format!("{out_dir}/CORPUS_REPORT.md");
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("opc corpus: write {json_path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&md_path, report.to_markdown()) {
        eprintln!("opc corpus: write {md_path}: {e}");
        std::process::exit(1);
    }
    print!("{}", report.to_markdown());
    println!("\nwrote {json_path} and {md_path}");
    let wins = report.families_where_pulse_wins();
    if check && wins < 3 {
        eprintln!(
            "opc corpus: CHECK FAILED — pulse-level compilation beats gate-level \
             on duration for only {wins}/5 families (need ≥ 3)"
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(&argv[1..]),
        Some("submit") => cmd_submit(&argv[1..]),
        Some("compile") => cmd_compile(&argv[1..]),
        Some("corpus") => cmd_corpus(&argv[1..]),
        Some("--help" | "-h") | None => {}
        Some(other) => eprintln!("opc: unknown command `{other}`"),
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}
