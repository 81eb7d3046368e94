//! End-to-end CLI tests for `opc`, and the cross-front-end differential
//! test: the library spine, an in-process `CompileService`, the wire
//! protocol, `opc compile` and `opc submit` must all give bit-identical
//! counts for the same program, device and seed, and the figure harness
//! (`repro_bench::compare_flows`) must score exactly those counts. A bare
//! `opc` must print the subcommand usage and exit 2.
//!
//! The library leg runs trajectories on the environment's pool while the
//! service runs them serially, so CI also runs this file at
//! `OPC_THREADS=4`.

use pulse_compiler::{CompileMode, RouteError};
use quant_char::{counts_to_distribution, hellinger_distance};
use quant_circuit::{qasm, Circuit};
use quant_corpus::{generate, run_circuit, PipelineConfig, PipelineError, PipelineRun, Tier};
use quant_device::{calibrate, Calibration, CalibrationOptions, DeviceModel, ShotPool};
use quant_math::seeded;
use quant_service::wire::{self, WireResponse};
use quant_service::{CompileService, DeviceKind, DeviceSpec, JobOutput, JobSpec, ServiceConfig};
use repro_bench::{compare_flows, Comparison, Setup};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::Path;
use std::process::Command;

/// Rebuilds the counts vector from `opc compile`'s `|bits⟩ (q0 first): c`
/// lines (bit string written qubit 0 first).
fn parse_counts(stdout: &str, width: u32) -> Vec<u64> {
    let mut counts = vec![0u64; 1 << width];
    for line in stdout.lines() {
        let Some(rest) = line.trim_start().strip_prefix('|') else {
            continue;
        };
        let (bits, count) = rest
            .split_once("⟩ (q0 first): ")
            .unwrap_or_else(|| panic!("malformed counts line {line:?}"));
        let idx = bits
            .chars()
            .enumerate()
            .fold(0usize, |acc, (q, b)| acc | (usize::from(b == '1') << q));
        counts[idx] = count.parse().expect("integer count");
    }
    counts
}

#[test]
fn compile_prints_the_pipeline_counts() {
    let entry = generate(Tier::Smoke)
        .into_iter()
        .find(|e| e.name == "qft_n3")
        .expect("smoke tier carries qft_n3");
    let source = qasm::print(&entry.circuit);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("opc_cli_qft_n3.qasm");
    std::fs::write(&path, &source).expect("write program");

    let (seed, shots) = (11u64, 1500usize);
    let out = Command::new(env!("CARGO_BIN_EXE_opc"))
        .args(["compile", "--seed", &seed.to_string()])
        .args(["--shots", &shots.to_string()])
        .arg(&path)
        .output()
        .expect("spawn opc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "opc compile failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("schedule verified clean"), "{stdout}");

    // The same program, device seed and config through the library.
    let circuit = qasm::parse(&source).expect("printed QASM parses");
    let mut rng = seeded(seed);
    let device = DeviceModel::almaden_like(circuit.num_qubits() as usize, &mut rng);
    let calibration = calibrate(&device, &mut rng);
    let config = PipelineConfig {
        seed,
        shots,
        ..PipelineConfig::default()
    };
    let run = run_circuit(
        &device,
        &calibration,
        &circuit,
        &config,
        &ShotPool::serial(),
    )
    .expect("pipeline run");
    assert_eq!(
        parse_counts(&stdout, circuit.num_qubits()),
        run.counts,
        "opc compile counts differ from quant_corpus::run_circuit:\n{stdout}"
    );
}

#[test]
fn bare_opc_prints_usage_and_exits_2() {
    for args in [&[][..], &["--help"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_opc"))
            .args(args)
            .output()
            .expect("spawn opc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}:\n{stderr}");
        assert!(stderr.contains("usage: opc"), "{stderr}");
        for cmd in ["compile", "corpus", "serve", "submit"] {
            assert!(stderr.contains(&format!("opc {cmd}")), "{cmd}:\n{stderr}");
        }
    }
}

const MODES: [CompileMode; 2] = [CompileMode::Standard, CompileMode::Optimized];

/// One differential case: a smoke-tier program as QASM text, under one
/// mode, with the default job config (so one seed serves device and job).
struct Case {
    name: String,
    source: String,
    mode: CompileMode,
}

impl Case {
    fn circuit(&self) -> Circuit {
        qasm::parse(&self.source).expect("printed QASM parses")
    }

    fn job(&self) -> JobSpec {
        let width = self.circuit().num_qubits();
        let seed = PipelineConfig::default().seed;
        let mut job = JobSpec::qasm(
            DeviceSpec::new(DeviceKind::Almaden, width, seed),
            self.source.clone(),
        );
        job.mode = self.mode;
        job
    }
}

fn smoke_cases() -> Vec<Case> {
    generate(Tier::Smoke)
        .into_iter()
        .flat_map(|entry| {
            let source = qasm::print(&entry.circuit);
            MODES.map(|mode| Case {
                name: entry.name.clone(),
                source: source.clone(),
                mode,
            })
        })
        .collect()
}

/// The library spine, on the device `DeviceSpec::build` draws (the same
/// draws as `opc compile`'s `seeded(seed)` → `almaden_like` → `calibrate`).
fn library_runs(cases: &[Case]) -> Vec<PipelineRun> {
    let mut devices = BTreeMap::new();
    cases
        .iter()
        .map(|case| {
            let spec = case.job().device;
            let (device, calibration) = devices.entry(spec.qubits).or_insert_with(|| {
                let (device, root) = spec.build();
                let calibration =
                    Calibration::run_seeded(&device, &CalibrationOptions::default(), root);
                (device, calibration)
            });
            let config = PipelineConfig {
                mode: case.mode,
                ..PipelineConfig::default()
            };
            run_circuit(
                device,
                calibration,
                &case.circuit(),
                &config,
                &ShotPool::from_env(),
            )
            .unwrap_or_else(|e| panic!("{} {:?}: {e}", case.name, case.mode))
        })
        .collect()
}

fn service(workers: usize) -> CompileService {
    CompileService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
    .expect("service start")
}

fn in_process_runs(cases: &[Case]) -> Vec<JobOutput> {
    let svc = service(2);
    let tickets: Vec<_> = cases
        .iter()
        .map(|case| svc.submit(case.job()).expect("submit"))
        .collect();
    tickets
        .iter()
        .map(|t| (*t.wait().expect("job result")).clone())
        .collect()
}

/// Every case as one wire connection over in-memory buffers, on a service
/// of its own so no other leg's result memo can answer it.
fn wire_runs(cases: &[Case]) -> Vec<JobOutput> {
    let mut request = Vec::new();
    for case in cases {
        wire::write_request(&mut request, &case.job()).expect("serialize");
    }
    let mut response = Vec::new();
    wire::serve_connection(
        &mut BufReader::new(&request[..]),
        &mut response,
        &service(1),
    )
    .expect("serve");
    let mut reader = BufReader::new(&response[..]);
    cases
        .iter()
        .map(
            |case| match wire::read_response(&mut reader).expect("response") {
                WireResponse::Ok(out) => out,
                WireResponse::Error(kind, msg) => {
                    panic!("{} {:?}: wire {kind} error: {msg}", case.name, case.mode)
                }
            },
        )
        .collect()
}

#[test]
fn library_service_and_wire_agree_bit_for_bit() {
    let cases = smoke_cases();
    let library = library_runs(&cases);
    for (leg, outputs) in [
        ("in-process service", in_process_runs(&cases)),
        ("wire loopback", wire_runs(&cases)),
    ] {
        for ((case, lib), out) in cases.iter().zip(&library).zip(&outputs) {
            let what = format!("{} {:?} via {leg}", case.name, case.mode);
            assert_eq!(out.counts, lib.counts, "{what}: counts");
            assert_eq!(
                out.fidelity.to_bits(),
                lib.fidelity.to_bits(),
                "{what}: fidelity bits"
            );
            assert_eq!(out.duration_dt, lib.duration_dt, "{what}: duration");
        }
    }
}

#[test]
fn compile_and_submit_binaries_print_the_spine_counts() {
    let cases: Vec<Case> = smoke_cases()
        .into_iter()
        .filter(|c| c.name == "qft_n3" || c.name == "qaoa_n10_p1")
        .collect();
    assert_eq!(cases.len(), 4, "qft_n3 and qaoa_n10_p1 under both modes");
    let library = library_runs(&cases);
    for (case, lib) in cases.iter().zip(&library) {
        let path =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("opc_cli_{}.qasm", case.name));
        std::fs::write(&path, &case.source).expect("write program");
        let standard = case.mode == CompileMode::Standard;
        // No seed or shot flags: both binaries take the pipeline defaults.
        let compile_flags: &[&str] = if standard {
            &["--mode", "standard"]
        } else {
            &[]
        };
        let submit_flags: &[&str] = if standard { &["--standard"] } else { &[] };
        for (cmd, flags) in [("compile", compile_flags), ("submit", submit_flags)] {
            let out = Command::new(env!("CARGO_BIN_EXE_opc"))
                .arg(cmd)
                .args(flags)
                .arg(&path)
                .output()
                .expect("spawn opc");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "opc {cmd} {} failed:\n{stdout}\n{}",
                case.name,
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                parse_counts(&stdout, case.circuit().num_qubits()),
                lib.counts,
                "opc {cmd} {} {:?} counts differ from the library spine:\n{stdout}",
                case.name,
                case.mode
            );
        }
    }
}

#[test]
fn noiseless_runs_past_the_density_wall_fail_in_both_binaries() {
    let entry = generate(Tier::Smoke)
        .into_iter()
        .find(|e| e.name == "qaoa_n10_p1")
        .expect("smoke tier carries qaoa_n10_p1");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("opc_cli_noiseless_wide.qasm");
    std::fs::write(&path, qasm::print(&entry.circuit)).expect("write program");
    for (cmd, expected) in [
        ("compile", "noiseless runs take at most 6 qubits"),
        ("submit", "invalid request"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_opc"))
            .args([cmd, "--noiseless"])
            .arg(&path)
            .output()
            .expect("spawn opc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "opc {cmd}: {stderr}");
        assert!(stderr.contains(expected), "opc {cmd}: {stderr}");
    }
}

/// A `Comparison` as raw bits, so equality means bit-identical.
fn comparison_bits(c: &Comparison) -> [u64; 4] {
    [
        c.error_standard.to_bits(),
        c.error_optimized.to_bits(),
        c.duration_standard,
        c.duration_optimized,
    ]
}

#[test]
fn compare_flows_scores_the_spine_counts() {
    let config = PipelineConfig::default();
    let pool = ShotPool::from_env();
    let mut setups = BTreeMap::new();
    for entry in generate(Tier::Smoke) {
        let width = entry.width as usize;
        let setup = setups
            .entry(width)
            .or_insert_with(|| Setup::almaden(width, config.seed));
        let cmp = compare_flows(setup, &entry.circuit, &config, &pool)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let mitigator = setup.mitigator(width);
        let [std, opt] = MODES.map(|mode| {
            let flow = PipelineConfig {
                mode,
                ..config.clone()
            };
            let run = run_circuit(
                &setup.device,
                &setup.calibration,
                &entry.circuit,
                &flow,
                &pool,
            )
            .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", entry.name));
            let mitigated = mitigator.mitigate(&counts_to_distribution(&run.counts));
            (hellinger_distance(&run.ideal, &mitigated), run.duration_dt)
        });
        let expected = Comparison {
            error_standard: std.0,
            error_optimized: opt.0,
            duration_standard: std.1,
            duration_optimized: opt.1,
        };
        assert_eq!(
            comparison_bits(&cmp),
            comparison_bits(&expected),
            "{}: compare_flows {cmp:?} vs run_circuit {expected:?}",
            entry.name
        );
    }
}

#[test]
fn compare_flows_on_trajectories_ignores_the_pool_size() {
    let config = PipelineConfig::default();
    let entry = generate(Tier::Smoke)
        .into_iter()
        .find(|e| e.name == "qaoa_n10_p1")
        .expect("smoke tier carries qaoa_n10_p1");
    assert!(
        entry.width > config.density_max_qubits,
        "takes trajectories"
    );
    let setup = Setup::almaden(entry.width as usize, config.seed);
    let [serial, pooled] = [1, 4].map(|threads| {
        compare_flows(&setup, &entry.circuit, &config, &ShotPool::new(threads))
            .expect("qaoa_n10_p1 runs")
    });
    assert_eq!(comparison_bits(&serial), comparison_bits(&pooled));
}

#[test]
fn compare_flows_reports_a_too_wide_circuit_as_an_error() {
    let config = PipelineConfig::default();
    let entry = generate(Tier::Smoke)
        .into_iter()
        .find(|e| e.name == "qft_n3")
        .expect("smoke tier carries qft_n3");
    let setup = Setup::almaden(2, config.seed);
    let err = compare_flows(&setup, &entry.circuit, &config, &ShotPool::serial())
        .expect_err("3 logical qubits on a 2-qubit device must fail");
    assert!(
        matches!(err, PipelineError::Route(RouteError::TooWide { .. })),
        "{err}"
    );
}
