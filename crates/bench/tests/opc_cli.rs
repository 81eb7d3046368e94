//! End-to-end CLI tests for `opc`: `opc compile` must print the same
//! counts as the corpus pipeline it fronts, and a bare `opc` must print
//! the subcommand usage and exit 2.

use quant_circuit::qasm;
use quant_corpus::{generate, run_circuit, PipelineConfig, Tier};
use quant_device::{calibrate, DeviceModel, ShotPool};
use quant_math::seeded;
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
