//! [`pulse_compiler::pipeline`] (re-exported) plus parsing and Hellinger
//! scoring: the one-shot `opc compile` pipeline.

pub use pulse_compiler::pipeline::{
    compile_circuit, execute_compiled, CompiledCircuit, ExecutorKind, PipelineConfig, PipelineError,
};
use pulse_compiler::{CompileMode, Compiled};
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_circuit::{qasm, Circuit};
use quant_device::{Calibration, DeviceModel, ShotPool};

/// The result of one pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineRun {
    /// The mode that produced this run.
    pub mode: CompileMode,
    /// SWAPs routing inserted on the linear coupling map.
    pub swaps_inserted: usize,
    /// Depth of the routed physical circuit.
    pub routed_depth: usize,
    /// Two-qubit gate count of the routed circuit.
    pub two_qubit_gates: usize,
    /// Every compilation stage (assembly, basis circuit, pulse program).
    pub compiled: Compiled,
    /// Total schedule duration in `dt` units.
    pub duration_dt: u64,
    /// Total pulses played.
    pub pulse_count: usize,
    /// Which backend executed it.
    pub executor: ExecutorKind,
    /// Measured counts over the `2ⁿ` outcomes.
    pub counts: Vec<u64>,
    /// The routed circuit's ideal (noise-free) outcome distribution.
    pub ideal: Vec<f64>,
    /// Hellinger fidelity of the measured counts against `ideal`.
    pub fidelity: f64,
}

/// Runs a logical circuit through route → compile → execute → score.
pub fn run_circuit(
    device: &DeviceModel,
    calibration: &Calibration,
    circuit: &Circuit,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<PipelineRun, PipelineError> {
    let cc = compile_circuit(device, calibration, circuit, config.mode)?;
    run_compiled(device, cc, config, pool)
}

/// The execute → score half of [`run_circuit`], for callers that time
/// [`compile_circuit`] on its own (the corpus report).
pub fn run_compiled(
    device: &DeviceModel,
    cc: CompiledCircuit,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<PipelineRun, PipelineError> {
    let (executor, counts) = execute_compiled(device, &cc, config, pool)?;
    let ideal = cc.routed.circuit.output_distribution();
    let fidelity = hellinger_fidelity(&ideal, &counts_to_distribution(&counts));
    let CompiledCircuit { routed, compiled } = cc;
    Ok(PipelineRun {
        mode: config.mode,
        swaps_inserted: routed.swaps_inserted,
        routed_depth: routed.circuit.depth(),
        two_qubit_gates: routed.circuit.two_qubit_count(),
        duration_dt: compiled.duration(),
        pulse_count: compiled.pulse_count(),
        compiled,
        executor,
        counts,
        ideal,
        fidelity,
    })
}

/// [`run_circuit`] with an OpenQASM source frontend — the `opc compile`
/// entry point.
pub fn run_qasm(
    device: &DeviceModel,
    calibration: &Calibration,
    source: &str,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<PipelineRun, PipelineError> {
    let circuit = qasm::parse(source)?;
    run_circuit(device, calibration, &circuit, config, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_compiler::RouteError;
    use quant_device::calibrate;
    use quant_math::seeded;

    fn setup(n: usize) -> (DeviceModel, Calibration) {
        let mut rng = seeded(71);
        let device = DeviceModel::almaden_like(n, &mut rng);
        let calibration = calibrate(&device, &mut rng);
        (device, calibration)
    }

    #[test]
    fn bell_pipeline_end_to_end() {
        let (device, calibration) = setup(2);
        let src = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
        let cfg = PipelineConfig::default();
        let run =
            run_qasm(&device, &calibration, src, &cfg, &ShotPool::serial()).expect("bell pipeline");
        assert_eq!(run.executor, ExecutorKind::Density);
        assert_eq!(run.counts.iter().sum::<u64>(), cfg.shots as u64);
        assert!(run.duration_dt > 0 && run.pulse_count > 0);
        assert!(run.fidelity > 0.8, "bell fidelity {}", run.fidelity);
        // A Bell state is (|00⟩ + |11⟩)/√2: the diagonal outcomes dominate.
        assert!(run.counts[0] + run.counts[3] > run.counts[1] + run.counts[2]);
    }

    #[test]
    fn optimized_flow_is_shorter() {
        let (device, calibration) = setup(3);
        let circuit = crate::generators::qaoa_line(3, 1);
        let std_cfg = PipelineConfig {
            mode: CompileMode::Standard,
            ..PipelineConfig::default()
        };
        let opt_cfg = PipelineConfig::default();
        let pool = ShotPool::serial();
        let s = run_circuit(&device, &calibration, &circuit, &std_cfg, &pool).expect("standard");
        let o = run_circuit(&device, &calibration, &circuit, &opt_cfg, &pool).expect("optimized");
        assert!(
            o.duration_dt < s.duration_dt,
            "optimized {} dt not shorter than standard {} dt",
            o.duration_dt,
            s.duration_dt
        );
    }

    #[test]
    fn parse_errors_surface_with_position() {
        let (device, calibration) = setup(2);
        let err = run_qasm(
            &device,
            &calibration,
            "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n",
            &PipelineConfig::default(),
            &ShotPool::serial(),
        )
        .expect_err("unknown gate must fail");
        match err {
            PipelineError::Parse(e) => assert_eq!(e.line, 3),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn too_wide_circuit_is_a_route_error() {
        let (device, calibration) = setup(2);
        let circuit = crate::generators::qft(4);
        let err = run_circuit(
            &device,
            &calibration,
            &circuit,
            &PipelineConfig::default(),
            &ShotPool::serial(),
        )
        .expect_err("4 logical on 2 physical must fail");
        assert!(matches!(
            err,
            PipelineError::Route(RouteError::TooWide { .. })
        ));
    }
}
