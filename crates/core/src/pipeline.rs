//! The compile→execute spine every front end runs through (`opc compile`
//! and the corpus via `quant_corpus`, which adds scoring, and the
//! service). It alone decides routing (onto a chain as wide as the
//! circuit, capped at the device), the executor (density up to
//! [`PipelineConfig::density_max_qubits`], trajectories above) and the
//! seed lanes: density jitter from `stream_seed(seed,`
//! [`DENSITY_JITTER_LANE`]`)`, density sampling from `seed` itself, the
//! trajectory root from `stream_seed(seed,` [`TRAJECTORY_ROOT_LANE`]`)`.
//! Counts are a pure function of `(device, calibration, circuit,
//! config)`, bit-identical at any pool size.

use crate::{route, CompileMode, Compiled, Compiler, CouplingMap, LowerError, RouteError, Routed};
use quant_circuit::{qasm, Circuit};
use quant_device::{
    Calibration, DeviceModel, ExecError, PulseExecutor, ShotPool, TrajectoryExecutor,
};
use quant_math::{seeded, stream_seed};

/// The [`stream_seed`] lane density-matrix execution draws its pulse
/// jitter from. Density sampling uses the config seed itself.
pub const DENSITY_JITTER_LANE: u64 = 0x5eb;

/// The [`stream_seed`] lane the trajectory executor's root is drawn from.
pub const TRAJECTORY_ROOT_LANE: u64 = 2;

/// Any failure along the pipeline, tagged by stage.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The QASM frontend rejected the program.
    Parse(qasm::QasmError),
    /// Routing failed (circuit wider than the device, or disconnected).
    Route(RouteError),
    /// Lowering to pulses failed.
    Lower(LowerError),
    /// Execution failed (topology mismatch).
    Exec(ExecError),
    /// A noiseless run too wide for the density-matrix executor (the
    /// trajectory executor has no noiseless mode).
    NoiselessTooWide {
        /// Width of the routed program.
        qubits: u32,
        /// The configured density-matrix ceiling.
        density_max_qubits: u32,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse: {e}"),
            PipelineError::Route(e) => write!(f, "route: {e}"),
            PipelineError::Lower(e) => write!(f, "lower: {e}"),
            PipelineError::Exec(e) => write!(f, "execute: {e}"),
            PipelineError::NoiselessTooWide {
                qubits,
                density_max_qubits,
            } => write!(
                f,
                "execute: noiseless runs take at most {density_max_qubits} qubits, got {qubits}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<qasm::QasmError> for PipelineError {
    fn from(e: qasm::QasmError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<RouteError> for PipelineError {
    fn from(e: RouteError) -> Self {
        PipelineError::Route(e)
    }
}

impl From<LowerError> for PipelineError {
    fn from(e: LowerError) -> Self {
        PipelineError::Lower(e)
    }
}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

/// Which simulation backend executed the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Full density-matrix evolution (exact noise, O(4ⁿ); small registers).
    Density,
    /// Stochastic state-vector trajectories (wide registers).
    Trajectory,
}

impl ExecutorKind {
    /// Stable lower-case name used in reports and golden files.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Density => "density",
            ExecutorKind::Trajectory => "trajectory",
        }
    }
}

/// Pipeline knobs; the default is every front end's job default.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Gate-level (`Standard`) vs pulse-level (`Optimized`) compilation.
    pub mode: CompileMode,
    /// Measurement shots to sample.
    pub shots: usize,
    /// Root seed; jitter, sampling, and trajectory streams are derived
    /// from it on the lanes named in the module docs.
    pub seed: u64,
    /// Apply the device noise model (trajectories are always noisy, so a
    /// noiseless run past `density_max_qubits` is an error).
    pub noisy: bool,
    /// Widest register the density path will take; wider programs run as
    /// trajectories. O(4ⁿ) memory makes 6 the practical ceiling.
    pub density_max_qubits: u32,
    /// Trajectory count for the wide path.
    pub trajectories: usize,
    /// Route both executors through their retained reference
    /// implementations (slow; equivalence tests only).
    pub reference: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            mode: CompileMode::Optimized,
            shots: 2048,
            seed: 7,
            noisy: true,
            density_max_qubits: 6,
            trajectories: 16,
            reference: false,
        }
    }
}

/// The compile half of the pipeline: a routed physical circuit plus its
/// pulse program. Produced by [`compile_circuit`], consumed by
/// [`execute_compiled`] — split so callers (the corpus report) can put a
/// wall-clock around compilation alone.
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    /// The routed physical circuit and layout.
    pub routed: Routed,
    /// Every compilation stage (assembly, basis circuit, pulse program).
    pub compiled: Compiled,
}

/// Routes a logical circuit onto the device's linear chain (the
/// Almaden-like model couples neighbors only) and compiles it to pulses.
/// A circuit narrower than its device keeps its own register.
pub fn compile_circuit(
    device: &DeviceModel,
    calibration: &Calibration,
    circuit: &Circuit,
    mode: CompileMode,
) -> Result<CompiledCircuit, PipelineError> {
    let width = circuit.num_qubits().min(device.num_qubits() as u32);
    let routed = route(circuit, &CouplingMap::linear(width))?;
    let compiler = Compiler::new(device, calibration, mode);
    let compiled = compiler.compile(&routed.circuit)?;
    Ok(CompiledCircuit { routed, compiled })
}

/// Executes a compiled circuit. Registers up to
/// `config.density_max_qubits` wide go through exact density-matrix
/// evolution; wider ones through pool-parallel trajectories with an
/// explicit root seed.
pub fn execute_compiled(
    device: &DeviceModel,
    cc: &CompiledCircuit,
    config: &PipelineConfig,
    pool: &ShotPool,
) -> Result<(ExecutorKind, Vec<u64>), PipelineError> {
    let program = &cc.compiled.program;
    let width = cc.routed.circuit.num_qubits();
    if width <= config.density_max_qubits {
        let mut exec = if config.noisy {
            PulseExecutor::new(device)
        } else {
            PulseExecutor::noiseless(device)
        };
        if config.reference {
            exec = exec.with_reference_path();
        }
        let mut jitter = seeded(stream_seed(config.seed, DENSITY_JITTER_LANE));
        let outcome = exec.try_run(program, &mut jitter)?;
        let counts = outcome.sample_counts_deterministic(config.seed, config.shots);
        Ok((ExecutorKind::Density, counts))
    } else if !config.noisy {
        Err(PipelineError::NoiselessTooWide {
            qubits: width,
            density_max_qubits: config.density_max_qubits,
        })
    } else {
        let mut exec = TrajectoryExecutor::new(device, config.trajectories);
        if config.reference {
            exec = exec.with_reference_path();
        }
        let root = stream_seed(config.seed, TRAJECTORY_ROOT_LANE);
        let counts = exec.try_run_pooled(program, config.shots, root, pool)?;
        Ok((ExecutorKind::Trajectory, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_device::calibrate;

    #[test]
    fn noiseless_past_the_density_wall_is_an_error() {
        // A 2-qubit program against a 1-qubit density wall stands in for
        // a wide register without calibrating a wide device.
        let mut rng = seeded(71);
        let device = DeviceModel::almaden_like(2, &mut rng);
        let calibration = calibrate(&device, &mut rng);
        let mut bell = Circuit::new(2);
        bell.h(0).cnot(0, 1);
        let cc = compile_circuit(&device, &calibration, &bell, CompileMode::Optimized)
            .expect("bell compiles");
        let narrow_wall = PipelineConfig {
            density_max_qubits: 1,
            trajectories: 2,
            shots: 64,
            ..PipelineConfig::default()
        };
        let noiseless = PipelineConfig {
            noisy: false,
            ..narrow_wall.clone()
        };
        let pool = ShotPool::serial();
        assert_eq!(
            execute_compiled(&device, &cc, &noiseless, &pool)
                .expect_err("no noiseless trajectories"),
            PipelineError::NoiselessTooWide {
                qubits: 2,
                density_max_qubits: 1,
            }
        );
        let (kind, counts) =
            execute_compiled(&device, &cc, &narrow_wall, &pool).expect("noisy trajectories run");
        assert_eq!(kind, ExecutorKind::Trajectory);
        assert_eq!(counts.iter().sum::<u64>(), 64);
    }
}
