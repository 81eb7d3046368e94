//! The layer calls every workload shares, untraced (through the composed
//! public entry points) and traced (one public function per layer, each
//! under its own timer), plus the per-unit result digests that prove both
//! routes computed the same thing.

use crate::common::{timed, Digest};
use pulse_compiler::{
    baseline_optimize, optimize, to_basis, BasisKind, CompileMode, Compiled, LowerOptions, Lowering,
};
use quant_circuit::Circuit;
use quant_device::{
    Block, CalStore, Calibration, CalibrationOptions, DeviceModel, DriveState, ProbeCache, ShotPool,
};
use quant_pulse::Channel;

/// Per-layer milliseconds (and counts) accumulated over traced units.
#[derive(Clone, Debug, Default)]
pub struct Stages {
    pub parse_ms: f64,
    pub route_ms: f64,
    pub passes_ms: f64,
    pub translate_ms: f64,
    pub lower_ms: f64,
    pub verify_ms: f64,
    pub ideal_ms: f64,
    pub trajectory_ms: f64,
    pub density_exec_ms: f64,
    pub sample_ms: f64,
    pub score_ms: f64,
    pub wire_encode_ms: f64,
    pub wire_decode_ms: f64,
    pub ops: f64,
    pub swaps: f64,
    pub assembly_ops: f64,
    pub basis_ops: f64,
    pub pulses: f64,
    pub schedule_dt: f64,
    pub findings: f64,
}

impl Stages {
    /// Sum of every timed stage: the numerator of `trace.coverage`.
    pub fn total_ms(&self) -> f64 {
        self.parse_ms
            + self.route_ms
            + self.passes_ms
            + self.translate_ms
            + self.lower_ms
            + self.verify_ms
            + self.ideal_ms
            + self.trajectory_ms
            + self.density_exec_ms
            + self.sample_ms
            + self.score_ms
            + self.wire_encode_ms
            + self.wire_decode_ms
    }

    pub fn add(&mut self, o: &Stages) {
        self.parse_ms += o.parse_ms;
        self.route_ms += o.route_ms;
        self.passes_ms += o.passes_ms;
        self.translate_ms += o.translate_ms;
        self.lower_ms += o.lower_ms;
        self.verify_ms += o.verify_ms;
        self.ideal_ms += o.ideal_ms;
        self.trajectory_ms += o.trajectory_ms;
        self.density_exec_ms += o.density_exec_ms;
        self.sample_ms += o.sample_ms;
        self.score_ms += o.score_ms;
        self.wire_encode_ms += o.wire_encode_ms;
        self.wire_decode_ms += o.wire_decode_ms;
        self.ops += o.ops;
        self.swaps += o.swaps;
        self.assembly_ops += o.assembly_ops;
        self.basis_ops += o.basis_ops;
        self.pulses += o.pulses;
        self.schedule_dt += o.schedule_dt;
        self.findings += o.findings;
    }
}

/// The compiler's stage breakdown, called layer by layer with the exact
/// mode mapping `Compiler::compile` uses. Records passes, translate and
/// lower times (lowering includes its built-in verify pass).
pub fn compile_traced(
    device: &DeviceModel,
    calibration: &Calibration,
    circuit: &Circuit,
    mode: CompileMode,
    st: &mut Stages,
) -> Result<Compiled, String> {
    let (assembly, t) = timed(|| match mode {
        CompileMode::Standard => baseline_optimize(circuit),
        CompileMode::Optimized => optimize(circuit),
    });
    st.passes_ms += t;
    let (kind, options) = match mode {
        CompileMode::Standard => (
            BasisKind::Standard,
            LowerOptions {
                pulse_cancellation: false,
            },
        ),
        CompileMode::Optimized => (
            BasisKind::Augmented,
            LowerOptions {
                pulse_cancellation: true,
            },
        ),
    };
    let (basis, t) = timed(|| to_basis(&assembly, kind));
    st.translate_ms += t;
    let (program, t) = timed(|| Lowering::new(device, calibration, options).lower(&basis));
    st.lower_ms += t;
    let program = program.map_err(|e| format!("lower: {e}"))?;
    let compiled = Compiled {
        assembly,
        basis,
        program,
    };
    st.assembly_ops += compiled.assembly.len() as f64;
    st.basis_ops += compiled.basis.len() as f64;
    st.pulses += compiled.pulse_count() as f64;
    st.schedule_dt += compiled.duration() as f64;
    Ok(compiled)
}

/// Digest of everything a compile produced that later stages consume.
pub fn compile_digest(swaps: usize, compiled: &Compiled, findings: usize) -> Digest {
    let mut d = Digest::default().words(&[
        swaps as u64,
        compiled.assembly.len() as u64,
        compiled.basis.len() as u64,
        compiled.duration(),
        compiled.pulse_count() as u64,
        compiled.program.blocks.len() as u64,
        findings as u64,
    ]);
    for op in compiled.basis.ops() {
        d = d.bytes(format!("{op:?}").as_bytes());
    }
    d
}

/// Largest absolute difference between two distributions of equal length
/// (infinite when the lengths differ).
pub fn max_abs_diff(p: &[f64], q: &[f64]) -> f64 {
    if p.len() != q.len() {
        return f64::INFINITY;
    }
    p.iter()
        .zip(q)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// A cold tune-up: no snapshot store, a caller-supplied (fresh) probe
/// cache, an explicit pool. Returns the calibration and its milliseconds.
pub fn cold_calibrate(
    device: &DeviceModel,
    root: u64,
    pool: &ShotPool,
    probes: &ProbeCache,
) -> (Calibration, f64) {
    timed(|| {
        Calibration::run_seeded_with(
            device,
            &CalibrationOptions::default(),
            root,
            &CalStore::disabled(),
            pool,
            probes,
        )
    })
}

/// Persists each (device, root, calibration) to a store the benchmark owns,
/// one subdirectory per device, then times warm loads from it: the median
/// of five loads per device, summed over the devices. `None` when a store
/// cannot round-trip.
pub fn snapshot_load_ms(dir: &str, backends: &[(&DeviceModel, u64, &Calibration)]) -> Option<f64> {
    let mut total = 0.0;
    for (k, &(device, root, calibration)) in backends.iter().enumerate() {
        let store = CalStore::at(format!("{dir}/d{k}"));
        let key = quant_device::snapshot_key(device, &CalibrationOptions::default(), root);
        store.save(key, calibration);
        let mut loads = Vec::new();
        for _ in 0..5 {
            let (cal, ms) = timed(|| store.load(key, device));
            cal?;
            loads.push(ms);
        }
        total += crate::common::median(&loads);
    }
    Some(total)
}

/// Integrator replay totals for one program, unscaled (one pass).
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub one_q_ms: f64,
    pub cr_ms: f64,
    pub integrations: f64,
}

/// Replays a program's waveforms through `Transmon::integrate_play` and its
/// CR schedules through `CrPair::integrate`, once each — the per-trajectory
/// integration work of the trajectory executor, without the jitter draws.
pub fn replay_integrators(device: &DeviceModel, blocks: &[Block]) -> Result<Replay, String> {
    let mut r = Replay::default();
    for block in blocks {
        match block {
            Block::Gate1Q { qubit, waveforms } => {
                let transmon = device.transmon_exec(*qubit);
                for wave in waveforms {
                    let (_, t) = timed(|| {
                        let mut state = DriveState::default();
                        transmon.integrate_play(&mut state, wave)
                    });
                    r.one_q_ms += t;
                    r.integrations += 1.0;
                }
            }
            Block::Gate2Q {
                control,
                target,
                schedule,
            } => {
                let pair = device
                    .pair_exec(*control, *target)
                    .ok_or_else(|| format!("uncoupled pair {control}->{target}"))?;
                let u_ch = device
                    .control_channel(*control, *target)
                    .ok_or_else(|| format!("no control channel {control}->{target}"))?;
                let (_, t) = timed(|| {
                    pair.integrate(
                        schedule,
                        Channel::Drive(*control),
                        Channel::Drive(*target),
                        u_ch,
                    )
                });
                r.cr_ms += t;
                r.integrations += 1.0;
            }
            Block::Idle { .. } => {}
        }
    }
    Ok(r)
}
