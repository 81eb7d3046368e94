//! `trajectory_wide`: eight wide corpus circuits under both flows through
//! `compile_circuit` + `execute_compiled` at 2048 shots and 16
//! trajectories, on one cold-calibrated device per width 7–10 and a pool of
//! `nproc` threads.

use crate::common::{
    cpu_seconds, duration_ratio_geomean, fastest, interleaved_setups, median, ms_since, percentile,
    timed, Ctx, Digest, Ledger, HELD_OUT, SETUPS,
};
use crate::inputs::Input;
use crate::report::{EndToEnd, Layers};
use crate::stages::{
    cold_calibrate, compile_digest, compile_traced, max_abs_diff, replay_integrators,
    snapshot_load_ms, Stages,
};
use pulse_compiler::{route, CompileMode, CouplingMap};
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_circuit::{qasm, Circuit};
use quant_corpus::{
    compile_circuit, execute_compiled, generate, ExecutorKind, PipelineConfig, Tier,
};
use quant_device::{Calibration, DeviceModel, ProbeCache, ShotPool, TrajectoryExecutor};
use quant_math::{seeded, stream_seed};
use rand::Rng;
use std::time::Instant;

const CIRCUITS: [&str; 8] = [
    "qaoa_n7_p1",
    "qaoa_n8_p1",
    "qaoa_n9_p1",
    "qaoa_n10_p1",
    "vqe_n7_d2_s1",
    "vqe_n8_d2_s1",
    "clifford_n7_s1",
    "qft_n7",
];
const WIDTHS: [u32; 4] = [7, 8, 9, 10];
const SHOTS: usize = 2048;
const TRAJECTORIES: usize = 16;
const MODES: [CompileMode; 2] = [CompileMode::Standard, CompileMode::Optimized];
/// Whole passes every run makes, whatever `--seconds` asks for: each
/// unit's latency is the median of at least two runs taken at different
/// points of the run, so the slowest unit (`qft_n7`, which sets
/// `job_ms_p99`) is not one sample of one moment.
const MIN_PASSES: usize = 2;

struct Backend {
    device: DeviceModel,
    calibration: Calibration,
    root: u64,
}

struct Setup {
    inputs: Vec<Input>,
    backends: Vec<Backend>,
    calibrate_ms: f64,
    probe_hits: u64,
    probe_misses: u64,
}

impl Setup {
    fn backend(&self, width: u32) -> &Backend {
        let i = WIDTHS.iter().position(|&w| w == width).unwrap_or(0);
        &self.backends[i]
    }
}

fn setup(seed: u64, pool: &ShotPool) -> Setup {
    let corpus = generate(Tier::Full);
    let inputs = CIRCUITS
        .iter()
        .filter_map(|name| corpus.iter().find(|e| e.name == *name))
        .map(|e| Input::new(e.name.clone(), e.circuit.clone()))
        .collect();
    // One device seed for every width, as the service derives devices from
    // `(kind, width, seed)`: the chains share their leading qubits, so one
    // fresh probe cache serves the four tune-ups.
    let dev_seed = stream_seed(seed, 0xDE_11CE);
    let probes = ProbeCache::new();
    let mut calibrate_ms = 0.0;
    let backends = WIDTHS
        .iter()
        .map(|&w| {
            let mut rng = seeded(dev_seed);
            let device = DeviceModel::almaden_like(w as usize, &mut rng);
            let root = rng.gen::<u64>();
            let (calibration, ms) = cold_calibrate(&device, root, pool, &probes);
            calibrate_ms += ms;
            Backend {
                device,
                calibration,
                root,
            }
        })
        .collect();
    let stats = probes.stats();
    Setup {
        inputs,
        backends,
        calibrate_ms,
        probe_hits: stats.hits,
        probe_misses: stats.misses,
    }
}

fn config(mode: CompileMode, seed: u64) -> PipelineConfig {
    PipelineConfig {
        mode,
        shots: SHOTS,
        seed,
        trajectories: TRAJECTORIES,
        ..PipelineConfig::default()
    }
}

/// What one unit produced, for gates and digests.
struct UnitOut {
    swaps: usize,
    routed: Circuit,
    compiled: pulse_compiler::Compiled,
    findings: usize,
    counts: Vec<u64>,
    fidelity: f64,
    kind: ExecutorKind,
}

impl UnitOut {
    fn digest(&self) -> Digest {
        compile_digest(self.swaps, &self.compiled, self.findings)
            .words(&self.counts)
            .word(self.fidelity.to_bits())
    }
}

/// One unit through the corpus glue, as `run_circuit` composes it plus the
/// explicit re-verify callers make. Returns (output, compile ms).
fn unit_untraced(
    b: &Backend,
    circuit: &Circuit,
    mode: CompileMode,
    seed: u64,
    pool: &ShotPool,
) -> Result<(UnitOut, f64), String> {
    let t = Instant::now();
    let cc =
        compile_circuit(&b.device, &b.calibration, circuit, mode).map_err(|e| e.to_string())?;
    let findings =
        quant_pulse::verify(&cc.compiled.program.schedule, &b.device.verify_spec()).len();
    let compile_ms = ms_since(t);
    let (kind, counts) =
        execute_compiled(&b.device, &cc, &config(mode, seed), pool).map_err(|e| e.to_string())?;
    let ideal = cc.routed.circuit.output_distribution();
    let fidelity = hellinger_fidelity(&ideal, &counts_to_distribution(&counts));
    Ok((
        UnitOut {
            swaps: cc.routed.swaps_inserted,
            routed: cc.routed.circuit,
            compiled: cc.compiled,
            findings,
            counts,
            fidelity,
            kind,
        },
        compile_ms,
    ))
}

/// Per-unit trace extras beyond the stage times.
#[derive(Default)]
struct TraceExtra {
    cpu_s: f64,
    one_q_ms: f64,
    cr_ms: f64,
    integrations: f64,
    replay_ms: f64,
}

/// The same unit, one layer at a time, plus the integrator replay.
fn unit_traced(
    b: &Backend,
    circuit: &Circuit,
    mode: CompileMode,
    seed: u64,
    pool: &ShotPool,
    st: &mut Stages,
    extra: &mut TraceExtra,
) -> Result<Digest, String> {
    st.ops += circuit.len() as f64;
    let (routed, t) = timed(|| {
        let map = CouplingMap::linear(b.device.num_qubits() as u32);
        route(circuit, &map)
    });
    st.route_ms += t;
    let routed = routed.map_err(|e| format!("route: {e}"))?;
    st.swaps += routed.swaps_inserted as f64;
    let compiled = compile_traced(&b.device, &b.calibration, &routed.circuit, mode, st)?;
    let (findings, t) =
        timed(|| quant_pulse::verify(&compiled.program.schedule, &b.device.verify_spec()).len());
    st.verify_ms += t;
    st.findings += findings as f64;
    let cfg = config(mode, seed);
    let exec = TrajectoryExecutor::new(&b.device, cfg.trajectories);
    let cpu0 = cpu_seconds();
    let (counts, t) =
        timed(|| exec.try_run_pooled(&compiled.program, cfg.shots, stream_seed(cfg.seed, 2), pool));
    extra.cpu_s += cpu_seconds() - cpu0;
    st.trajectory_ms += t;
    let counts = counts.map_err(|e| format!("execute: {e}"))?;
    let (ideal, t) = timed(|| routed.circuit.output_distribution());
    st.ideal_ms += t;
    let (fidelity, t) = timed(|| hellinger_fidelity(&ideal, &counts_to_distribution(&counts)));
    st.score_ms += t;
    let (replay, t) = timed(|| replay_integrators(&b.device, &compiled.program.blocks));
    extra.replay_ms += t;
    let replay = replay?;
    let k = cfg.trajectories as f64;
    extra.one_q_ms += replay.one_q_ms * k;
    extra.cr_ms += replay.cr_ms * k;
    extra.integrations += replay.integrations * k;
    Ok(compile_digest(routed.swaps_inserted, &compiled, findings)
        .words(&counts)
        .word(fidelity.to_bits()))
}

/// Milliseconds for one compile with its re-verify, as the unit runs it.
fn time_compile(s: &Setup, circuit: &Circuit, mode: CompileMode) -> f64 {
    let b = s.backend(circuit.num_qubits());
    timed(|| {
        compile_circuit(&b.device, &b.calibration, circuit, mode).map(|cc| {
            quant_pulse::verify(&cc.compiled.program.schedule, &b.device.verify_spec()).len()
        })
    })
    .1
}

/// Every per-unit correctness gate.
fn gates(out: &UnitOut, input: &Input) -> Vec<String> {
    let mut problems = Vec::new();
    if out.findings != 0 {
        problems.push(format!("{} verify finding(s)", out.findings));
    }
    if qasm::parse(&input.qasm).ok().as_ref() != Some(&input.circuit) {
        problems.push("printed QASM does not parse back to the circuit".into());
    }
    let diff = max_abs_diff(
        &out.routed.output_distribution(),
        &out.compiled.basis.output_distribution(),
    );
    if diff > 1e-9 {
        problems.push(format!("basis distribution off by {diff:e}"));
    }
    let total: u64 = out.counts.iter().sum();
    if total != SHOTS as u64 {
        problems.push(format!("counts sum to {total}, not {SHOTS}"));
    }
    if out.kind != ExecutorKind::Trajectory {
        problems.push("did not take the trajectory executor".into());
    }
    problems
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger, e2e: &mut EndToEnd, layers: &mut Layers) {
    let (seed, seconds, trace, threads) = (ctx.seed, ctx.seconds, ctx.trace, ctx.threads);
    let store_dir = ctx.store_dir.as_str();
    let pool = ShotPool::new(threads);
    let units: Vec<(usize, CompileMode)> = (0..CIRCUITS.len())
        .flat_map(|i| MODES.iter().map(move |&m| (i, m)))
        .collect();

    // Timed phase: a queue of unit runs, `MIN_PASSES` whole passes over
    // the unit list, split evenly over the set-ups; after the last set-up
    // further whole passes run until `seconds` of unit latency have
    // accumulated. Pass 0 gates every unit (and, in trace mode, runs its
    // traced twin); later passes, on the later set-ups too, must
    // reproduce pass 0's digests. `latencies[u]` holds one entry per pass.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut compile_ms: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut digests: Vec<Digest> = vec![Digest(0); units.len()];
    let mut durations = vec![[0u64; 2]; CIRCUITS.len()];
    let mut fid_opt = Vec::new();
    let mut busy_ms = 0.0;
    let mut stages = Stages::default();
    let mut extra = TraceExtra::default();
    let mut traced_ms = 0.0;
    let mut traced_base_ms = 0.0;
    let mut traced_units = 0usize;
    let mut queued = 0usize;
    let planned = MIN_PASSES * units.len();
    let segment = |k: usize, s: &Setup| {
        if s.inputs.len() != CIRCUITS.len() {
            ledger.cross_check("every wide circuit is in the corpus", false);
            return;
        }
        let end = planned * (k + 1) / SETUPS;
        loop {
            let done = if k + 1 < SETUPS {
                queued >= end
            } else {
                queued >= end && queued.is_multiple_of(units.len()) && busy_ms >= seconds * 1e3
            };
            if done {
                break;
            }
            let last_of_pass = queued % units.len() == units.len() - 1;
            let (u, pass) = (queued % units.len(), queued / units.len());
            queued += 1;
            let (i, mode) = units[u];
            let input = &s.inputs[i];
            let b = s.backend(input.circuit.num_qubits());
            let unit_seed = stream_seed(seed, u as u64);
            let label = format!("{} {mode:?}", input.name);
            let (out, ms) = timed(|| unit_untraced(b, &input.circuit, mode, unit_seed, &pool));
            let (out, c_ms) = match out {
                Ok(o) => o,
                Err(e) => {
                    ledger.unit(&label, &[e]);
                    continue;
                }
            };
            eprintln!("trajectory_wide: pass {pass} (set-up {k}) {label}: {ms:.1} ms");
            latencies[u].push(ms);
            compile_ms[u].push(c_ms);
            busy_ms += ms;
            // Sixteen compiles a pass are too few for steady compile
            // percentiles: after each unit run, every unit's compile is
            // timed once more (outside the unit latencies), so each unit's
            // compile latency draws on samples spread over the whole run.
            for (v, &(j, m)) in units.iter().enumerate() {
                compile_ms[v].push(time_compile(s, &s.inputs[j].circuit, m));
            }
            let digest = out.digest();
            if pass == 0 {
                ledger.unit(&label, &gates(&out, input));
                digests[u] = digest;
                let m = usize::from(mode == CompileMode::Optimized);
                durations[i][m] = out.compiled.duration();
                if mode == CompileMode::Optimized {
                    fid_opt.push(out.fidelity);
                }
            } else {
                let problems = if digests[u] == digest {
                    vec![]
                } else {
                    vec![format!("pass {pass} digest differs from pass 0")]
                };
                ledger.unit(&label, &problems);
            }
            if trace && pass == 0 {
                let mut st = Stages::default();
                let (layered, t_ms) = timed(|| {
                    unit_traced(
                        b,
                        &input.circuit,
                        mode,
                        unit_seed,
                        &pool,
                        &mut st,
                        &mut extra,
                    )
                });
                // The untraced unit once more after its traced twin: the
                // mean of the runs either side is the wall the split is
                // compared with, so host drift over the pair cancels.
                let (again, ms_after) =
                    timed(|| unit_untraced(b, &input.circuit, mode, unit_seed, &pool));
                traced_ms += t_ms;
                traced_base_ms += (ms + ms_after) / 2.0;
                traced_units += 1;
                stages.add(&st);
                ledger.cross_check(
                    &format!("{label}: traced digest equals untraced"),
                    layered.as_ref().ok() == Some(&digest)
                        && again.is_ok_and(|(o, _)| o.digest() == digest),
                );
            }
            if last_of_pass {
                eprintln!("trajectory_wide: pass {pass}: {busy_ms:.1} ms so far");
            }
        }
    };
    let Ok((s, setup_s)) = interleaved_setups(|| Ok::<_, ()>(setup(seed, &pool)), segment) else {
        return;
    };
    e2e.setup_s = setup_s;

    // Held-out seed and thread-count determinism, untimed: one 7-qubit
    // unit (chosen by the seed) under a second seed, at a pool of 1 and at
    // `nproc`. The narrowest width keeps the serial run short; `qft_n7`,
    // by far the slowest unit, is left out for the same reason.
    let narrow: Vec<usize> = (0..units.len())
        .filter(|&u| {
            let input = &s.inputs[units[u].0];
            input.circuit.num_qubits() == WIDTHS[0] && !input.name.starts_with("qft")
        })
        .collect();
    let u = narrow[(seed % narrow.len() as u64) as usize];
    let (i, mode) = units[u];
    let input = &s.inputs[i];
    let b = s.backend(input.circuit.num_qubits());
    let held_seed = stream_seed(seed ^ HELD_OUT, u as u64);
    let (serial, serial_ms) =
        timed(|| unit_untraced(b, &input.circuit, mode, held_seed, &ShotPool::serial()));
    let (pooled, pooled_ms) = timed(|| unit_untraced(b, &input.circuit, mode, held_seed, &pool));
    eprintln!(
        "trajectory_wide: held-out {} {mode:?}: {serial_ms:.1} ms at 1 thread, \
         {pooled_ms:.1} ms at {threads} ({:.2}x)",
        input.name,
        serial_ms / pooled_ms
    );
    match (serial, pooled) {
        (Ok((one, _)), Ok((many, _))) => {
            let label = format!("held-out {} {mode:?}", input.name);
            let problems = gates(&many, input);
            ledger.cross_check(&format!("{label}: gates {problems:?}"), problems.is_empty());
            ledger.cross_check(
                &format!("{label}: counts at pool 1 equal counts at pool {threads}"),
                one.digest() == many.digest(),
            );
        }
        _ => ledger.cross_check("held-out unit failed to run", false),
    }

    // A unit's compile latency is the fastest of its samples; its unit
    // latency, seconds long and so already an average over its own span,
    // is the median over the passes.
    let unit_compile: Vec<f64> = compile_ms.iter().map(|c| fastest(c)).collect();
    let unit_ms: Vec<f64> = latencies.iter().map(|l| median(l)).collect();
    e2e.compiles_per_s = unit_compile.len() as f64 / (unit_compile.iter().sum::<f64>() / 1e3);
    e2e.compile_ms_p50 = percentile(&unit_compile, 50.0);
    e2e.compile_ms_p99 = percentile(&unit_compile, 99.0);
    e2e.circuits_per_s = unit_ms.len() as f64 / (unit_ms.iter().sum::<f64>() / 1e3);
    e2e.jobs_per_s = e2e.circuits_per_s;
    e2e.job_ms_p50 = percentile(&unit_ms, 50.0);
    e2e.job_ms_p99 = percentile(&unit_ms, 99.0);
    e2e.duration_ratio_geomean = duration_ratio_geomean(&durations);
    e2e.fidelity_opt_mean = crate::common::mean(&fid_opt);

    layers.calibrate_ms = s.calibrate_ms;
    layers.probe_hits = s.probe_hits as f64;
    layers.probe_misses = s.probe_misses as f64;
    if trace {
        let backends: Vec<_> = s
            .backends
            .iter()
            .map(|b| (&b.device, b.root, &b.calibration))
            .collect();
        layers.snapshot_load_ms = snapshot_load_ms(store_dir, &backends).unwrap_or_else(|| {
            ledger.cross_check("snapshot store round trip", false);
            0.0
        });
        layers.set_stages(&stages, traced_units);
        let k = 1.0 / traced_units.max(1) as f64;
        layers.trajectories = TRAJECTORIES as f64;
        layers.integrate_1q_ms = extra.one_q_ms * k;
        layers.integrate_cr_ms = extra.cr_ms * k;
        layers.integrations = extra.integrations * k;
        let pool_ms = stages.trajectory_ms * threads as f64;
        layers.integrate_share = (extra.one_q_ms + extra.cr_ms) / pool_ms;
        layers.pool_busy = extra.cpu_s * 1e3 / pool_ms;
        // Untraced composite wall over the same units (pass 0 times each
        // untraced unit immediately before its traced twin).
        layers.coverage = stages.total_ms() / traced_base_ms;
        layers.overhead = (traced_ms - extra.replay_ms) / traced_base_ms;
    }
}
