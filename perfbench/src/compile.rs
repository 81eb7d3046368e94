//! `compile_corpus`: about a thousand seeded (circuit, flow) compiles per
//! pass — QASM parse → route → `Compiler::compile` → `pulse::verify` — on
//! one cold-calibrated 10-qubit Almaden-like chain, with no execution.

use crate::common::{
    duration_ratio_geomean, fastest, interleaved_setups, percentile, timed, Ctx, Digest, Ledger,
    HELD_OUT, SETUPS,
};
use crate::inputs::{block_len, stratified, Input};
use crate::report::{EndToEnd, Layers};
use crate::stages::{
    cold_calibrate, compile_digest, compile_traced, max_abs_diff, snapshot_load_ms, Stages,
};
use pulse_compiler::{route, CompileMode, Compiled, Compiler, CouplingMap};
use quant_char::hellinger_fidelity;
use quant_circuit::{qasm, Circuit};
use quant_device::{Calibration, DeviceModel, ProbeCache, ShotPool};
use quant_math::{seeded, stream_seed};
use rand::Rng;

const WIDTH: u32 = 10;
/// Five blocks of the 7 × 9 (variant, width) combinations: 630 compiles
/// per pass under the two flows, about 2 × 10³ over a 10-second run.
const BLOCKS: usize = 5;
const MODES: [CompileMode; 2] = [CompileMode::Standard, CompileMode::Optimized];
/// Seconds of compile time one pass takes on the reference host (2-vCPU
/// Xeon VM at 2.1 GHz): a run makes `--seconds / PASS_S` passes, rounded,
/// at least one per set-up. The count is fixed by `--seconds` alone, not by
/// how fast the host runs, because each unit's latency is the fastest of
/// its passes and more passes on a faster spell would lower it further.
const PASS_S: f64 = 3.0;

struct Setup {
    inputs: Vec<Input>,
    device: DeviceModel,
    calibration: Calibration,
    root: u64,
    calibrate_ms: f64,
    probe_hits: u64,
    probe_misses: u64,
}

fn setup(seed: u64, pool: &ShotPool) -> Setup {
    let mut rng = seeded(stream_seed(seed, 0xC0_4105));
    let inputs = stratified(&mut rng, BLOCKS * block_len(2, WIDTH), 2, WIDTH);
    let mut dev_rng = seeded(stream_seed(seed, 0xDE_11CE));
    let device = DeviceModel::almaden_like(WIDTH as usize, &mut dev_rng);
    let root = dev_rng.gen::<u64>();
    let probes = ProbeCache::new();
    let (calibration, calibrate_ms) = cold_calibrate(&device, root, pool, &probes);
    let stats = probes.stats();
    Setup {
        inputs,
        device,
        calibration,
        root,
        calibrate_ms,
        probe_hits: stats.hits,
        probe_misses: stats.misses,
    }
}

/// One compile as a user runs it: the composed entry points.
fn compile_untraced(
    s: &Setup,
    map: &CouplingMap,
    src: &str,
    mode: CompileMode,
) -> Result<(Circuit, usize, Circuit, Compiled, usize), String> {
    let circuit = qasm::parse(src).map_err(|e| format!("parse: {e}"))?;
    let routed = route(&circuit, map).map_err(|e| format!("route: {e}"))?;
    let compiled = Compiler::new(&s.device, &s.calibration, mode)
        .compile(&routed.circuit)
        .map_err(|e| format!("compile: {e}"))?;
    let findings = quant_pulse::verify(&compiled.program.schedule, &s.device.verify_spec()).len();
    Ok((
        circuit,
        routed.swaps_inserted,
        routed.circuit,
        compiled,
        findings,
    ))
}

/// The same compile, one layer at a time. Returns (swaps, compiled,
/// findings); the caller digests them outside the timed span.
fn compile_layered(
    s: &Setup,
    map: &CouplingMap,
    src: &str,
    mode: CompileMode,
    st: &mut Stages,
) -> Result<(usize, Compiled, usize), String> {
    let (circuit, t) = timed(|| qasm::parse(src));
    st.parse_ms += t;
    let circuit = circuit.map_err(|e| format!("parse: {e}"))?;
    st.ops += circuit.len() as f64;
    let (routed, t) = timed(|| route(&circuit, map));
    st.route_ms += t;
    let routed = routed.map_err(|e| format!("route: {e}"))?;
    st.swaps += routed.swaps_inserted as f64;
    let compiled = compile_traced(&s.device, &s.calibration, &routed.circuit, mode, st)?;
    let (findings, t) =
        timed(|| quant_pulse::verify(&compiled.program.schedule, &s.device.verify_spec()).len());
    st.verify_ms += t;
    st.findings += findings as f64;
    Ok((routed.swaps_inserted, compiled, findings))
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger, e2e: &mut EndToEnd, layers: &mut Layers) {
    let (seed, seconds, trace, threads) = (ctx.seed, ctx.seconds, ctx.trace, ctx.threads);
    let store_dir = ctx.store_dir.as_str();
    let pool = ShotPool::new(threads);
    let map = CouplingMap::linear(WIDTH);
    let count = BLOCKS * block_len(2, WIDTH);
    let units: Vec<(usize, CompileMode)> = (0..count)
        .flat_map(|i| MODES.iter().map(move |&m| (i, m)))
        .collect();

    // Timed phase: whole passes over the unit list, split evenly over the
    // set-ups. Pass 0 gates every unit; later passes, on the later set-ups
    // too, must reproduce pass 0's digests. `latencies[u]` holds one entry
    // per pass.
    let passes = ((seconds / PASS_S).round() as usize).max(SETUPS);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut digests: Vec<Digest> = Vec::with_capacity(units.len());
    let mut durations = vec![[0u64; 2]; count];
    let mut fid_opt = Vec::new();
    let mut busy_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut stages = Stages::default();
    let mut traced_units = 0usize;
    let mut pass = 0usize;
    let segment = |k: usize, s: &Setup| {
        while pass < passes * (k + 1) / SETUPS {
            let busy0 = busy_ms;
            for (u, &(i, mode)) in units.iter().enumerate() {
                let input = &s.inputs[i];
                let (out, ms) = timed(|| compile_untraced(s, &map, &input.qasm, mode));
                latencies[u].push(ms);
                busy_ms += ms;
                let label = format!("{} {mode:?}", input.name);
                let (parsed, swaps, routed, compiled, findings) = match out {
                    Ok(o) => o,
                    Err(e) => {
                        ledger.unit(&label, &[e]);
                        if pass == 0 {
                            digests.push(Digest(0));
                        }
                        continue;
                    }
                };
                let digest = compile_digest(swaps, &compiled, findings);
                if pass == 0 {
                    let mut problems = Vec::new();
                    if findings != 0 {
                        problems.push(format!("{findings} verify finding(s)"));
                    }
                    if parsed != input.circuit {
                        problems.push("printed QASM does not parse back to the circuit".into());
                    }
                    let ideal = routed.output_distribution();
                    let basis = compiled.basis.output_distribution();
                    let diff = max_abs_diff(&ideal, &basis);
                    if diff > 1e-9 {
                        problems.push(format!("basis distribution off by {diff:e}"));
                    }
                    ledger.unit(&label, &problems);
                    digests.push(digest);
                    let m = usize::from(mode == CompileMode::Optimized);
                    durations[i][m] = compiled.duration();
                    if mode == CompileMode::Optimized {
                        fid_opt.push(hellinger_fidelity(&ideal, &basis));
                    }
                } else {
                    let same = digests[u] == digest;
                    ledger.unit(
                        &label,
                        &if same {
                            vec![]
                        } else {
                            vec![format!("pass {pass} digest differs from pass 0")]
                        },
                    );
                }
                // The traced twin starts from the same heap state as the
                // untraced compile did.
                drop((parsed, routed, compiled));
                if trace {
                    let mut st = Stages::default();
                    let (layered, ms) =
                        timed(|| compile_layered(s, &map, &input.qasm, mode, &mut st));
                    traced_ms += ms;
                    traced_units += 1;
                    stages.add(&st);
                    ledger.cross_check(
                        &format!("{label}: traced digest equals untraced"),
                        layered.is_ok_and(|(w, c, f)| compile_digest(w, &c, f) == digest),
                    );
                }
            }
            pass += 1;
            eprintln!(
                "compile_corpus: pass {pass} (set-up {k}): {:.1} ms compiling",
                busy_ms - busy0
            );
        }
    };
    let Ok((s, setup_s)) = interleaved_setups(|| Ok::<_, ()>(setup(seed, &pool)), segment) else {
        return;
    };
    e2e.setup_s = setup_s;

    // Held-out seed: a fresh draw through the same gates, untimed.
    let mut rng = seeded(stream_seed(seed ^ HELD_OUT, 0xC0_4105));
    for input in stratified(&mut rng, 8, 2, WIDTH) {
        for mode in MODES {
            let label = format!("held-out {} {mode:?}", input.name);
            match compile_untraced(&s, &map, &input.qasm, mode) {
                Ok((parsed, _, routed, compiled, findings)) => {
                    let diff = max_abs_diff(
                        &routed.output_distribution(),
                        &compiled.basis.output_distribution(),
                    );
                    let ok = findings == 0 && parsed == input.circuit && diff <= 1e-9;
                    ledger.cross_check(&label, ok);
                }
                Err(e) => ledger.cross_check(&format!("{label}: {e}"), false),
            }
        }
    }

    // Each unit's latency is the fastest of its passes, which run after
    // different set-ups, so a slow spell of a shared host during one of
    // them does not set the figure.
    let unit_ms: Vec<f64> = latencies.iter().map(|l| fastest(l)).collect();
    let per_s = unit_ms.len() as f64 / (unit_ms.iter().sum::<f64>() / 1e3);
    let p50 = percentile(&unit_ms, 50.0);
    let p99 = percentile(&unit_ms, 99.0);
    e2e.compiles_per_s = per_s;
    e2e.circuits_per_s = per_s;
    e2e.jobs_per_s = per_s;
    e2e.compile_ms_p50 = p50;
    e2e.compile_ms_p99 = p99;
    e2e.job_ms_p50 = p50;
    e2e.job_ms_p99 = p99;
    e2e.duration_ratio_geomean = duration_ratio_geomean(&durations);
    e2e.fidelity_opt_mean = crate::common::mean(&fid_opt);

    layers.calibrate_ms = s.calibrate_ms;
    layers.probe_hits = s.probe_hits as f64;
    layers.probe_misses = s.probe_misses as f64;
    if trace {
        layers.snapshot_load_ms =
            snapshot_load_ms(store_dir, &[(&s.device, s.root, &s.calibration)]).unwrap_or_else(
                || {
                    ledger.cross_check("snapshot store round trip", false);
                    0.0
                },
            );
        layers.set_stages(&stages, traced_units);
        layers.coverage = stages.total_ms() / busy_ms;
        layers.overhead = traced_ms / busy_ms;
    }
}
