//! `service_mix`: an in-process `CompileService` with `nproc` workers,
//! driven by two closed-loop clients, each on one loopback TCP connection
//! served by `wire::serve_connection` (the `opc serve` path). Jobs are
//! seeded corpus circuits of width 2–5, routed client-side and sent as
//! QASM at 1000 shots; one job in four repeats an earlier job exactly.

use crate::common::{
    duration_ratio_geomean, fastest, interleaved_setups, ms_since, percentile, timed, Ctx, Digest,
    Ledger, HELD_OUT, SETUPS,
};
use crate::inputs::stratified;
use crate::report::{EndToEnd, Layers};
use crate::stages::{cold_calibrate, compile_traced, max_abs_diff, snapshot_load_ms, Stages};
use pulse_compiler::{route, CompileMode, Compiled, Compiler, CouplingMap};
use quant_char::{counts_to_distribution, hellinger_fidelity};
use quant_circuit::{qasm, Circuit};
use quant_device::{Calibration, DeviceModel, ProbeCache, PulseExecutor, ShotPool};
use quant_math::{seeded, stream_seed};
use quant_service::wire::{self, WireResponse};
use quant_service::{
    CircuitSource, CompileService, DeviceKind, DeviceSpec, JobOutput, JobSpec, ServiceConfig,
    StatsSnapshot,
};
use rand::Rng;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const WIDTHS: [u32; 4] = [2, 3, 4, 5];
const SHOTS: usize = 1000;
const CLIENTS: usize = 2;
/// Jobs generated per client; a run stops at the deadline long before.
const JOBS_PER_CLIENT: usize = 4000;
/// (Standard, Optimized) pairs every client completes whatever the
/// deadline: two blocks of the 7 × 4 (variant, width) combinations, the
/// fixed prefix the deterministic metrics (`duration_ratio_geomean`,
/// `fidelity_opt_mean`) are computed over.
const PREFIX_PAIRS: usize = 56;
/// Repeats copy a job from this many positions back at most, so the
/// original is still in the service's result memo.
const REPEAT_WINDOW: usize = 32;
/// Timed compile replays of every prefix job after each set-up (a job's
/// latency is the fastest of all of them).
const COMPILE_REPLAYS: usize = 3;
/// Fresh jobs the traced run replays layer by layer (the first ones each
/// client completed, in completion order).
const TRACE_REPLAYS: usize = 160;
/// The service's execution stream index (`quant_service` draws jitter from
/// `seeded(stream_seed(job.seed, 0x5eb))`).
const EXEC_STREAM: u64 = 0x5eb;

/// One request in a client's stream.
struct Job {
    spec: JobSpec,
    /// Index of the job this one repeats, or `None` for a fresh job.
    repeat_of: Option<usize>,
    /// The routed circuit the QASM encodes.
    routed: Circuit,
    /// Pair index: fresh jobs come as (Standard, Optimized) pairs on one
    /// circuit.
    pair: usize,
}

fn generate_jobs(seed: u64, client: usize, dev_seed: u64, count: usize) -> Vec<Job> {
    let mut rng = seeded(stream_seed(seed, 0x5E_0000 + client as u64));
    let (lo, hi) = (WIDTHS[0], WIDTHS[WIDTHS.len() - 1]);
    let mut circuits = stratified(&mut rng, count.div_ceil(2), lo, hi).into_iter();
    let mut jobs: Vec<Job> = Vec::with_capacity(count);
    let mut pending_opt: Option<(JobSpec, Circuit, usize)> = None;
    let mut pairs = 0usize;
    while jobs.len() < count {
        let k = jobs.len();
        if k % 4 == 3 {
            let back = rng.gen_range(1..REPEAT_WINDOW.min(k) + 1);
            let orig = jobs[k - back].repeat_of.unwrap_or(k - back);
            jobs.push(Job {
                spec: jobs[orig].spec.clone(),
                repeat_of: Some(orig),
                routed: jobs[orig].routed.clone(),
                pair: jobs[orig].pair,
            });
            continue;
        }
        if let Some((spec, routed, pair)) = pending_opt.take() {
            jobs.push(Job {
                spec,
                repeat_of: None,
                routed,
                pair,
            });
            continue;
        }
        let Some(input) = circuits.next() else { break };
        let width = input.circuit.num_qubits();
        let routed = match route(&input.circuit, &CouplingMap::linear(width)) {
            Ok(r) => r.circuit,
            Err(_) => continue,
        };
        let source = qasm::print(&routed);
        let device = DeviceSpec::new(DeviceKind::Almaden, width, dev_seed);
        let spec = |mode, seed| JobSpec {
            device,
            circuit: CircuitSource::Qasm(source.clone()),
            mode,
            shots: SHOTS,
            seed,
            noisy: true,
        };
        let std_spec = spec(CompileMode::Standard, rng.gen::<u64>());
        let opt_spec = spec(CompileMode::Optimized, rng.gen::<u64>());
        pending_opt = Some((opt_spec, routed.clone(), pairs));
        jobs.push(Job {
            spec: std_spec,
            repeat_of: None,
            routed,
            pair: pairs,
        });
        pairs += 1;
    }
    jobs
}

/// A warm-up job per shard, with a seed no generated job uses.
fn warmup_spec(width: u32, dev_seed: u64) -> JobSpec {
    let mut c = Circuit::new(width);
    c.h(0).cnot(0, 1);
    JobSpec {
        device: DeviceSpec::new(DeviceKind::Almaden, width, dev_seed),
        circuit: CircuitSource::Ir(c),
        mode: CompileMode::Optimized,
        shots: SHOTS,
        seed: u64::MAX,
        noisy: true,
    }
}

struct Setup {
    jobs: Vec<Vec<Job>>,
    service: CompileService,
    listener: TcpListener,
    dev_seed: u64,
}

/// The seed every shard's device (and its client-side replica) derives from.
fn device_seed(seed: u64) -> u64 {
    stream_seed(seed, 0xDE_11CE)
}

fn setup(seed: u64, threads: usize) -> Result<Setup, String> {
    let dev_seed = device_seed(seed);
    let jobs = (0..CLIENTS)
        .map(|c| generate_jobs(seed, c, dev_seed, JOBS_PER_CLIENT))
        .collect();
    let service = CompileService::new(ServiceConfig {
        workers: threads,
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service start: {e}"))?;
    let tickets: Vec<_> = WIDTHS
        .iter()
        .map(|&w| service.submit(warmup_spec(w, dev_seed)))
        .collect();
    for t in tickets {
        t.and_then(|t| t.wait())
            .map_err(|e| format!("warm-up job: {e}"))?;
    }
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback listener: {e}"))?;
    Ok(Setup {
        jobs,
        service,
        listener,
        dev_seed,
    })
}

/// One completed request as the client saw it.
struct Record {
    job: usize,
    ms: f64,
    response: WireResponse,
}

/// Jobs a client must complete before it may stop: through the last job
/// of the deterministic prefix.
fn min_jobs(jobs: &[Job]) -> usize {
    jobs.iter()
        .rposition(|j| j.repeat_of.is_none() && j.pair < PREFIX_PAIRS)
        .map_or(0, |k| k + 1)
}

/// One client's share of a drive segment: its stream from job `start` on,
/// until the deadline, but at least through job `floor - 1`.
fn client(
    addr: std::net::SocketAddr,
    jobs: &[Job],
    start: usize,
    floor: usize,
    deadline: Instant,
) -> io::Result<Vec<Record>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut records = Vec::new();
    for (k, job) in jobs.iter().enumerate().skip(start) {
        if k >= floor && Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        wire::write_request(&mut writer, &job.spec)?;
        writer.flush()?;
        let response = wire::read_response(&mut reader)?;
        records.push(Record {
            job: k,
            ms: ms_since(t),
            response,
        });
    }
    stream.shutdown(Shutdown::Write)?;
    Ok(records)
}

fn serve(listener: &TcpListener, service: &CompileService) -> io::Result<()> {
    let (stream, _) = listener.accept()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    wire::serve_connection(&mut reader, &mut writer, service)
}

/// Runs one segment of the closed-loop phase: client `c` resumes its
/// stream at `starts[c]`; in the `last` segment it also completes the
/// deterministic prefix. Returns per-client records, the wall time and the
/// service counter deltas.
fn drive(
    s: &Setup,
    seconds: f64,
    starts: &[usize],
    last: bool,
) -> Result<(Vec<Vec<Record>>, f64, StatsSnapshot), String> {
    let addr = s
        .listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?;
    let before = s.service.stats();
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(seconds);
    let results = std::thread::scope(|scope| {
        let servers: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| serve(&s.listener, &s.service)))
            .collect();
        let clients: Vec<_> = s
            .jobs
            .iter()
            .zip(starts)
            .map(|(jobs, &start)| {
                let floor = if last { min_jobs(jobs) } else { 0 };
                scope.spawn(move || client(addr, jobs, start, floor, deadline))
            })
            .collect();
        let records: Vec<_> = clients.into_iter().map(|h| h.join()).collect();
        let served: Vec<_> = servers.into_iter().map(|h| h.join()).collect();
        (records, served)
    });
    let wall_ms = ms_since(t);
    let after = s.service.stats();
    let (records, served) = results;
    for r in served {
        match r {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("server connection: {e}")),
            Err(_) => return Err("server thread panicked".into()),
        }
    }
    let mut out = Vec::new();
    for r in records {
        match r {
            Ok(Ok(recs)) => out.push(recs),
            Ok(Err(e)) => return Err(format!("client connection: {e}")),
            Err(_) => return Err("client thread panicked".into()),
        }
    }
    let delta = StatsSnapshot {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        dedup_hits: after.dedup_hits - before.dedup_hits,
        compiles: after.compiles - before.compiles,
        batches: after.batches - before.batches,
        overloads: after.overloads - before.overloads,
    };
    Ok((out, wall_ms, delta))
}

fn same_output(a: &JobOutput, b: &JobOutput) -> bool {
    a.key == b.key
        && a.num_qubits == b.num_qubits
        && a.assembly_qasm == b.assembly_qasm
        && a.duration_dt == b.duration_dt
        && a.pulse_count == b.pulse_count
        && a.counts == b.counts
        && a.fidelity.to_bits() == b.fidelity.to_bits()
}

/// Client-side replicas of the service shards, for the replays.
struct Replica {
    device: DeviceModel,
    calibration: Calibration,
    root: u64,
}

/// Cold-calibrates one replica per shard width, sharing one fresh probe
/// cache as the service's shards do. Returns the replicas, the total
/// tune-up milliseconds and the probe cache's (hits, misses).
fn replicas(dev_seed: u64, pool: &ShotPool) -> (Vec<Replica>, f64, (u64, u64)) {
    let probes = ProbeCache::new();
    let mut calibrate_ms = 0.0;
    let reps = WIDTHS
        .iter()
        .map(|&w| {
            let (device, root) = DeviceSpec::new(DeviceKind::Almaden, w, dev_seed).build();
            let (calibration, ms) = cold_calibrate(&device, root, pool, &probes);
            calibrate_ms += ms;
            Replica {
                device,
                calibration,
                root,
            }
        })
        .collect();
    let stats = probes.stats();
    (reps, calibrate_ms, (stats.hits, stats.misses))
}

fn replica_for(r: &[Replica], width: u32) -> &Replica {
    let i = WIDTHS.iter().position(|&w| w == width).unwrap_or(0);
    &r[i]
}

fn source(spec: &JobSpec) -> &str {
    match &spec.circuit {
        CircuitSource::Qasm(s) => s,
        CircuitSource::Ir(_) => "",
    }
}

/// The service's compile, as `execute` runs it: parse at submit, then
/// `Compiler::compile` and the explicit re-verify.
fn replay_compile(r: &Replica, spec: &JobSpec) -> Result<(usize, Compiled), String> {
    let circuit = qasm::parse(source(spec)).map_err(|e| format!("parse: {e}"))?;
    let compiled = Compiler::new(&r.device, &r.calibration, spec.mode)
        .compile(&circuit)
        .map_err(|e| format!("compile: {e}"))?;
    let findings = quant_pulse::verify(&compiled.program.schedule, &r.device.verify_spec()).len();
    Ok((findings, compiled))
}

/// The whole service computation for one job, composed (untraced).
fn replay_untraced(r: &Replica, spec: &JobSpec) -> Result<Digest, String> {
    let circuit = qasm::parse(source(spec)).map_err(|e| format!("parse: {e}"))?;
    let compiled = Compiler::new(&r.device, &r.calibration, spec.mode)
        .compile(&circuit)
        .map_err(|e| format!("compile: {e}"))?;
    let findings = quant_pulse::verify(&compiled.program.schedule, &r.device.verify_spec()).len();
    let mut rng = seeded(stream_seed(spec.seed, EXEC_STREAM));
    let outcome = PulseExecutor::new(&r.device)
        .try_run(&compiled.program, &mut rng)
        .map_err(|e| format!("execute: {e}"))?;
    let counts = outcome.sample_counts_deterministic(spec.seed, spec.shots);
    let ideal = circuit.output_distribution();
    let fidelity = hellinger_fidelity(&ideal, &counts_to_distribution(&counts));
    Ok(replay_digest(
        findings,
        compiled.duration(),
        &counts,
        fidelity,
    ))
}

/// The same computation, one layer at a time.
fn replay_traced(r: &Replica, spec: &JobSpec, st: &mut Stages) -> Result<Digest, String> {
    let (circuit, t) = timed(|| qasm::parse(source(spec)));
    st.parse_ms += t;
    let circuit = circuit.map_err(|e| format!("parse: {e}"))?;
    st.ops += circuit.len() as f64;
    let compiled = compile_traced(&r.device, &r.calibration, &circuit, spec.mode, st)?;
    let (findings, t) =
        timed(|| quant_pulse::verify(&compiled.program.schedule, &r.device.verify_spec()).len());
    st.verify_ms += t;
    st.findings += findings as f64;
    let (outcome, t) = timed(|| {
        let mut rng = seeded(stream_seed(spec.seed, EXEC_STREAM));
        PulseExecutor::new(&r.device).try_run(&compiled.program, &mut rng)
    });
    st.density_exec_ms += t;
    let outcome = outcome.map_err(|e| format!("execute: {e}"))?;
    let (counts, t) = timed(|| outcome.sample_counts_deterministic(spec.seed, spec.shots));
    st.sample_ms += t;
    let (ideal, t) = timed(|| circuit.output_distribution());
    st.ideal_ms += t;
    let (fidelity, t) = timed(|| hellinger_fidelity(&ideal, &counts_to_distribution(&counts)));
    st.score_ms += t;
    Ok(replay_digest(
        findings,
        compiled.duration(),
        &counts,
        fidelity,
    ))
}

fn replay_digest(findings: usize, duration: u64, counts: &[u64], fidelity: f64) -> Digest {
    Digest::default()
        .words(&[findings as u64, duration])
        .words(counts)
        .word(fidelity.to_bits())
}

/// Encodes and decodes one request/response pair in memory, timing each
/// direction of the wire codec.
fn replay_wire(spec: &JobSpec, out: &JobOutput, st: &mut Stages) -> bool {
    let result = Ok(std::sync::Arc::new(out.clone()));
    let ((req, resp), t) = timed(|| {
        let mut req = Vec::new();
        let mut resp = Vec::new();
        let ok = wire::write_request(&mut req, spec).is_ok()
            && wire::write_response(&mut resp, &result).is_ok();
        (ok.then_some(req), resp)
    });
    st.wire_encode_ms += t;
    let Some(req) = req else { return false };
    let ((a, b), t) = timed(|| {
        (
            wire::read_request(&mut BufReader::new(&req[..])),
            wire::read_response(&mut BufReader::new(&resp[..])),
        )
    });
    st.wire_decode_ms += t;
    matches!(a, Ok(Some(ref s)) if s == spec)
        && matches!(b, Ok(WireResponse::Ok(ref o)) if same_output(o, out))
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger, e2e: &mut EndToEnd, layers: &mut Layers) {
    let (seed, seconds, trace, threads) = (ctx.seed, ctx.seconds, ctx.trace, ctx.threads);
    let store_dir = ctx.store_dir.as_str();

    // Client-side replicas of the shards, untimed. Every fresh job's
    // compile is replayed on them: the replayed basis circuit (the wire
    // carries it as QASM the parser does not accept in the optimized basis)
    // backs the basis-distribution gate once the replay is shown equal to
    // the service's output, and timed replays give the service-path
    // compile latency.
    let pool = ShotPool::new(threads);
    let (reps, calibrate_ms, (probe_hits, probe_misses)) = replicas(device_seed(seed), &pool);

    // Timed phase, split over the set-ups. After each set-up: the compile
    // replays of the prefix jobs (the fresh jobs every run completes),
    // each alone on its replica, then a third of the closed loop on that
    // set-up's service, the clients resuming their streams where the
    // previous segment stopped. A repeat whose original the previous
    // service served is computed afresh by the new one; the repeat gate
    // still holds it to the original's result.
    let mut records: Vec<Vec<Record>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut wall_ms = 0.0;
    let mut delta = StatsSnapshot::default();
    let mut replay_ms: Vec<Vec<f64>> = Vec::new();
    let mut failure: Option<String> = None;
    let segment = |k: usize, s: &Setup| {
        if failure.is_some() {
            return;
        }
        let prefix = s.jobs.iter().flat_map(|jobs| {
            jobs.iter()
                .filter(|j| j.repeat_of.is_none() && j.pair < PREFIX_PAIRS)
        });
        if replay_ms.is_empty() {
            replay_ms = vec![Vec::new(); prefix.clone().count()];
        }
        for _ in 0..COMPILE_REPLAYS {
            for (t, job) in replay_ms.iter_mut().zip(prefix.clone()) {
                let r = replica_for(&reps, job.spec.device.qubits);
                t.push(timed(|| replay_compile(r, &job.spec)).1);
            }
        }
        let starts: Vec<usize> = records
            .iter()
            .map(|recs| recs.last().map_or(0, |r| r.job + 1))
            .collect();
        match drive(s, seconds / SETUPS as f64, &starts, k + 1 == SETUPS) {
            Ok((recs, ms, d)) => {
                for (all, new) in records.iter_mut().zip(recs) {
                    all.extend(new);
                }
                wall_ms += ms;
                delta.submitted += d.submitted;
                delta.completed += d.completed;
                delta.dedup_hits += d.dedup_hits;
                delta.compiles += d.compiles;
                delta.batches += d.batches;
                delta.overloads += d.overloads;
            }
            Err(e) => failure = Some(e),
        }
    };
    let (s, setup_s) = match interleaved_setups(|| setup(seed, threads), segment) {
        Ok(x) => x,
        Err(e) => {
            ledger.cross_check(&format!("setup: {e}"), false);
            return;
        }
    };
    e2e.setup_s = setup_s;
    if let Some(e) = failure {
        ledger.cross_check(&format!("closed loop: {e}"), false);
        return;
    }

    // Gates on every job, untimed.
    let mut latencies = Vec::new();
    let mut fresh: Vec<(&Job, &JobOutput, f64)> = Vec::new();
    let mut prefix_dur: Vec<[u64; 2]> = Vec::new();
    let mut prefix_fid = Vec::new();
    for (c, recs) in records.iter().enumerate() {
        let jobs = &s.jobs[c];
        let mut outputs: Vec<Option<&JobOutput>> = vec![None; jobs.len()];
        let mut pair_dur: Vec<[u64; 2]> = Vec::new();
        for rec in recs {
            latencies.push(rec.ms);
            let job = &jobs[rec.job];
            let label = format!("client {c} job {}", rec.job);
            let out = match &rec.response {
                WireResponse::Ok(out) => out,
                WireResponse::Error(kind, msg) => {
                    ledger.unit(&label, &[format!("service error {kind}: {msg}")]);
                    continue;
                }
            };
            outputs[rec.job] = Some(out);
            let mut problems = Vec::new();
            let total: u64 = out.counts.iter().sum();
            if total != SHOTS as u64 {
                problems.push(format!("counts sum to {total}, not {SHOTS}"));
            }
            match job.repeat_of {
                Some(orig) => {
                    if !outputs[orig].is_some_and(|o| same_output(o, out)) {
                        problems.push(format!("repeat of job {orig} is not bit-identical"));
                    }
                }
                None => {
                    if qasm::parse(source(&job.spec)).ok().as_ref() != Some(&job.routed) {
                        problems.push("printed QASM does not parse back to the circuit".into());
                    }
                    let r = replica_for(&reps, job.spec.device.qubits);
                    match replay_compile(r, &job.spec) {
                        Ok((findings, compiled)) => {
                            if findings != 0 {
                                problems.push(format!("{findings} verify finding(s)"));
                            }
                            if compiled.duration() != out.duration_dt
                                || compiled.pulse_count() != out.pulse_count
                                || qasm::print(&compiled.basis) != out.assembly_qasm
                            {
                                problems.push("replayed compile differs from the service's".into());
                            }
                            let diff = max_abs_diff(
                                &job.routed.output_distribution(),
                                &compiled.basis.output_distribution(),
                            );
                            if diff > 1e-9 {
                                problems.push(format!("basis distribution off by {diff:e}"));
                            }
                        }
                        Err(e) => problems.push(e),
                    }
                    fresh.push((job, out, rec.ms));
                    if job.pair < PREFIX_PAIRS {
                        if pair_dur.len() <= job.pair {
                            pair_dur.resize(job.pair + 1, [0, 0]);
                        }
                        let m = usize::from(job.spec.mode == CompileMode::Optimized);
                        pair_dur[job.pair][m] = out.duration_dt;
                        if job.spec.mode == CompileMode::Optimized {
                            prefix_fid.push(out.fidelity);
                        }
                    }
                }
            }
            ledger.unit(&label, &problems);
        }
        prefix_dur.extend(pair_dur);
    }

    // Service-path compile latency: each prefix job's fastest replay.
    let compile_ms: Vec<f64> = replay_ms.iter().map(|t| fastest(t)).collect();

    let mut stages = Stages::default();
    let mut untraced_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut waits = Vec::new();
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    let traced_jobs = if trace {
        fresh.len().min(TRACE_REPLAYS)
    } else {
        0
    };
    for &(job, out, latency) in &fresh[..traced_jobs] {
        let r = replica_for(&reps, job.spec.device.qubits);
        // Both replays start from an empty pulse cache, so neither reuses
        // the other's integrations (noisy jobs jitter every pulse, so the
        // service's shards see no cross-job reuse either).
        let cache = r.device.pulse_cache();
        cache.invalidate();
        let (plain, u_ms) = timed(|| replay_untraced(r, &job.spec));
        cache.invalidate();
        let before = cache.stats();
        let mut st = Stages::default();
        let (layered, t_ms) = timed(|| replay_traced(r, &job.spec, &mut st));
        let after = cache.stats();
        cache_hits += after.hits - before.hits;
        cache_misses += after.misses - before.misses;
        let wire_ok = replay_wire(&job.spec, out, &mut st);
        ledger.cross_check("wire codec round-trips the job", wire_ok);
        let expected = replay_digest(0, out.duration_dt, &out.counts, out.fidelity);
        ledger.cross_check(
            "traced replay equals untraced replay and the service",
            plain.as_ref().ok() == Some(&expected) && layered.as_ref().ok() == Some(&expected),
        );
        let wire_ms = st.wire_encode_ms + st.wire_decode_ms;
        untraced_ms += u_ms + wire_ms;
        traced_ms += t_ms + wire_ms;
        waits.push(latency - u_ms - wire_ms);
        stages.add(&st);
    }

    // Held-out seed: a short fresh stream through the same gates, on a
    // service with one worker, so results must also be worker-count
    // independent against the replicas.
    let held = generate_jobs(seed ^ HELD_OUT, 0, s.dev_seed, 8);
    let one = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    match one {
        Ok(one) => {
            for job in held.iter().filter(|j| j.repeat_of.is_none()).take(6) {
                let out = one.submit(job.spec.clone()).and_then(|t| t.wait());
                let r = replica_for(&reps, job.spec.device.qubits);
                let ok = match (out, replay_untraced(r, &job.spec)) {
                    (Ok(out), Ok(d)) => {
                        d == replay_digest(0, out.duration_dt, &out.counts, out.fidelity)
                            && out.counts.iter().sum::<u64>() == SHOTS as u64
                    }
                    _ => false,
                };
                ledger.cross_check("held-out job matches its replay", ok);
            }
        }
        Err(e) => ledger.cross_check(&format!("held-out service: {e}"), false),
    }

    let n = latencies.len() as f64;
    e2e.jobs_per_s = n / (wall_ms / 1e3);
    e2e.circuits_per_s = e2e.jobs_per_s;
    e2e.job_ms_p50 = percentile(&latencies, 50.0);
    e2e.job_ms_p99 = percentile(&latencies, 99.0);
    e2e.compiles_per_s = compile_ms.len() as f64 / (compile_ms.iter().sum::<f64>() / 1e3);
    e2e.compile_ms_p50 = percentile(&compile_ms, 50.0);
    e2e.compile_ms_p99 = percentile(&compile_ms, 99.0);
    e2e.duration_ratio_geomean = duration_ratio_geomean(&prefix_dur);
    e2e.fidelity_opt_mean = crate::common::mean(&prefix_fid);

    let requests = (delta.submitted + delta.dedup_hits) as f64;
    layers.dedup_ratio = delta.dedup_hits as f64 / requests.max(1.0);
    layers.compiles = delta.compiles as f64;
    layers.batches = delta.batches as f64;
    layers.overloads = delta.overloads as f64;
    layers.calibrate_ms = calibrate_ms;
    layers.probe_hits = probe_hits as f64;
    layers.probe_misses = probe_misses as f64;
    if trace {
        let backends: Vec<_> = reps
            .iter()
            .map(|r| (&r.device, r.root, &r.calibration))
            .collect();
        layers.snapshot_load_ms = snapshot_load_ms(store_dir, &backends).unwrap_or_else(|| {
            ledger.cross_check("snapshot store round trip", false);
            0.0
        });
        layers.set_stages(&stages, traced_jobs);
        layers.wait_ms_p50 = percentile(&waits, 50.0);
        layers.pulse_cache_hits = cache_hits as f64;
        layers.pulse_cache_misses = cache_misses as f64;
        layers.coverage = stages.total_ms() / untraced_ms;
        layers.overhead = traced_ms / untraced_ms;
    }
}
