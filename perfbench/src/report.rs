//! The metric sets: every workload fills what it measures, and every
//! metric is emitted on every workload (zero where a layer is not on the
//! workload's path).

use crate::common::Metrics;
use crate::stages::Stages;

/// End-to-end metrics, reported with tracing off.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub compiles_per_s: f64,
    pub compile_ms_p50: f64,
    pub compile_ms_p99: f64,
    pub circuits_per_s: f64,
    pub jobs_per_s: f64,
    pub job_ms_p50: f64,
    pub job_ms_p99: f64,
    pub peak_rss_mb: f64,
    pub duration_ratio_geomean: f64,
    pub fidelity_opt_mean: f64,
}

impl EndToEnd {
    pub fn emit(&self, m: &mut Metrics) {
        m.set("setup_s", self.setup_s, "s");
        m.set("compiles_per_s", self.compiles_per_s, "1/s");
        m.set("compile_ms_p50", self.compile_ms_p50, "ms");
        m.set("compile_ms_p99", self.compile_ms_p99, "ms");
        m.set("circuits_per_s", self.circuits_per_s, "1/s");
        m.set("jobs_per_s", self.jobs_per_s, "1/s");
        m.set("job_ms_p50", self.job_ms_p50, "ms");
        m.set("job_ms_p99", self.job_ms_p99, "ms");
        m.set("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.set(
            "duration_ratio_geomean",
            self.duration_ratio_geomean,
            "ratio",
        );
        m.set("fidelity_opt_mean", self.fidelity_opt_mean, "fidelity");
    }
}

/// Per-layer metrics from the traced run. Stage times and counts are means
/// per traced unit; cache, probe and service counters are totals.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub stages: Stages,
    pub trajectories: f64,
    pub integrate_1q_ms: f64,
    pub integrate_cr_ms: f64,
    pub integrations: f64,
    pub integrate_share: f64,
    pub pool_busy: f64,
    pub pulse_cache_hits: f64,
    pub pulse_cache_misses: f64,
    pub dedup_ratio: f64,
    pub compiles: f64,
    pub batches: f64,
    pub overloads: f64,
    pub wait_ms_p50: f64,
    pub calibrate_ms: f64,
    pub probe_hits: f64,
    pub probe_misses: f64,
    pub snapshot_load_ms: f64,
    pub coverage: f64,
    pub overhead: f64,
}

impl Layers {
    /// Stores per-unit means of the accumulated stage totals.
    pub fn set_stages(&mut self, total: &Stages, units: usize) {
        let k = 1.0 / units.max(1) as f64;
        let s = total;
        self.stages = Stages {
            parse_ms: s.parse_ms * k,
            route_ms: s.route_ms * k,
            passes_ms: s.passes_ms * k,
            translate_ms: s.translate_ms * k,
            lower_ms: s.lower_ms * k,
            verify_ms: s.verify_ms * k,
            ideal_ms: s.ideal_ms * k,
            trajectory_ms: s.trajectory_ms * k,
            density_exec_ms: s.density_exec_ms * k,
            sample_ms: s.sample_ms * k,
            score_ms: s.score_ms * k,
            wire_encode_ms: s.wire_encode_ms * k,
            wire_decode_ms: s.wire_decode_ms * k,
            ops: s.ops * k,
            swaps: s.swaps * k,
            assembly_ops: s.assembly_ops * k,
            basis_ops: s.basis_ops * k,
            pulses: s.pulses * k,
            schedule_dt: s.schedule_dt * k,
            findings: s.findings * k,
        };
    }

    pub fn emit(&self, m: &mut Metrics) {
        let s = &self.stages;
        m.set("circuit.parse_ms", s.parse_ms, "ms");
        m.set("circuit.ops", s.ops, "count");
        m.set("circuit.ideal_ms", s.ideal_ms, "ms");
        m.set("core.route_ms", s.route_ms, "ms");
        m.set("core.swaps", s.swaps, "count");
        m.set("core.passes_ms", s.passes_ms, "ms");
        m.set("core.assembly_ops", s.assembly_ops, "count");
        m.set("core.translate_ms", s.translate_ms, "ms");
        m.set("core.basis_ops", s.basis_ops, "count");
        m.set("core.lower_ms", s.lower_ms, "ms");
        m.set("core.pulses", s.pulses, "count");
        m.set("core.schedule_dt", s.schedule_dt, "dt");
        m.set("pulse.verify_ms", s.verify_ms, "ms");
        m.set("pulse.findings", s.findings, "count");
        m.set("device.trajectory_ms", s.trajectory_ms, "ms");
        m.set("device.trajectories", self.trajectories, "count");
        m.set("device.integrate_1q_ms", self.integrate_1q_ms, "ms");
        m.set("device.integrate_cr_ms", self.integrate_cr_ms, "ms");
        m.set("device.integrations", self.integrations, "count");
        m.set("device.integrate_share", self.integrate_share, "ratio");
        m.set("device.pool_busy", self.pool_busy, "ratio");
        m.set("device.density_exec_ms", s.density_exec_ms, "ms");
        m.set("device.sample_ms", s.sample_ms, "ms");
        m.set("device.pulse_cache_hits", self.pulse_cache_hits, "count");
        m.set(
            "device.pulse_cache_misses",
            self.pulse_cache_misses,
            "count",
        );
        m.set("characterization.score_ms", s.score_ms, "ms");
        m.set("service.dedup_ratio", self.dedup_ratio, "ratio");
        m.set("service.compiles", self.compiles, "count");
        m.set("service.batches", self.batches, "count");
        m.set("service.overloads", self.overloads, "count");
        m.set("service.wait_ms_p50", self.wait_ms_p50, "ms");
        m.set("service.wire_encode_ms", s.wire_encode_ms, "ms");
        m.set("service.wire_decode_ms", s.wire_decode_ms, "ms");
        m.set("device.calibrate_ms", self.calibrate_ms, "ms");
        m.set("device.probe_hits", self.probe_hits, "count");
        m.set("device.probe_misses", self.probe_misses, "count");
        m.set("device.snapshot_load_ms", self.snapshot_load_ms, "ms");
        m.set("trace.coverage", self.coverage, "ratio");
        m.set("trace.overhead", self.overhead, "ratio");
    }
}
