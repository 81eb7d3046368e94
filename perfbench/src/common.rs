//! Shared plumbing: knob pinning, statistics, process probes, digests and
//! the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Command-line arguments (`run.py` forwards its own and adds the rest).
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub commit: String,
    /// Directory the benchmark owns for its calibration snapshot store.
    pub store_dir: String,
    /// Pool size override (default: the host's core count).
    pub threads: Option<usize>,
}

/// Mixed into the run seed to derive the held-out second seed each
/// workload's cross-checks run on.
pub const HELD_OUT: u64 = 0x0004_E1D0;

/// What every workload's `run` receives.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the benchmark's own calibration snapshot store.
    pub store_dir: String,
    /// Pool size, service workers and `OPC_THREADS` (default: the host's
    /// core count).
    pub threads: usize,
}

pub fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        store_dir: ".bench_build/perfbench-store".into(),
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--commit" => args.commit = value.clone(),
            "--store-dir" => args.store_dir = value.clone(),
            "--threads" => match value.parse::<usize>() {
                Ok(n) if n > 0 => args.threads = Some(n),
                _ => return Err(bad("a positive integer")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Pins every `OPC_*` knob the called code reads, before any worker thread
/// exists, and returns the pinned values for the output record.
///
/// `OPC_CAL_CACHE=0` keeps service shards from warm-loading a snapshot
/// store left behind by earlier processes; `OPC_THREADS` makes
/// `ShotPool::from_env()` (calibration, service worker defaults) agree
/// with the explicit pool; the remaining knobs sit at their defaults.
pub fn pin_knobs(threads: usize) -> Vec<(&'static str, String)> {
    let pinned = vec![
        ("OPC_CAL_CACHE", "0".to_string()),
        ("OPC_THREADS", threads.to_string()),
        ("OPC_FUSION", "1".to_string()),
        ("OPC_PULSE_CACHE", "1".to_string()),
        ("OPC_PROBE_CACHE", "1".to_string()),
        ("OPC_VERIFY", "1".to_string()),
        ("OPC_OVERSUBSCRIBE", "0".to_string()),
    ];
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    pinned
}

/// Host core count as the standard library reports it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The fastest of repeated timings of one deterministic computation.
/// Interference from other load on a shared host only ever adds time, and
/// it comes in spells of seconds, so the minimum over samples spread
/// across a run is the steadiest estimate of the computation's own cost.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated percentile (`p` in 0..=100). Empty input gives 0.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of optimized/standard schedule lengths over
/// `[standard, optimized]` duration pairs. Pairs where either flow has no
/// schedule at all (a circuit that compiles to frame changes only, or a
/// pair not completed) have no ratio and are skipped.
pub fn duration_ratio_geomean(pairs: &[[u64; 2]]) -> f64 {
    let logs: Vec<f64> = pairs
        .iter()
        .filter(|d| d[0] > 0 && d[1] > 0)
        .map(|d| (d[1] as f64 / d[0] as f64).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Runs `setup` [`SETUPS`] times and, right after set-up `k`, calls
/// `segment(k, &state)`: the `k`-th share of the timed phase runs on the
/// state that set-up built, and that state is dropped before the next
/// set-up starts. The timed work is thereby spread over the whole run
/// rather than one stretch after the set-ups, so a slow spell of a shared
/// host, which lasts seconds to tens of seconds, weighs on every metric
/// about equally. Returns the last state, for the untimed checks after the
/// timed phase, with the median set-up seconds.
pub fn interleaved_setups<T, E>(
    mut setup: impl FnMut() -> Result<T, E>,
    mut segment: impl FnMut(usize, &T),
) -> Result<(T, f64), E> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let state = setup()?;
        secs.push(ms_since(t) / 1e3);
        segment(k, &state);
        last = Some(state);
    }
    let last = last.expect("SETUPS is at least one");
    Ok((last, median(&secs)))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process, all threads, from
/// `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// FNV-1a accumulator for per-unit result digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn words(self, ws: &[u64]) -> Self {
        ws.iter().fold(self, |d, &w| d.word(w))
    }
}

/// Correctness ledger: each unit of work is one attempted operation; a unit
/// that fails any gate is one failed operation. Cross-checks that are not
/// tied to a unit fail the run as a whole.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub cross_check_failures: u64,
}

impl Ledger {
    /// Records one unit. `problems` lists every gate the unit failed.
    pub fn unit(&mut self, label: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {label}: {}", problems.join("; "));
        }
    }

    pub fn cross_check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.cross_check_failures += 1;
            eprintln!("FAILED cross-check: {what}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.cross_check_failures == 0 && self.attempted > 0
    }
}

/// Collects metric values and renders the result line.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.rows.push((name.to_string(), value, unit));
    }

    /// Names of metrics that are NaN or infinite (JSON has no such number).
    pub fn non_finite(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| !r.1.is_finite())
            .map(|r| r.0.as_str())
            .collect()
    }

    /// The result object. Values print in Rust's shortest round-trip form
    /// (`{:?}` always carries a `.` or an exponent); a non-finite value
    /// prints as 0 and must already have failed the run.
    pub fn result_line(&self, ledger: &Ledger) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ledger.correct(),
            ledger.attempted,
            ledger.failed
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
