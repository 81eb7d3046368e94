//! The repository benchmark. Three workloads, each timed end to end with
//! tracing off (`--trace 0`) or split layer by layer (`--trace 1`) by
//! calling every layer's public entry point in turn. See `README.md` next
//! to this package for the metrics and how to run it.
//!
//! Usage: `opc-perfbench --workload <compile_corpus|trajectory_wide|service_mix>
//! --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--commit <id>] [--store-dir <dir>]`
//!
//! The last line of standard output is the result object; the line before
//! it records the pinned knobs, core count, thread count and commit.

mod common;
mod compile;
mod inputs;
mod report;
mod service;
mod stages;
mod trajectory;

use common::{json_string, nproc, parse_args, peak_rss_mb, pin_knobs, Ctx, Ledger, Metrics};
use report::{EndToEnd, Layers};

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "compile_corpus" => compile::run,
        "trajectory_wide" => trajectory::run,
        "service_mix" => service::run,
        other => {
            eprintln!("opc-perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let cores = nproc();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        store_dir: args.store_dir.clone(),
        threads: args.threads.unwrap_or(cores),
    };
    let knobs = pin_knobs(ctx.threads);

    let mut ledger = Ledger::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    run(&ctx, &mut ledger, &mut e2e, &mut layers);
    e2e.peak_rss_mb = peak_rss_mb();
    let _ = std::fs::remove_dir_all(&ctx.store_dir);

    let knob_fields: Vec<String> = knobs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {cores}, \
         \"threads\": {}, \"commit\": {}, \"knobs\": {{{}}}}}}}",
        json_string(&args.workload),
        ctx.seed,
        ctx.trace,
        ctx.threads,
        json_string(&args.commit),
        knob_fields.join(", ")
    );
    let mut metrics = Metrics::default();
    if ctx.trace {
        layers.emit(&mut metrics);
    } else {
        e2e.emit(&mut metrics);
    }
    for name in metrics.non_finite() {
        ledger.cross_check(&format!("metric {name} is finite"), false);
    }
    println!("{}", metrics.result_line(&ledger));
}
