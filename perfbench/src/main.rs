//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and how to run it.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it runs the same inputs traced and reports the
//! per-layer ledger instead. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line before
//! it carries the run's context: host facts, thread settings, the tail
//! percentile and its sample count, and the fixture model's weights hash.

mod alloc;
mod campaign;
mod harness;
mod inputs;
mod localize;
mod serve;
mod spans;
mod stats;
mod train;

use std::fmt::Write as _;

use harness::Outcome;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up children per run; `setup_s` is the median of their set-up times
/// (see [`harness::setup_child`]).
pub const SETUP_CHILDREN: usize = 11;

/// Worker fan-out every `veribug-par` call gets unless a workload pins
/// another with `par::with_threads`. It is also the in-request fan-out of
/// the serve workers, which read it from `VERIBUG_THREADS`.
pub const DEFAULT_FANOUT: usize = 1;

pub const WORKLOADS: [&str; 4] = [
    "localize-catalog",
    "campaign-catalog",
    "train-rvdg",
    "serve-mix",
];

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "cpu_ms_per_op",
    "peak_heap_mb",
    "p_at_1",
    "p_at_5",
    "mrr",
    "holdout_acc",
];

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports 0 for it: that layer did no work.
const PER_LAYER: [(&str, &str); 42] = [
    ("verilog.parse_ms", "ms"),
    ("sim.elaborate_ms", "ms"),
    ("sim.stimgen_ms", "ms"),
    ("sim.verdict_ms", "ms"),
    ("sim.full_trace_ms", "ms"),
    ("sim.lane_fill", "ratio"),
    ("sim.exec_records", "count"),
    ("sim.runs_verdict", "count"),
    ("sim.runs_batch", "count"),
    ("sim.records_elided", "count"),
    ("mutate.campaign_ms", "ms"),
    ("mutate.sites", "count"),
    ("mutate.screened", "count"),
    ("mutate.kept", "count"),
    ("mutate.kept_ratio", "ratio"),
    ("explain.setup_ms", "ms"),
    ("explain.heatmap_ms", "ms"),
    ("explain.correct_map_ms", "ms"),
    ("explain.records_visited", "count"),
    ("explain.predict_calls", "count"),
    ("explain.predict_ratio", "ratio"),
    ("model.predict_us", "us"),
    ("train.dataset_ms", "ms"),
    ("train.epoch_ms", "ms"),
    ("train.samples_per_s", "1/s"),
    ("train.adam_step_us", "us"),
    ("serve.request_ms", "ms"),
    ("serve.direct_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.overhead_tail_ms", "ms"),
    ("serve.api_parse_p50_ms", "ms"),
    ("serve.api_parse_tail_ms", "ms"),
    ("serve.render_p50_ms", "ms"),
    ("serve.render_tail_ms", "ms"),
    ("serve.cache_build_p50_ms", "ms"),
    ("serve.cache_build_tail_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "ratio"),
    ("op_ms", "ms"),
    ("unattributed_pct", "%"),
    ("tracing_overhead_pct", "%"),
    // 1 when the traced recomposition reproduced the library call's output.
    ("traced.faithful", "bool"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    obs::json::write_str(&mut out, s);
    out
}

fn main() {
    // Before any thread exists: pins every default fan-out, including the
    // serve workers' in-request fan-out.
    std::env::set_var("VERIBUG_THREADS", DEFAULT_FANOUT.to_string());
    obs::set_quiet(true);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(harness::SETUP_CHILD_FLAG) {
        let rest = &argv[2.min(argv.len())..];
        let result = match argv.get(1).map(String::as_str) {
            Some("localize-catalog") => localize::setup_child(rest),
            Some("campaign-catalog") => campaign::setup_child(),
            Some("train-rvdg") => train::setup_child(rest),
            Some("serve-mix") => serve::setup_child(rest),
            other => Err(format!("no set-up child for {other:?}")),
        };
        if let Err(e) = result {
            eprintln!("perfbench: set-up child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new();
    let result = match args.workload.as_str() {
        "localize-catalog" => localize::run(&args, &mut out),
        "campaign-catalog" => campaign::run(&args, &mut out),
        "train-rvdg" => train::run(&args, &mut out),
        "serve-mix" => serve::run(&args, &mut out),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&n| (n, "")).collect()
    };
    let mut metrics = String::from("{");
    for (i, (name, unit)) in expected.iter().enumerate() {
        let (value, unit) = match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) => (m.value, m.unit),
            None if args.trace => (0.0, *unit),
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is {value}");
            std::process::exit(1);
        }
        let _ = write!(
            metrics,
            "{}{}:{{\"value\":{value},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    metrics.push('}');
    let mut context = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{},\"cpu_model\":{},\"veribug_threads\":{DEFAULT_FANOUT}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
    );
    for (k, v) in &out.context {
        let _ = write!(context, ",{}:{v}", json_str(k));
    }
    context.push('}');
    println!("{{\"context\":{context}}}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload train-rvdg")).is_err());
        assert!(parse_args(&argv("--workload train-rvdg --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train-rvdg --seed 1 --seconds")).is_err());
    }
}
