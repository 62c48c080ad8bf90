//! `localize-catalog`: the CLI localization path, one caller.
//!
//! An op parses golden and buggy source and calls `veribug::localize::run`
//! with `LocalizeOptions::default()` (160 runs × 16 cycles) and the
//! fixture model. The op list is every observable mutant of the seeded
//! catalog campaigns, interleaved by design.
//!
//! Why: it is the path `veribug localize` runs. Explain is the largest
//! share of an op, then simulation, then stimulus generation, so explain,
//! model and sim-engine changes all show here.

use mutate::{golden_verdicts, run_lane_groups, screen_with};
use sim::{Simulator, TestbenchGen};
use veribug::coverage::grouped_heatmap;
use veribug::explain::LabelledTrace;
use veribug::localize::{self, LocalizeOptions};
use veribug::model::VeriBugModel;
use veribug::{persist, Explainer};

use crate::harness::{self, Outcome, Quality};
use crate::inputs::{self, LocalizeInput};
use crate::spans::{self, timed, Ledger};
use crate::{stats, Args, SETUP_CHILDREN};

/// Worker fan-out of `veribug-par` inside an op.
pub const THREADS: usize = 1;

/// Ops per second at the nominal probe time; sets the op count of a run
/// (see [`harness::op_budget`]).
const NOMINAL_RATE: f64 = 48.0;

/// Share of an op's time that moves with the host probe (see
/// [`harness::at_nominal`]): fitted 0.84–0.88 over twenty runs.
const HOST_EXPONENT: f64 = 0.9;

/// Fixed per-op suspect fingerprint: statement ids and score bits.
pub type Suspects = Vec<(String, u32)>;

pub fn fingerprint(report: &localize::LocalizeReport) -> Suspects {
    report
        .suspects
        .iter()
        .map(|s| (s.stmt.to_string(), s.suspiciousness.to_bits()))
        .collect()
}

/// One op: parse both sources, then the library call.
pub fn op(model: &VeriBugModel, m: &LocalizeInput) -> Result<localize::LocalizeReport, String> {
    let golden = verilog::parse(m.golden).map_err(|e| e.to_string())?;
    let buggy = verilog::parse(&m.buggy).map_err(|e| e.to_string())?;
    localize::run(
        model,
        golden.top(),
        buggy.top(),
        m.target,
        &LocalizeOptions::default(),
    )
    .map_err(|e| e.to_string())
}

/// Model load through `persist` plus the catalog parse: the CLI's work
/// before its first localization.
fn setup(path: &std::path::Path) -> Result<(VeriBugModel, Vec<verilog::Module>, f64), String> {
    let t = std::time::Instant::now();
    let model = persist::load(path).map_err(|e| e.to_string())?;
    let catalog = designs::catalog()
        .iter()
        .map(|d| d.module().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((model, catalog, t.elapsed().as_secs_f64()))
}

/// A set-up child: `args` is the model file.
pub fn setup_child(args: &[String]) -> Result<(), String> {
    let path = std::path::Path::new(args.first().ok_or("set-up child needs the model file")?);
    harness::setup_child(|| setup(path).map(|(_, _, s)| s))
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cases = inputs::catalog_cases();
    let list = inputs::localize_list(args.seed, &cases)?;
    let (fixture, holdout_acc) = inputs::fixture_model()?;
    let path = inputs::work_file("fixture.model")?;
    persist::save(&fixture, &path).map_err(|e| e.to_string())?;
    let setup_times = harness::setup_in_children(
        &args.workload,
        &[&path.display().to_string()],
        SETUP_CHILDREN,
    );
    let loaded = setup_times.and_then(|t| Ok((t, setup(&path)?.0)));
    inputs::remove_work_file(&path);
    let (setup_times, model) = loaded?;
    out.check(
        persist::content_hash(&model) == persist::content_hash(&fixture),
        "loaded weights equal the fixture's",
    );
    out.fact(
        "weights_hash",
        format!("\"{}\"", persist::content_hash_hex(&model)),
    );
    out.fact("threads", format!("{{\"par\":{THREADS},\"callers\":1}}"));
    out.fact("op_list", list.len().to_string());
    // Whole passes over the list; the first gives the quality figures.
    let ops = harness::op_budget(args.seconds, NOMINAL_RATE, 200, list.len());
    let (tail_p, _) = stats::tail_percentile(ops).expect("ops ≥ 20");

    if args.trace {
        return traced(&model, &list, out);
    }
    let mut quality = Quality::default();
    let mut first: Vec<Suspects> = Vec::new();
    let mut mismatches = 0usize;
    let timed = par::with_threads(THREADS, || {
        harness::closed_loop(ops, |i| {
            let m = &list[i % list.len()];
            let Ok(report) = op(&model, m) else {
                return false;
            };
            let fp = fingerprint(&report);
            if i < list.len() {
                quality.push(harness::rank_of(
                    fp.iter().map(|(s, _)| s.as_str()),
                    &m.bug_stmt,
                ));
                first.push(fp);
            } else if first[i % list.len()] != fp {
                mismatches += 1;
            }
            true
        })
    });
    out.attempted = timed.lat_ms.len();
    out.failed = timed.failed;
    out.check(mismatches == 0, "repeated ops rank the same suspects");
    harness::end_to_end(
        out,
        &setup_times,
        &timed,
        tail_p,
        &quality,
        holdout_acc,
        HOST_EXPONENT,
    );
    Ok(())
}

/// `localize::run`, recomposed from the public calls it makes, with a span
/// around each layer. Mirrors `veribug::localize`'s internal flow; the
/// traced run compares its suspects with the library call's. It supplies
/// span times and the execution-record count of its full traces; the
/// other counts come from the library call.
fn recomposed(
    model: &VeriBugModel,
    m: &LocalizeInput,
    op: u64,
    exec_records: &mut usize,
) -> Result<Suspects, String> {
    let _op = spans::span("op", op);
    let opts = LocalizeOptions::default();
    let (golden, buggy) = timed("verilog.parse", op, || {
        Ok::<_, String>((
            verilog::parse(m.golden).map_err(|e| e.to_string())?,
            verilog::parse(&m.buggy).map_err(|e| e.to_string())?,
        ))
    })?;
    let (mut gs, mut bs) = timed("sim.elaborate", op, || {
        Ok::<_, String>((
            Simulator::new(golden.top()).map_err(|e| e.to_string())?,
            Simulator::new(buggy.top()).map_err(|e| e.to_string())?,
        ))
    })?;
    let target = gs
        .netlist()
        .signal_id(m.target)
        .ok_or_else(|| format!("unknown target {}", m.target))?;
    let stimuli = timed("sim.stimgen", op, || {
        TestbenchGen::new(opts.stim_seed)
            .with_hold_probability(opts.hold_probability)
            .generate_many(gs.netlist(), opts.cycles, opts.runs)
    });
    let verdicts = timed("sim.verdict", op, || {
        let golden_vs = golden_verdicts(&mut gs, &stimuli, target)?;
        screen_with(&mut bs, &golden_vs, target, &stimuli)
    })
    .map_err(|e| e.to_string())?;
    if !verdicts.iter().any(|v| v.diverged()) {
        return Ok(Vec::new());
    }
    let traces = timed("sim.full_trace", op, || run_lane_groups(&mut bs, &stimuli))
        .map_err(|e| e.to_string())?;
    *exec_records += traces
        .iter()
        .flat_map(|t| &t.cycles)
        .map(|c| c.execs.len())
        .sum::<usize>();
    let runs: Vec<LabelledTrace<'_>> = traces
        .iter()
        .zip(&verdicts)
        .map(|(trace, v)| LabelledTrace {
            trace,
            label: v.label(),
            failure_cycles: if v.diverged() {
                v.divergence_cycles.clone()
            } else {
                Vec::new()
            },
        })
        .collect();
    let module = &bs.netlist().module;
    let mut explainer = timed("explain.setup", op, || {
        Explainer::new(model, module, m.target)
    });
    let heatmap = timed("explain.heatmap", op, || {
        grouped_heatmap(&mut explainer, &runs, opts.threshold, opts.run_groups)
    });
    timed("explain.correct_map", op, || {
        explainer.explain(&runs, opts.threshold)
    });
    Ok(heatmap
        .ranked()
        .into_iter()
        .map(|(stmt, s)| (stmt.to_string(), s.to_bits()))
        .collect())
}

/// Median cost of one `VeriBugModel::predict` call over every statement
/// of `module`, in microseconds.
fn predict_probe(model: &VeriBugModel, module: &verilog::Module, salt: usize) -> Vec<f64> {
    veribug::features::StatementFeatures::extract_all(module)
        .values()
        .map(|f| {
            let values: Vec<bool> = (0..f.operands.len())
                .map(|j| (j + salt).is_multiple_of(2))
                .collect();
            let t = std::time::Instant::now();
            std::hint::black_box(model.predict(f, &values));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// One pass over the op list. Each op runs three ways: `localize::run`
/// untraced (obs off) for the overhead baseline, `localize::run` with obs
/// counters on for the program's counts, and the recomposition with spans
/// on for the layer times. The untraced and span-traced runs alternate
/// their order so host drift favours neither.
fn traced(model: &VeriBugModel, list: &[LocalizeInput], out: &mut Outcome) -> Result<(), String> {
    obs::reset();
    let mut exec_records = 0usize;
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let mut faithful = true;
    let mut predict_us = Vec::new();
    let mut failed = 0;
    par::with_threads(THREADS, || {
        for (i, m) in list.iter().enumerate() {
            let mut lib = None;
            let mut rec = None;
            for pass in 0..2 {
                if (pass + i) % 2 == 0 {
                    let t = std::time::Instant::now();
                    lib = Some(op(model, m));
                    untraced_ns += t.elapsed().as_nanos();
                } else {
                    spans::set_enabled(true);
                    let t = std::time::Instant::now();
                    rec = Some(recomposed(model, m, i as u64, &mut exec_records));
                    traced_ns += t.elapsed().as_nanos();
                    spans::set_enabled(false);
                }
            }
            obs::set_enabled(true);
            let counted = op(model, m);
            obs::set_enabled(false);
            match (lib, rec, counted) {
                (Some(Ok(lib)), Some(Ok(rec)), Ok(_)) => faithful &= fingerprint(&lib) == rec,
                _ => failed += 1,
            }
            if let Ok(b) = verilog::parse(&m.buggy) {
                predict_us.extend(predict_probe(model, b.top(), i));
            }
        }
    });
    let snap = obs::snapshot();
    let mut ledger = Ledger::default();
    ledger.add(&spans::take());
    let ops = list.len();
    out.attempted = ops;
    out.failed = failed;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let per_op = |v: f64| v / ops as f64;
    out.metric(
        "verilog.parse_ms",
        ledger.ms_per("verilog.parse", ops),
        "ms",
    );
    out.metric(
        "sim.elaborate_ms",
        ledger.ms_per("sim.elaborate", ops),
        "ms",
    );
    out.metric("sim.stimgen_ms", ledger.ms_per("sim.stimgen", ops), "ms");
    out.metric("sim.verdict_ms", ledger.ms_per("sim.verdict", ops), "ms");
    out.metric(
        "sim.full_trace_ms",
        ledger.ms_per("sim.full_trace", ops),
        "ms",
    );
    out.metric("sim.lane_fill", harness::lane_fill(&snap), "ratio");
    out.metric("sim.exec_records", per_op(exec_records as f64), "count");
    out.metric("sim.runs_verdict", per_op(c("sim.runs_verdict")), "count");
    out.metric("sim.runs_batch", per_op(c("sim.runs_batch")), "count");
    out.metric(
        "sim.records_elided",
        per_op(c("sim.records_elided")),
        "count",
    );
    out.metric(
        "explain.setup_ms",
        ledger.ms_per("explain.setup", ops),
        "ms",
    );
    out.metric(
        "explain.heatmap_ms",
        ledger.ms_per("explain.heatmap", ops),
        "ms",
    );
    out.metric(
        "explain.correct_map_ms",
        ledger.ms_per("explain.correct_map", ops),
        "ms",
    );
    let visited = c("explain.attention_cache_hits") + c("explain.attention_cache_misses");
    let calls = c("explain.attention_cache_misses");
    out.metric("explain.records_visited", per_op(visited), "count");
    out.metric("explain.predict_calls", per_op(calls), "count");
    out.metric("explain.predict_ratio", calls / visited.max(1.0), "ratio");
    out.metric("model.predict_us", stats::median(&predict_us), "us");
    out.metric("op_ms", ledger.ms_per("op", ops), "ms");
    out.metric("unattributed_pct", ledger.unattributed_pct("op"), "%");
    out.metric(
        "tracing_overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
        "%",
    );
    out.metric("traced.faithful", f64::from(u8::from(faithful)), "bool");
    out.fact("layer_split_ms", layer_split(&ledger, ops));
    Ok(())
}

/// The localize layer split beside the reference split measured when the
/// benchmark was designed (2-core host, 47 observable catalog mutants).
fn layer_split(ledger: &Ledger, ops: usize) -> String {
    const REFERENCE: [(&str, f64); 7] = [
        ("explain.heatmap", 11.8),
        ("explain.correct_map", 4.2),
        ("explain.setup", 0.4),
        ("sim.verdict", 3.8),
        ("sim.full_trace", 3.8),
        ("sim.elaborate", 0.9),
        ("sim.stimgen", 3.8),
    ];
    let mut s = String::from("{");
    for (i, (name, reference)) in REFERENCE.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\"{name}\":{{\"measured\":{},\"reference\":{reference}}}",
            ledger.ms_per(name, ops)
        ));
    }
    s.push_str(&format!(
        ",\"op\":{{\"measured\":{},\"reference\":29.0}}}}",
        ledger.ms_per("op", ops)
    ));
    s
}
