//! `campaign-catalog`: mutation campaigns, one caller, no model.
//!
//! Op `i` is `mutate::Campaign::run` on catalog case `i mod 8` (4 designs
//! × 2 targets) with a fixed budget per mutation kind and a campaign seed
//! derived from the workload seed and `i`, so no two ops repeat a seed.
//!
//! What it exercises: per-candidate elaboration, the 64-lane verdict
//! screen and full traces of the kept mutants, all on 40-run stimulus sets
//! (one lane group, 63% full).
//!
//! Why: explain and the model do no work in an op, so an explain change
//! should leave this workload unchanged, while a sim-engine change shows
//! here most. The first eight ops reproduce the campaigns that build the
//! localize op list; their mutants are localized afterwards (untimed) with
//! the fixture model for the quality figures.

use std::collections::BTreeSet;

use cdfg::Slice;
use mutate::{
    any_diverged, apply, cosimulate_with, enumerate_sites, golden_traces, golden_verdicts,
    screen_with, Campaign, Mutant, MutationKind, MutationSite,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sim::{Simulator, TestbenchGen};

use crate::harness::{self, Outcome, Quality};
use crate::inputs::{self, derive, tag, Case, LocalizeInput, LIST_BUDGET};
use crate::localize;
use crate::spans::{self, timed, Ledger};
use crate::{stats, Args, SETUP_CHILDREN};

/// Worker fan-out of `veribug-par` inside an op.
pub const THREADS: usize = 1;

/// Campaigns per second at the nominal probe time; sets the op count of a
/// run (see [`harness::op_budget`]).
const NOMINAL_RATE: f64 = 33.0;

/// Share of an op's time that moves with the host probe (see
/// [`harness::at_nominal`]): fitted 0.91–0.94 over twenty runs, and the
/// spread across seeds is as small at 1.
const HOST_EXPONENT: f64 = 1.0;

/// Candidate sites screened together, as `Campaign::run` does.
const WAVE: usize = 8;

/// Traced ops: two passes over the 8 cases.
const TRACED_OPS: usize = 16;

fn campaign_seed(seed: u64, i: usize) -> u64 {
    derive(seed, tag::CAMPAIGN + i as u64)
}

/// The catalog parse: the only one-time work a campaign needs.
fn setup() -> Result<(Vec<verilog::Module>, f64), String> {
    let t = std::time::Instant::now();
    let catalog = designs::catalog()
        .iter()
        .map(|d| d.module().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((catalog, t.elapsed().as_secs_f64()))
}

fn op(cases: &[Case], seed: u64, i: usize) -> Result<Vec<Mutant>, String> {
    let case = &cases[i % cases.len()];
    Campaign::new(campaign_seed(seed, i))
        .run(&case.module, case.target, &LIST_BUDGET)
        .map_err(|e| e.to_string())
}

/// The identity of a campaign's output: site, source and observability of
/// every kept mutant, in order.
fn identity(mutants: &[Mutant]) -> Vec<(MutationSite, String, bool)> {
    mutants
        .iter()
        .map(|m| (m.site.clone(), m.source.clone(), m.observable))
        .collect()
}

/// A set-up child: the catalog parse.
pub fn setup_child() -> Result<(), String> {
    harness::setup_child(|| setup().map(|(_, s)| s))
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let cases = inputs::catalog_cases();
    out.fact("threads", format!("{{\"par\":{THREADS},\"callers\":1}}"));
    if args.trace {
        return traced(&cases, args.seed, out);
    }
    // The localize op list, built independently: the first pass of ops
    // must reproduce it exactly.
    let list = inputs::localize_list(args.seed, &cases)?;
    let (fixture, holdout_acc) = inputs::fixture_model()?;
    out.fact(
        "weights_hash",
        format!("\"{}\"", veribug::persist::content_hash_hex(&fixture)),
    );
    let setup_times = harness::setup_in_children(&args.workload, &[], SETUP_CHILDREN)?;
    let ops = harness::op_budget(args.seconds, NOMINAL_RATE, 100, cases.len());
    let (tail_p, _) = stats::tail_percentile(ops).expect("ops ≥ 20");
    // Only the first pass's observable mutants are kept, as localize
    // inputs; holding whole mutants (with their traces) would dominate
    // `peak_heap_mb`.
    let mut first_pass: Vec<Vec<LocalizeInput>> = Vec::new();
    let timed = par::with_threads(THREADS, || {
        harness::closed_loop(ops, |i| match op(&cases, args.seed, i) {
            Ok(mutants) => {
                if i < cases.len() {
                    let case = &cases[i];
                    first_pass.push(
                        mutants
                            .into_iter()
                            .filter(|m| m.observable)
                            .map(|m| LocalizeInput {
                                golden: case.source,
                                buggy: m.source,
                                target: case.target,
                                bug_stmt: m.site.stmt.to_string(),
                            })
                            .collect(),
                    );
                } else {
                    std::hint::black_box(mutants);
                }
                true
            }
            Err(_) => false,
        })
    });
    out.attempted = timed.lat_ms.len();
    out.failed = timed.failed;
    // Interleave the first pass's observable mutants by case, as the
    // localize list does, and localize them with the fixture model.
    let mut queues: Vec<std::collections::VecDeque<LocalizeInput>> =
        first_pass.into_iter().map(Into::into).collect();
    let mut produced = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        for q in &mut queues {
            produced.extend(q.pop_front());
        }
    }
    out.check(
        produced.len() == list.len()
            && produced
                .iter()
                .zip(&list)
                .all(|(a, b)| a.buggy == b.buggy && a.bug_stmt == b.bug_stmt),
        "first campaign pass reproduces the localize op list",
    );
    let mut quality = Quality::default();
    par::with_threads(THREADS, || {
        for m in &produced {
            match localize::op(&fixture, m) {
                Ok(r) => quality.push(harness::rank_of(
                    localize::fingerprint(&r).iter().map(|(s, _)| s.as_str()),
                    &m.bug_stmt,
                )),
                Err(e) => out.check(false, &format!("localizing a campaign mutant: {e}")),
            }
        }
    });
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

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// `Campaign::run` with default settings, recomposed from the public calls
/// it makes, with a span around each layer. Mirrors the campaign's
/// internal flow (slice-restricted sites, per-kind seeded shuffle, source
/// dedup, verdict screen, then full traces of kept mutants); the traced
/// run compares its output with the library call's. It only supplies
/// span times: every count comes from the library call.
fn recomposed(
    case: &Case,
    seed: u64,
    op: u64,
) -> Result<Vec<(MutationSite, String, bool)>, String> {
    const CYCLES: usize = 16;
    const RUNS: usize = 40;
    const HOLD: f64 = 0.8;
    let _op = spans::span("op", op);
    let golden = &case.module;
    let (sites, golden_source) = timed("mutate.sites", op, || {
        let slice = Slice::of_target(golden, case.target).stmts;
        (
            enumerate_sites(golden, Some(&slice)),
            verilog::print_module(golden),
        )
    });
    let mut gs =
        timed("sim.elaborate", op, || Simulator::new(golden)).map_err(|e| e.to_string())?;
    let target = gs
        .netlist()
        .signal_id(case.target)
        .ok_or_else(|| format!("unknown target {}", case.target))?;
    let stimuli = timed("sim.stimgen", op, || {
        TestbenchGen::new(seed ^ 0xD1CE_F00D)
            .with_hold_probability(HOLD)
            .generate_many(gs.netlist(), CYCLES, RUNS)
    });
    let golden_vs = timed("sim.verdict", op, || {
        golden_verdicts(&mut gs, &stimuli, target)
    })
    .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept: Vec<(MutationSite, String, Simulator, bool)> = Vec::new();
    for kind in MutationKind::ALL {
        let mut of_kind: Vec<&MutationSite> = sites.iter().filter(|s| s.kind == kind).collect();
        shuffle(&mut of_kind, &mut rng);
        let want = LIST_BUDGET.for_kind(kind);
        let mut produced = 0;
        let mut seen = BTreeSet::new();
        // Sites are screened in waves of WAVE, as the campaign does, so
        // the candidates screened past the budget in a wave count too.
        for wave in of_kind.chunks(WAVE) {
            if produced >= want {
                break;
            }
            let candidates: Vec<_> = wave
                .iter()
                .map(|site| {
                    let (module, source) = timed("mutate.apply", op, || {
                        let module = apply(golden, site)?;
                        let source = verilog::print_module(&module);
                        (source != golden_source).then_some((module, source))
                    })?;
                    let mut sim = timed("sim.elaborate", op, || Simulator::new(&module)).ok()?;
                    let verdicts = timed("sim.verdict", op, || {
                        screen_with(&mut sim, &golden_vs, target, &stimuli)
                    })
                    .ok()?;
                    Some((source, sim, any_diverged(&verdicts)))
                })
                .collect();
            for (site, candidate) in wave.iter().zip(candidates) {
                if produced >= want {
                    break;
                }
                let Some((source, sim, observable)) = candidate else {
                    continue;
                };
                if !seen.insert(source.clone()) {
                    continue;
                }
                kept.push(((*site).clone(), source, sim, observable));
                produced += 1;
            }
        }
    }
    if kept.is_empty() {
        return Ok(Vec::new());
    }
    let golden_runs = timed("sim.full_trace", op, || golden_traces(&mut gs, &stimuli))
        .map_err(|e| e.to_string())?;
    let mut result = Vec::new();
    for (site, source, sim, observable) in kept {
        timed("sim.full_trace", op, || {
            cosimulate_with(&mut sim.fork(), &golden_runs, target, &stimuli)
        })
        .map_err(|e| e.to_string())?;
        result.push((site, source, observable));
    }
    Ok(result)
}

/// Runs [`TRACED_OPS`] ops three ways: `Campaign::run` untraced (obs
/// off) for the overhead baseline, `Campaign::run` with obs counters on
/// for every count, and the recomposition with spans on for the layer
/// times. The untraced and span-traced runs alternate their order.
fn traced(cases: &[Case], seed: u64, out: &mut Outcome) -> Result<(), String> {
    obs::reset();
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let mut faithful = true;
    let mut failed = 0;
    let mut exec_records = 0usize;
    par::with_threads(THREADS, || {
        for i in 0..TRACED_OPS {
            let mut lib = None;
            let mut rec = None;
            for pass in 0..2 {
                if (pass + i) % 2 == 0 {
                    let t = std::time::Instant::now();
                    lib = Some(op(cases, seed, i));
                    untraced_ns += t.elapsed().as_nanos();
                } else {
                    spans::set_enabled(true);
                    let t = std::time::Instant::now();
                    let case = &cases[i % cases.len()];
                    rec = Some(recomposed(case, campaign_seed(seed, i), i as u64));
                    traced_ns += t.elapsed().as_nanos();
                    spans::set_enabled(false);
                }
            }
            obs::set_enabled(true);
            let counted = op(cases, seed, i);
            obs::set_enabled(false);
            match (lib, rec, counted) {
                (Some(Ok(lib)), Some(Ok(rec)), Ok(counted)) => {
                    faithful &= identity(&lib) == rec;
                    exec_records += counted
                        .iter()
                        .flat_map(|m| &m.runs)
                        .flat_map(|r| &r.trace.cycles)
                        .map(|c| c.execs.len())
                        .sum::<usize>();
                }
                _ => failed += 1,
            }
        }
    });
    let snap = obs::snapshot();
    let mut ledger = Ledger::default();
    ledger.add(&spans::take());
    let ops = TRACED_OPS;
    out.attempted = ops;
    out.failed = failed;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let per_op = |v: f64| v / ops as f64;
    // Candidates the campaign's merge step took up: kept, duplicates, and
    // those that failed to elaborate or were no-ops.
    let screened =
        c("campaign.mutants_produced") + c("campaign.duplicates") + c("campaign.skipped");
    out.metric("mutate.campaign_ms", ledger.ms_per("op", ops), "ms");
    out.metric(
        "mutate.sites",
        per_op(c("campaign.sites_enumerated")),
        "count",
    );
    out.metric("mutate.screened", per_op(screened), "count");
    out.metric(
        "mutate.kept",
        per_op(c("campaign.mutants_produced")),
        "count",
    );
    out.metric(
        "mutate.kept_ratio",
        c("campaign.mutants_produced") / screened.max(1.0),
        "ratio",
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
    out.metric("op_ms", ledger.ms_per("op", ops), "ms");
    out.metric("unattributed_pct", ledger.unattributed_pct("op"), "%");
    out.metric(
        "tracing_overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
        "%",
    );
    out.metric("traced.faithful", f64::from(u8::from(faithful)), "bool");
    out.fact(
        "layer_split_ms",
        format!(
            "{{\"mutate.sites\":{},\"mutate.apply\":{},\"sim.elaborate\":{},\"sim.stimgen\":{},\"sim.verdict\":{},\"sim.full_trace\":{},\"op\":{}}}",
            ledger.ms_per("mutate.sites", ops),
            ledger.ms_per("mutate.apply", ops),
            ledger.ms_per("sim.elaborate", ops),
            ledger.ms_per("sim.stimgen", ops),
            ledger.ms_per("sim.verdict", ops),
            ledger.ms_per("sim.full_trace", ops),
            ledger.ms_per("op", ops),
        ),
    );
    Ok(())
}
