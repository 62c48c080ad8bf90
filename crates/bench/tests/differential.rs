//! Differential tests: the compiled engine must be bit-identical to the
//! interpreter — signal snapshots **and** `StmtExec` records — on every
//! design in `crates/designs` and a large RVDG-generated corpus, at every
//! supported thread count. The 64-lane batch engine is held to the same
//! oracle: traces extracted from any lane of any batch shape must equal the
//! scalar compiled engine's output bit-for-bit. The tally-based explainer
//! is held to the record-walk explainer it replaced (kept here as an
//! oracle) on catalog campaigns and RVDG designs.

use mutate::{BugBudget, Campaign};
use rvdg::{Generator, RvdgConfig};
use sim::{
    CancelToken, EngineKind, SignalId, SignalRole, SignalSet, SimError, Simulator, TestbenchGen,
    Trace, VerdictTrace,
};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use verilog::Module;

/// Cycles per stimulus; long enough to exercise resets, wrap-around and
/// dirty-set skipping, short enough to keep the corpus fast.
const CYCLES: usize = 48;
/// Independent stimuli per design.
const STIMULI: usize = 3;

/// Runs `module` through both engines on identical stimuli and returns the
/// paired traces. Panics if the compiled simulator silently fell back to the
/// interpreter when `expect_compiled` is set — a silent fallback would make
/// the differential comparison vacuous.
fn run_both(module: &Module, seed: u64, expect_compiled: bool) -> Vec<(Trace, Trace)> {
    let mut compiled = Simulator::new(module).expect("compiled elaboration");
    let mut interp = Simulator::interpreted(module).expect("interpreted elaboration");
    assert_eq!(interp.engine_kind(), EngineKind::Interpreted);
    if expect_compiled {
        assert_eq!(
            compiled.engine_kind(),
            EngineKind::Compiled,
            "design unexpectedly fell back to the interpreter"
        );
    }
    let stimuli = TestbenchGen::new(seed).generate_many(compiled.netlist(), CYCLES, STIMULI);
    stimuli
        .iter()
        .map(|stim| {
            let a = compiled.run(stim).expect("compiled run");
            let b = interp.run(stim).expect("interpreted run");
            (a, b)
        })
        .collect()
}

fn assert_identical(name: &str, pairs: &[(Trace, Trace)]) {
    for (i, (compiled, interp)) in pairs.iter().enumerate() {
        assert_eq!(
            compiled, interp,
            "{name}: stimulus {i} diverged between compiled and interpreted engines"
        );
    }
}

/// Every Table I design, compiled vs interpreted, at 1/2/8 threads.
#[test]
fn designs_catalog_is_bit_identical_across_engines_and_threads() {
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            let results = par::par_map(&designs::catalog(), |d| {
                let module = d.module().expect("design parses");
                (d.name, run_both(&module, 0xD1FF_0001, true))
            });
            for (name, pairs) in &results {
                assert_identical(name, pairs);
            }
        });
    }
}

/// ≥ 100 RVDG-generated designs, compiled vs interpreted, at 1/2/8 threads.
#[test]
fn rvdg_corpus_is_bit_identical_across_engines_and_threads() {
    let corpus = Generator::new(RvdgConfig::default(), 0xC0FF_EE00)
        .generate_corpus(104)
        .expect("rvdg corpus generates");
    assert!(corpus.len() >= 100);
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            let results = par::par_map(&corpus, |d| {
                (d.seed, run_both(&d.module, d.seed ^ 0xD1FF, true))
            });
            for (seed, pairs) in &results {
                assert_identical(&format!("rvdg seed {seed}"), pairs);
            }
        });
    }
}

/// A wider RVDG shape (more branches, wider vectors) to cover part selects,
/// case statements and multi-bit arithmetic beyond the default mix.
#[test]
fn rvdg_wide_corpus_is_bit_identical() {
    let cfg = RvdgConfig {
        num_wide_inputs: 4,
        wide_width: 8,
        num_branches: 5,
        stmts_per_branch: 3,
        ..RvdgConfig::default()
    };
    let corpus = Generator::new(cfg, 0xBEEF_0002)
        .generate_corpus(24)
        .expect("rvdg corpus generates");
    for d in &corpus {
        assert_identical(
            &format!("rvdg-wide seed {}", d.seed),
            &run_both(&d.module, d.seed ^ 0xA5A5, true),
        );
    }
}

/// One end-to-end pass over `corpus`: simulate every design (the returned
/// [`Trace`]s carry both signal snapshots and `StmtExec` records), build the
/// training dataset, and train a model for two epochs. The fingerprint is
/// everything downstream code consumes — traces plus bit-level epoch losses.
fn pipeline_fingerprint(corpus: &[Module]) -> (Vec<Trace>, Vec<u32>) {
    let traces: Vec<Trace> = par::par_map(corpus, |m| {
        let mut s = Simulator::new(m).expect("elaborates");
        let stimuli = TestbenchGen::new(0xAB5)
            .with_hold_probability(0.8)
            .generate_many(s.netlist(), 24, 2);
        // Batch path: the obs on/off comparison below must also hold for
        // the lane-parallel engine, not just the scalar ones.
        s.run_batch(&stimuli).expect("simulates")
    })
    .into_iter()
    .flatten()
    .collect();
    let dataset = Dataset::from_designs(corpus, 7, 24, 2).expect("builds");
    let mut model = VeriBugModel::new(ModelConfig::default());
    let report = train::train(
        &mut model,
        &dataset,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
    )
    .expect("trains");
    let losses = report.epoch_losses.iter().map(|l| l.to_bits()).collect();
    (traces, losses)
}

/// Enabling metrics/span collection must never perturb pipeline results:
/// the obs layer is observation-only (per-thread shards merged by
/// commutative addition, spans off the hot path). Compares traces, exec
/// records, and training losses bit-for-bit between an obs-off run and an
/// obs-on run **inside a live trace** (span-tree capture plus per-trace
/// counter attribution active, as in `veribug serve`) at 1/2/8 threads.
#[test]
fn obs_collection_never_perturbs_results() {
    let corpus: Vec<Module> = Generator::new(RvdgConfig::default(), 0x0B5_D1FF)
        .generate_corpus(6)
        .expect("rvdg corpus generates")
        .into_iter()
        .map(|d| d.module)
        .collect();
    for threads in [1usize, 2, 8] {
        let (off, on) = par::with_threads(threads, || {
            let was_enabled = obs::enabled();
            obs::set_enabled(false);
            let off = pipeline_fingerprint(&corpus);
            obs::set_enabled(true);
            let scope =
                obs::live::begin(&format!("differential-{threads}"), "TEST", "/differential");
            let on = {
                let _span = obs::span("serve.request");
                pipeline_fingerprint(&corpus)
            };
            scope.finish(200);
            obs::set_enabled(was_enabled);
            (off, on)
        });
        assert_eq!(
            off.0, on.0,
            "traces/exec records perturbed by live telemetry at {threads} threads"
        );
        assert_eq!(
            off.1, on.1,
            "training losses perturbed by live telemetry at {threads} threads"
        );
    }
}

/// Runs `n` stimuli through the batch engine and through the scalar compiled
/// engine one at a time, returning the paired trace vectors. Panics if the
/// design unexpectedly lacks a batch engine — that would make the
/// comparison vacuous.
fn run_batch_vs_scalar(module: &Module, seed: u64, n: usize) -> (Vec<Trace>, Vec<Trace>) {
    let mut batch = Simulator::new(module).expect("batch elaboration");
    assert_eq!(
        batch.batch_engine_kind(),
        EngineKind::Batch,
        "design unexpectedly has no batch engine"
    );
    let mut scalar = Simulator::new(module).expect("scalar elaboration");
    let stimuli = TestbenchGen::new(seed).generate_many(batch.netlist(), CYCLES, n);
    let batched = batch.run_batch(&stimuli).expect("batch run");
    let sequential: Vec<Trace> = stimuli
        .iter()
        .map(|st| scalar.run(st).expect("scalar run"))
        .collect();
    (batched, sequential)
}

fn assert_lanes_identical(name: &str, batched: &[Trace], sequential: &[Trace]) {
    assert_eq!(batched.len(), sequential.len(), "{name}: trace count");
    for (i, (b, s)) in batched.iter().zip(sequential).enumerate() {
        assert_eq!(
            b, s,
            "{name}: stimulus {i} diverged between batch and scalar engines"
        );
    }
}

/// Every Table I design, batch vs scalar, at lane counts that cover a single
/// lane, an odd partial batch, both boundary fills (63/64), a spill into a
/// second batch (65), and two full batches plus a partial tail (130).
#[test]
fn batch_engine_matches_scalar_across_lane_counts() {
    for d in &designs::catalog() {
        let module = d.module().expect("design parses");
        for n in [1usize, 7, 63, 64, 65, 130] {
            let (batched, sequential) = run_batch_vs_scalar(&module, 0xBA7C_0001 ^ n as u64, n);
            assert_lanes_identical(&format!("{} n={n}", d.name), &batched, &sequential);
        }
    }
}

/// RVDG corpus, batch vs scalar, under the worker pool at 1/2/8 threads.
/// Each design gets a partial batch (7 lanes) so mask bookkeeping runs with
/// inactive high lanes while other designs simulate concurrently.
#[test]
fn batch_matches_scalar_on_rvdg_corpus_across_threads() {
    let corpus = Generator::new(RvdgConfig::default(), 0xBA7C_0002)
        .generate_corpus(24)
        .expect("rvdg corpus generates");
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            let results = par::par_map(&corpus, |d| {
                (d.seed, run_batch_vs_scalar(&d.module, d.seed ^ 0x7EA7, 7))
            });
            for (seed, (batched, sequential)) in &results {
                assert_lanes_identical(&format!("rvdg seed {seed}"), batched, sequential);
            }
        });
    }
}

/// Cancellation mid-batch: a poll-budget token fires at a deterministic
/// cycle, the whole batch reports `Cancelled` (matching the scalar
/// collect-everything-or-error contract), and the simulator recovers after
/// the token is replaced.
#[test]
fn batch_cancellation_mid_batch_is_deterministic_and_recoverable() {
    let catalog = designs::catalog();
    let module = catalog[0].module().expect("design parses");
    let mut sim = Simulator::new(&module).expect("elaborates");
    let stimuli = TestbenchGen::new(0xCA4C).generate_many(sim.netlist(), CYCLES, 10);
    sim.set_cancel(CancelToken::after_polls(3));
    let err = sim
        .run_batch(&stimuli)
        .expect_err("budget must fire mid-batch");
    assert!(
        matches!(err, SimError::Cancelled { at_cycle: 3 }),
        "expected deterministic cancellation at cycle 3, got {err:?}"
    );
    sim.set_cancel(CancelToken::new());
    let batched = sim.run_batch(&stimuli).expect("rerun after cancel");
    let mut scalar = Simulator::new(&module).expect("elaborates");
    let sequential: Vec<Trace> = stimuli
        .iter()
        .map(|st| scalar.run(st).expect("scalar run"))
        .collect();
    assert_lanes_identical("post-cancel rerun", &batched, &sequential);
}

/// Read-modify-write part/bit selects on a width-64 register under divergent
/// masks: some lanes take the branch that flips bit 63 and rewrites a part
/// select, others take the dynamic-bit-select path. The merged register
/// state and the per-lane `StmtExec` records must match scalar exactly.
#[test]
fn part_select_rmw_at_bit_63_under_divergent_masks() {
    let unit = verilog::parse(
        "module psel(input clk, input c, input [5:0] i, output reg [63:0] r);
         always @(posedge clk) begin
         if (c) begin
         r[63] <= ~r[63];
         r[62:56] <= r[6:0] + 1'b1;
         end else begin
         r[i] <= ~r[i];
         end
         end
endmodule",
    )
    .expect("parses");
    let (batched, sequential) = run_batch_vs_scalar(unit.top(), 0x9E1, 64);
    assert_lanes_identical("psel", &batched, &sequential);
}

/// Mixed-width concatenation feeding full-width and narrow registers, with
/// per-lane shift-in bits, batch vs scalar across a full 64-lane batch.
#[test]
fn mixed_width_concat_across_lanes_matches_scalar() {
    let unit = verilog::parse(
        "module mwc(input clk, input a, input [6:0] b, input [3:0] s,
         output reg [63:0] y, output reg [11:0] z);
         always @(posedge clk) begin
         y <= {y[62:0], a ^ b[0]};
         z <= {b[3:0], s, b[6:3]};
         end
endmodule",
    )
    .expect("parses");
    let (batched, sequential) = run_batch_vs_scalar(unit.top(), 0x3C0C, 64);
    assert_lanes_identical("mwc", &batched, &sequential);
}

/// Every design output, as a verdict-mode observed set.
fn output_set(sim: &Simulator) -> SignalSet {
    SignalSet::from_ids(
        sim.netlist()
            .signals()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role == SignalRole::Output)
            .map(|(i, _)| SignalId(i as u32)),
    )
}

/// The verdict a full trace implies for `observed`: its observed columns,
/// cycle-major. `records_elided` is engine bookkeeping and excluded from
/// `VerdictTrace` equality, so zero is fine here.
fn expected_verdict(trace: &Trace, observed: &SignalSet) -> VerdictTrace {
    VerdictTrace {
        values: trace
            .cycles
            .iter()
            .flat_map(|c| observed.ids().iter().map(|&id| c.value(id)))
            .collect(),
        nobs: observed.len(),
        records_elided: 0,
    }
}

/// Runs `module` in verdict mode on every engine (scalar compiled,
/// interpreter, 64-lane batch) and asserts each verdict equals the observed
/// columns of the full-trace oracle: same values, and therefore the same
/// diverged/first-divergence answers any screen would compute.
fn assert_verdicts_match_full(name: &str, module: &Module, seed: u64, n: usize) {
    let mut sim = Simulator::new(module).expect("compiled elaboration");
    let mut interp = Simulator::interpreted(module).expect("interpreted elaboration");
    let observed = output_set(&sim);
    assert!(!observed.is_empty(), "{name}: design has no outputs");
    let stimuli = TestbenchGen::new(seed).generate_many(sim.netlist(), CYCLES, n);
    let full: Vec<Trace> = stimuli
        .iter()
        .map(|st| sim.run(st).expect("full-trace oracle"))
        .collect();
    for (i, (st, t)) in stimuli.iter().zip(&full).enumerate() {
        let expect = expected_verdict(t, &observed);
        let scalar = sim.run_verdict(st, &observed).expect("scalar verdict");
        assert_eq!(scalar, expect, "{name}: stimulus {i} scalar verdict");
        let interp_v = interp.run_verdict(st, &observed).expect("interp verdict");
        assert_eq!(interp_v, expect, "{name}: stimulus {i} interpreter verdict");
    }
    let batched = sim
        .run_batch_verdict(&stimuli, &observed)
        .expect("batch verdict");
    assert_eq!(batched.len(), full.len(), "{name}: verdict count");
    for (i, (v, t)) in batched.iter().zip(&full).enumerate() {
        assert_eq!(
            v,
            &expected_verdict(t, &observed),
            "{name}: stimulus {i} batch verdict"
        );
    }
}

/// Verdict mode vs the full-trace oracle on every Table I design and an
/// RVDG corpus, under the worker pool at 1/2/8 threads.
#[test]
fn verdict_mode_matches_full_oracle_on_catalog_and_rvdg_across_threads() {
    let corpus = Generator::new(RvdgConfig::default(), 0x7E4D_1C70)
        .generate_corpus(16)
        .expect("rvdg corpus generates");
    for threads in [1usize, 2, 8] {
        par::with_threads(threads, || {
            par::par_map(&designs::catalog(), |d| {
                let module = d.module().expect("design parses");
                assert_verdicts_match_full(d.name, &module, 0x7E4D_0001, 9);
            });
            par::par_map(&corpus, |d| {
                assert_verdicts_match_full(
                    &format!("rvdg seed {}", d.seed),
                    &d.module,
                    d.seed ^ 0x7E4D,
                    7,
                );
            });
        });
    }
}

/// The two-pass campaign (verdict screening, then full traces for kept
/// mutants only) must be bit-identical to the single-pass full-trace
/// oracle at every thread count: same mutants in the same order, same
/// sources and sites, same observability flags, same labels, byte-equal
/// traces, and the same failure cycles.
#[test]
fn two_pass_campaign_is_bit_identical_to_single_pass_across_threads() {
    let module = designs::catalog()[0].module().expect("design parses");
    let target = designs::catalog()[0].targets[0];
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let campaign = Campaign::new(0x2BA55);
    let oracle = campaign
        .run_single_pass(&module, target, &budget)
        .expect("single-pass oracle");
    assert!(!oracle.is_empty(), "oracle campaign produced no mutants");
    for threads in [1usize, 2, 8] {
        let two_pass = par::with_threads(threads, || {
            campaign
                .run(&module, target, &budget)
                .expect("two-pass campaign")
        });
        assert_eq!(two_pass.len(), oracle.len(), "{threads} threads");
        for (a, b) in two_pass.iter().zip(&oracle) {
            assert_eq!(a.source, b.source, "{threads} threads");
            assert_eq!(a.site, b.site, "{threads} threads");
            assert_eq!(a.observable, b.observable, "{threads} threads");
            assert_eq!(a.runs.len(), b.runs.len(), "{threads} threads");
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.label, rb.label, "{threads} threads");
                assert_eq!(ra.trace, rb.trace, "{threads} threads");
                assert_eq!(
                    ra.failure_cycles(),
                    rb.failure_cycles(),
                    "{threads} threads"
                );
            }
        }
    }
}

/// The two-pass localizer must produce the same report at every thread
/// count, and its verdict-derived labels must match what a full-trace
/// cosimulation computes on the same stimuli.
#[test]
fn two_pass_localize_report_is_thread_invariant_and_matches_full_cosim() {
    let golden = verilog::parse(
        "module m(input a, input b, input c, output y);\n\
         wire t;\nassign t = a & b;\nassign y = t | c;\nendmodule",
    )
    .expect("parses")
    .top()
    .clone();
    let buggy = verilog::parse(
        "module m(input a, input b, input c, output y);\n\
         wire t;\nassign t = a | b;\nassign y = t | c;\nendmodule",
    )
    .expect("parses")
    .top()
    .clone();
    let model = VeriBugModel::new(ModelConfig::default());
    let opts = veribug::LocalizeOptions {
        runs: 24,
        cycles: 8,
        ..Default::default()
    };
    let reports: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            par::with_threads(threads, || {
                veribug::localize::run(&model, &golden, &buggy, "y", &opts).expect("localizes")
            })
        })
        .collect();
    let base = &reports[0];
    assert!(base.has_failures(), "a|b vs a&b must diverge");
    for r in &reports[1..] {
        assert_eq!(r.failing_runs, base.failing_runs);
        assert_eq!(r.suspects, base.suspects);
    }
    // The verdict-derived failure labelling must agree with a full-trace
    // cosimulation of the same seeded stimuli.
    let mut golden_sim = Simulator::new(&golden).expect("elaborates");
    let stimuli = TestbenchGen::new(opts.stim_seed)
        .with_hold_probability(opts.hold_probability)
        .generate_many(golden_sim.netlist(), opts.cycles, opts.runs);
    let target = golden_sim.netlist().signal_id("y").expect("target");
    let golden_runs = mutate::golden_traces(&mut golden_sim, &stimuli).expect("golden traces");
    let labelled =
        mutate::cosimulate_against(&golden_runs, target, &buggy, &stimuli).expect("cosimulates");
    let failing = labelled
        .iter()
        .filter(|r| r.label == sim::TraceLabel::Failing)
        .count();
    assert_eq!(base.failing_runs, failing);
    assert_eq!(base.total_runs, labelled.len());
}

/// A static combinational loop must fall back to the interpreter and report
/// `CombinationalLoop` exactly as before.
#[test]
fn comb_loop_falls_back_and_still_errors() {
    let unit = verilog::parse(
        "module loopy(input a, output y);\nwire t;\n\
         assign t = ~y;\nassign y = t & a;\nendmodule",
    )
    .expect("parses");
    let mut sim = Simulator::new(unit.top()).expect("elaborates");
    assert_eq!(sim.engine_kind(), EngineKind::Interpreted);
    let stim = sim::Stimulus {
        vectors: vec![sim::InputVector {
            assigns: vec![("a".into(), 1)],
        }],
    };
    let err = sim.run(&stim).expect_err("oscillating loop must error");
    assert!(matches!(err, sim::SimError::CombinationalLoop { .. }));
}

/// The record-walk explainer the tally path replaced, kept as the
/// reference: it visits every execution record, memoizes attention per
/// (statement, operand values), and builds `F_t`/`C_t` as running f32
/// means per run merged count-weighted across runs.
mod walk_oracle {
    use std::collections::{BTreeMap, HashMap};

    use cdfg::{Cdfg, ConeOfInfluence, Slice, Vdg};
    use sim::{Trace, TraceLabel};
    use veribug::explain::{
        AttentionMap, Explainer, Heatmap, LabelledTrace, StmtAttention, DEFAULT_FAILURE_WINDOW,
    };
    use veribug::features::StatementFeatures;
    use veribug::model::VeriBugModel;
    use veribug::train::{operand_positions, operand_values};
    use verilog::{Module, StmtId};

    pub struct Oracle<'m> {
        model: &'m VeriBugModel,
        features: BTreeMap<StmtId, StatementFeatures>,
        slice: Slice,
        depth: BTreeMap<StmtId, u32>,
        positions: BTreeMap<StmtId, Vec<Option<usize>>>,
        cache: HashMap<(StmtId, Vec<bool>), Vec<f32>>,
    }

    impl<'m> Oracle<'m> {
        pub fn new(model: &'m VeriBugModel, module: &Module, target: &str) -> Self {
            let cdfg = Cdfg::build(module);
            let vdg = Vdg::from_cdfg(module, &cdfg);
            let slice = Slice::of_target_with(&cdfg, &vdg, target);
            let coi = ConeOfInfluence::compute(&vdg, target, 16);
            let mut depth = BTreeMap::new();
            for node in cdfg.nodes() {
                if !slice.contains(node.stmt) {
                    continue;
                }
                let signal_depth = if node.lhs == target {
                    0
                } else {
                    coi.min_cycles.get(&node.lhs).copied().unwrap_or(0)
                };
                let commit_delay = u32::from(node.kind == verilog::AssignKind::NonBlocking);
                depth.insert(node.stmt, signal_depth + commit_delay);
            }
            let features = StatementFeatures::extract_all(module);
            let positions = match sim::Netlist::elaborate(module) {
                Ok(netlist) => features
                    .iter()
                    .map(|(id, f)| (*id, operand_positions(f, &netlist)))
                    .collect(),
                Err(_) => BTreeMap::new(),
            };
            Oracle {
                model,
                features,
                slice,
                depth,
                positions,
                cache: HashMap::new(),
            }
        }

        pub fn attention_map_filtered(
            &mut self,
            traces: &[&Trace],
            keep: impl Fn(StmtId, u32) -> bool,
        ) -> AttentionMap {
            let mut acc: BTreeMap<StmtId, (Vec<String>, Vec<f32>, usize)> = BTreeMap::new();
            for trace in traces {
                for cyc in &trace.cycles {
                    for exec in &cyc.execs {
                        if !self.slice.contains(exec.stmt) || !keep(exec.stmt, cyc.cycle) {
                            continue;
                        }
                        let Some(f) = self.features.get(&exec.stmt) else {
                            continue;
                        };
                        let Some(values) = self
                            .positions
                            .get(&exec.stmt)
                            .and_then(|p| operand_values(p, exec))
                        else {
                            continue;
                        };
                        let model = self.model;
                        let weights = self
                            .cache
                            .entry((exec.stmt, values.clone()))
                            .or_insert_with(|| model.predict(f, &values).1);
                        let slot = acc.entry(exec.stmt).or_insert_with(|| {
                            (
                                f.operands.iter().map(|o| o.name.clone()).collect(),
                                vec![0.0; weights.len()],
                                0,
                            )
                        });
                        for (s, w) in slot.1.iter_mut().zip(weights.iter()) {
                            *s += w;
                        }
                        slot.2 += 1;
                    }
                }
            }
            AttentionMap {
                per_stmt: acc
                    .into_iter()
                    .map(|(id, (operands, sums, count))| {
                        let n = count.max(1) as f32;
                        let weights = sums.into_iter().map(|s| s / n).collect();
                        let att = StmtAttention {
                            operands,
                            weights,
                            count,
                        };
                        (id, att)
                    })
                    .collect(),
            }
        }

        pub fn explain(
            &mut self,
            runs: &[LabelledTrace<'_>],
            threshold: f32,
        ) -> (Heatmap, AttentionMap, AttentionMap) {
            let window = DEFAULT_FAILURE_WINDOW;
            let failing: Vec<&LabelledTrace<'_>> = runs
                .iter()
                .filter(|r| r.label == TraceLabel::Failing)
                .collect();
            let correct: Vec<&Trace> = runs
                .iter()
                .filter(|r| r.label == TraceLabel::Correct)
                .map(|r| r.trace)
                .collect();
            let depth = self.depth.clone();
            let delta = move |stmt: StmtId| depth.get(&stmt).copied().unwrap_or(0);
            let mut f_map = AttentionMap::default();
            for run in &failing {
                let cycles = run.failure_cycles.clone();
                let delta = delta.clone();
                let partial = self.attention_map_filtered(&[run.trace], move |stmt, c| {
                    let d = delta(stmt);
                    cycles.is_empty()
                        || cycles.iter().any(|&k| {
                            let hi = k.saturating_sub(d);
                            c <= hi && hi.saturating_sub(window) <= c
                        })
                });
                merge_maps(&mut f_map, &partial);
            }
            let mut c_map = self.attention_map_filtered(&correct, |_, _| true);
            for run in &failing {
                if run.failure_cycles.is_empty() {
                    continue;
                }
                let cycles = run.failure_cycles.clone();
                let delta = delta.clone();
                let partial = self.attention_map_filtered(&[run.trace], move |stmt, c| {
                    let d = delta(stmt);
                    cycles.iter().all(|&k| {
                        let hi = k.saturating_sub(d);
                        c + window + 1 < hi.max(1) || hi + 2 < c
                    })
                });
                merge_maps(&mut c_map, &partial);
            }
            let heatmap = Explainer::heatmap(&f_map, &c_map, threshold);
            (heatmap, f_map, c_map)
        }

        /// The grouped heatmap: interleaved run groups, each explained on
        /// its own, suspiciousness max-pooled across groups.
        pub fn grouped(
            &mut self,
            runs: &[LabelledTrace<'_>],
            threshold: f32,
            groups: usize,
        ) -> Heatmap {
            let groups = groups.max(1).min(runs.len().max(1));
            let mut combined = Heatmap {
                entries: Default::default(),
                threshold,
            };
            for g in 0..groups {
                let subset: Vec<LabelledTrace<'_>> =
                    runs.iter().skip(g).step_by(groups).cloned().collect();
                if !subset.iter().any(|r| r.label == TraceLabel::Failing) {
                    continue;
                }
                for (stmt, entry) in self.explain(&subset, threshold).0.entries {
                    match combined.entries.get(&stmt) {
                        Some(cur) if entry.suspiciousness <= cur.suspiciousness => {}
                        _ => {
                            combined.entries.insert(stmt, entry);
                        }
                    }
                }
            }
            combined
        }
    }

    fn merge_maps(into: &mut AttentionMap, from: &AttentionMap) {
        for (id, att) in &from.per_stmt {
            match into.per_stmt.get_mut(id) {
                None => {
                    into.per_stmt.insert(*id, att.clone());
                }
                Some(cur) => {
                    let old = cur.count as f32;
                    let new = att.count as f32;
                    let total = old + new;
                    if total == 0.0 {
                        continue;
                    }
                    for (w, nw) in cur.weights.iter_mut().zip(&att.weights) {
                        *w = (*w * old + nw * new) / total;
                    }
                    cur.count += att.count;
                }
            }
        }
    }
}

/// Tolerance between the tally path's f64 means and the oracle's f32
/// running means.
const EXPLAIN_TOL: f32 = 1e-6;

/// [`EXPLAIN_TOL`], widened for a mean over `count` executions by the
/// worst-case rounding of the oracle's f32 running sum, `count · 2⁻²⁴`
/// (weights lie in [0, 1]). Maps over a few hundred executions differ by
/// up to ≈1.5e-6 for that reason alone.
fn mean_tol(count: usize) -> f32 {
    EXPLAIN_TOL.max(count as f32 * f32::EPSILON / 2.0)
}

fn assert_weights_close(what: &str, a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "{what}: operand count");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= tol, "{what}: {a:?} vs {b:?}");
    }
}

fn assert_maps_close(what: &str, a: &veribug::AttentionMap, b: &veribug::AttentionMap) {
    let ids = |m: &veribug::AttentionMap| m.per_stmt.keys().copied().collect::<Vec<_>>();
    assert_eq!(ids(a), ids(b), "{what}: statement set");
    for (id, x) in &a.per_stmt {
        let y = &b.per_stmt[id];
        assert_eq!(x.operands, y.operands, "{what} {id}");
        assert_eq!(x.count, y.count, "{what} {id}: count");
        let tol = mean_tol(x.count);
        assert_weights_close(&format!("{what} {id}"), &x.weights, &y.weights, tol);
    }
}

fn assert_heatmaps_close(what: &str, a: &veribug::Heatmap, b: &veribug::Heatmap) {
    let ids = |h: &veribug::Heatmap| h.entries.keys().copied().collect::<Vec<_>>();
    assert_eq!(ids(a), ids(b), "{what}: heatmap statement set");
    for (id, x) in &a.entries {
        let y = &b.entries[id];
        assert_eq!(x.reason, y.reason, "{what} {id}: reason");
        assert!(
            (x.suspiciousness - y.suspiciousness).abs() <= EXPLAIN_TOL,
            "{what} {id}: suspiciousness {} vs {}",
            x.suspiciousness,
            y.suspiciousness
        );
        let what = format!("{what} {id}");
        assert_weights_close(&what, &x.weights, &y.weights, EXPLAIN_TOL);
    }
    // The ranked order may differ only between statements whose scores
    // tie within the tolerance.
    for (i, (x, y)) in a.ranked().iter().zip(b.ranked()).enumerate() {
        assert!(
            x.0 == y.0 || (x.1 - y.1).abs() <= EXPLAIN_TOL,
            "{what}: rank {i} differs: {x:?} vs {y:?}"
        );
    }
}

/// Explains every observable mutant of `mutants` through the tally path
/// and the record-walk oracle, single-set and grouped. Returns how many
/// mutants were compared.
fn explain_matches_oracle(
    name: &str,
    model: &VeriBugModel,
    mutants: &[mutate::Mutant],
    target: &str,
) -> usize {
    let mut compared = 0;
    for (i, m) in mutants.iter().enumerate().filter(|(_, m)| m.observable) {
        let what = format!("{name} mutant {i}");
        let runs = veribug::coverage::labelled_traces(m);
        let mut ex = veribug::Explainer::new(model, &m.module, target);
        let mut oracle = walk_oracle::Oracle::new(model, &m.module, target);
        let (h, f, c) = ex.explain(&runs, veribug::DEFAULT_THRESHOLD);
        let (oh, of, oc) = oracle.explain(&runs, veribug::DEFAULT_THRESHOLD);
        assert_maps_close(&format!("{what} F_t"), &f, &of);
        assert_maps_close(&format!("{what} C_t"), &c, &oc);
        assert_heatmaps_close(&what, &h, &oh);
        let grouped = veribug::coverage::grouped_heatmap(
            &mut ex,
            &runs,
            veribug::DEFAULT_THRESHOLD,
            veribug::coverage::DEFAULT_RUN_GROUPS,
        );
        let oracle_grouped = oracle.grouped(
            &runs,
            veribug::DEFAULT_THRESHOLD,
            veribug::coverage::DEFAULT_RUN_GROUPS,
        );
        assert_heatmaps_close(&format!("{what} grouped"), &grouped, &oracle_grouped);
        compared += 1;
    }
    compared
}

/// The tally explainer agrees with the record-walk oracle on the campaigns
/// of the four catalog designs: same heatmap statements, suspiciousness
/// and `F_t`/`C_t` weights within 1e-6, identical counts, and the same
/// ranked order up to ties.
#[test]
fn explain_tallies_match_record_walk_on_catalog_campaigns() {
    let model = VeriBugModel::new(ModelConfig::default());
    let budget = BugBudget {
        negation: 2,
        operation: 2,
        misuse: 2,
    };
    let mut compared = 0;
    for (i, d) in designs::catalog().iter().enumerate() {
        let module = d.module().expect("design parses");
        let target = d.targets[0];
        let mutants = Campaign::new(0xE7A1 + i as u64)
            .run(&module, target, &budget)
            .expect("campaign runs");
        compared += explain_matches_oracle(d.name, &model, &mutants, target);
    }
    assert!(compared >= 8, "only {compared} observable catalog mutants");
}

/// The same agreement on 16 RVDG designs, each localized against its
/// first output port.
#[test]
fn explain_tallies_match_record_walk_on_rvdg_designs() {
    let model = VeriBugModel::new(ModelConfig::default());
    let budget = BugBudget {
        negation: 1,
        operation: 1,
        misuse: 1,
    };
    let corpus = Generator::new(RvdgConfig::default(), 0xE7A1_0016)
        .generate_corpus(16)
        .expect("rvdg corpus generates");
    let mut compared = 0;
    for d in &corpus {
        let target = d
            .module
            .ports
            .iter()
            .find(|p| p.dir == verilog::PortDir::Output)
            .expect("rvdg designs have outputs")
            .name
            .clone();
        let mutants = Campaign::new(d.seed)
            .run(&d.module, &target, &budget)
            .expect("campaign runs");
        compared +=
            explain_matches_oracle(&format!("rvdg seed {}", d.seed), &model, &mutants, &target);
    }
    assert!(compared >= 8, "only {compared} observable rvdg mutants");
}

/// Inference through cached operand contexts is bit-identical to the tape
/// `forward` on every statement of the catalog designs.
#[test]
fn cached_context_predict_is_bit_identical_to_tape_forward() {
    let model = VeriBugModel::new(ModelConfig::default());
    let mut g = neuro::Graph::new();
    for d in designs::catalog() {
        let module = d.module().expect("design parses");
        for f in veribug::features::StatementFeatures::extract_all(&module).values() {
            let contexts = model.operand_contexts(f);
            for salt in 0..3 {
                let values: Vec<bool> = (0..f.operand_count())
                    .map(|j| (j * 7 + salt) % 3 == 0)
                    .collect();
                let (class, att) = model.predict_from(&mut g, &contexts, &values);
                let mut tape = neuro::Graph::new();
                let fwd = model.forward(
                    &mut tape,
                    f,
                    &veribug::Sample {
                        values: values.clone(),
                        target: false,
                    },
                );
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&att), bits(&fwd.attention), "{} {}", d.name, f.stmt);
                assert_eq!(class, tape.value(fwd.logits).argmax_row() == 1);
            }
        }
    }
}

/// A statement reading more operands than a 64-bit key holds is explained
/// exactly (spilled keys), identically through both paths.
#[test]
fn statement_with_more_than_64_operands_is_explained_exactly() {
    const OPERANDS: usize = 66;
    // A balanced XOR tree keeps leaf-to-leaf paths short.
    fn tree(names: &[String]) -> String {
        match names {
            [one] => one.clone(),
            _ => {
                let (l, r) = names.split_at(names.len() / 2);
                format!("({} ^ {})", tree(l), tree(r))
            }
        }
    }
    let names: Vec<String> = (0..OPERANDS).map(|i| format!("a{i}")).collect();
    let ports: Vec<String> = names.iter().map(|n| format!("input {n}")).collect();
    let src = format!(
        "module wide({}, output y);\nassign y = {};\nendmodule",
        ports.join(", "),
        tree(&names)
    );
    let module = verilog::parse(&src).expect("parses").top().clone();
    let features = veribug::features::StatementFeatures::extract_all(&module);
    assert!(features.values().any(|f| f.operand_count() > 64));

    let model = VeriBugModel::new(ModelConfig::default());
    let mut sim = Simulator::new(&module).expect("elaborates");
    let stimuli = TestbenchGen::new(0x64).generate_many(sim.netlist(), 3, 2);
    let traces: Vec<Trace> = stimuli
        .iter()
        .map(|s| sim.run(s).expect("simulates"))
        .collect();
    let runs = vec![
        veribug::explain::LabelledTrace::new(sim::TraceLabel::Correct, &traces[0]),
        veribug::explain::LabelledTrace {
            trace: &traces[1],
            label: sim::TraceLabel::Failing,
            failure_cycles: vec![1],
        },
    ];
    let mut ex = veribug::Explainer::new(&model, &module, "y");
    let mut oracle = walk_oracle::Oracle::new(&model, &module, "y");
    let (h, f, c) = ex.explain(&runs, veribug::DEFAULT_THRESHOLD);
    let (oh, of, oc) = oracle.explain(&runs, veribug::DEFAULT_THRESHOLD);
    assert!(
        !f.is_empty() && !c.is_empty(),
        "the wide statement was explained"
    );
    assert_maps_close("wide F_t", &f, &of);
    assert_maps_close("wide C_t", &c, &oc);
    assert_heatmaps_close("wide", &h, &oh);
    // Every execution of the correct run is counted once.
    let tally = ex.tally(&runs[0]);
    let oracle_map = oracle.attention_map_filtered(&[&traces[0]], |_, _| true);
    let executions: u32 = tally.correct.iter().map(|(_, n)| n).sum();
    assert_eq!(
        executions as usize,
        oracle_map.per_stmt.values().map(|a| a.count).sum::<usize>()
    );
}
