//! Explanation generation (paper Sec. IV-D): attention maps, aggregated
//! maps `F_t`/`C_t`, suspiciousness scores, and the final heatmap `H_t`.

use std::collections::BTreeMap;

use crate::features::StatementFeatures;
use crate::model::{OperandContexts, VeriBugModel};
use crate::train::operand_positions;
use cdfg::{Cdfg, ConeOfInfluence, Slice, Vdg};
use neuro::Graph;
use sim::{Trace, TraceLabel};
use verilog::{Module, StmtId};

/// The default suspiciousness threshold (paper: 0.10).
pub const DEFAULT_THRESHOLD: f32 = 0.10;

/// How many cycles before a target divergence still count as
/// "failure-relevant" when aggregating failing-trace attention. Covers
/// sequential propagation from a buggy register update to the output.
pub const DEFAULT_FAILURE_WINDOW: u32 = 1;

/// One trace with its label and (for failing traces) the cycles where the
/// target output diverged from the golden design.
#[derive(Debug, Clone)]
pub struct LabelledTrace<'t> {
    /// The (mutant) trace to analyze.
    pub trace: &'t Trace,
    /// Failing (`T_f`) or correct (`T_c`).
    pub label: TraceLabel,
    /// Divergence cycles, when known. Empty means "unknown": the whole
    /// failing trace is aggregated (the paper's plain trace-level scheme).
    pub failure_cycles: Vec<u32>,
}

impl<'t> LabelledTrace<'t> {
    /// Wraps a trace with a label and no divergence information.
    pub fn new(label: TraceLabel, trace: &'t Trace) -> Self {
        LabelledTrace {
            trace,
            label,
            failure_cycles: Vec::new(),
        }
    }
}

/// Per-statement aggregated attention: mean operand importance over every
/// execution seen in one trace set.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StmtAttention {
    /// Operand names, aligned with `weights`.
    pub operands: Vec<String>,
    /// Mean attention weight per operand.
    pub weights: Vec<f32>,
    /// Number of executions averaged.
    pub count: usize,
}

/// An aggregated attention map over a set of traces (the paper's `F_t` or
/// `C_t`).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct AttentionMap {
    /// Mean attention per statement in the dynamic slice.
    pub per_stmt: BTreeMap<StmtId, StmtAttention>,
}

impl AttentionMap {
    /// True when no statement was observed.
    pub fn is_empty(&self) -> bool {
        self.per_stmt.is_empty()
    }
}

/// Why a statement entered the heatmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SuspicionReason {
    /// Present only in failing traces.
    OnlyInFailing,
    /// Present in both; attention differs above the threshold.
    DivergentAttention,
}

/// One heatmap entry: a candidate buggy statement with its `F_t` weights.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HeatmapEntry {
    /// Operand names, aligned with `weights`.
    pub operands: Vec<String>,
    /// The failing-trace importance scores (copied from `F_t`).
    pub weights: Vec<f32>,
    /// The suspiciousness score `d(F_t(l), C_t(l))` (1.0 for statements
    /// absent from `C_t`).
    pub suspiciousness: f32,
    /// Why the statement is in the heatmap.
    pub reason: SuspicionReason,
}

/// The final heatmap `H_t`: candidate buggy statements only.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Heatmap {
    /// Heatmap entries by statement.
    pub entries: BTreeMap<StmtId, HeatmapEntry>,
    /// The threshold used.
    pub threshold: f32,
}

impl Heatmap {
    /// The statement with the highest suspiciousness, if any. Ties break
    /// toward the lowest statement id (deterministic).
    pub fn top1(&self) -> Option<StmtId> {
        self.entries
            .iter()
            .max_by(|a, b| {
                a.1.suspiciousness
                    .total_cmp(&b.1.suspiciousness)
                    .then(b.0.cmp(a.0))
            })
            .map(|(id, _)| *id)
    }

    /// Statements ranked by decreasing suspiciousness.
    pub fn ranked(&self) -> Vec<(StmtId, f32)> {
        let mut v: Vec<(StmtId, f32)> = self
            .entries
            .iter()
            .map(|(id, e)| (*id, e.suspiciousness))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Number of candidate statements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing crossed the threshold.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Version of the explanation algorithm. Bump it whenever a change can
/// move any attention weight or ranking, so stored results keyed by it
/// (the `accuracy_bench` artifact-store replay) are recomputed instead of
/// replayed. Version 2: per-run tallies with f64 count-weighted means.
pub const ALGORITHM_VERSION: u32 = 2;

/// The operand truth bits of one execution: bit `j` is operand `j` of the
/// statement's features. Ordered so tallies sort deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum OperandBits {
    /// Statements with at most 64 operands (all but pathological ones).
    Narrow(u64),
    /// Wider statements: one word per 64 operands, spilled to the heap.
    Wide(Box<[u64]>),
}

impl OperandBits {
    /// The first `n` bits as operand truth values.
    fn values(&self, n: usize) -> Vec<bool> {
        let words = match self {
            OperandBits::Narrow(w) => std::slice::from_ref(w),
            OperandBits::Wide(ws) => ws,
        };
        (0..n).map(|j| words[j / 64] >> (j % 64) & 1 == 1).collect()
    }
}

/// A statement execution class key: which statement ran, with which
/// operand values.
pub type ExecKey = (StmtId, OperandBits);

/// One labelled run's explainable executions, counted once: sorted
/// `(key, n)` entries per class, keys unique within a class.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTally {
    /// The run's label.
    pub label: TraceLabel,
    /// Failure-relevant executions (contribute to `F_t`).
    pub failing: Vec<(ExecKey, u32)>,
    /// Correct-behaviour executions (contribute to `C_t`).
    pub correct: Vec<(ExecKey, u32)>,
}

/// Which map an execution feeds, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Failing,
    Correct,
}

/// What the explainer resolved once about one explainable statement.
#[derive(Debug)]
struct Slot {
    features: StatementFeatures,
    /// Record read-order position of each feature operand.
    positions: Vec<usize>,
    /// Sequential depth δ: the minimum number of clock cycles for a
    /// change at the statement's defined signal to reach the target (from
    /// the cone-of-influence analysis), plus one for non-blocking commits.
    /// A buggy execution at depth δ symptomatizes δ cycles later, so
    /// failing-run classification aligns each statement's window by its
    /// own δ.
    depth: u32,
    /// The model's operand contexts, computed on first prediction.
    contexts: Option<OperandContexts>,
}

impl Slot {
    /// Packs the recorded operand truth values; `None` when an operand
    /// was not recorded.
    fn bits(&self, exec: &sim::StmtExec) -> Option<OperandBits> {
        if self.positions.len() <= 64 {
            let mut word = 0u64;
            for (j, &p) in self.positions.iter().enumerate() {
                word |= u64::from(exec.operand(p)?.is_truthy()) << j;
            }
            Some(OperandBits::Narrow(word))
        } else {
            let mut words = vec![0u64; self.positions.len().div_ceil(64)];
            for (j, &p) in self.positions.iter().enumerate() {
                words[j / 64] |= u64::from(exec.operand(p)?.is_truthy()) << (j % 64);
            }
            Some(OperandBits::Wide(words.into_boxed_slice()))
        }
    }
}

/// The Explainer: a trained model applied to labelled traces of one design.
///
/// Attention depends only on (statement, operand truth values), so each
/// labelled run is walked once into a [`RunTally`], maps are built by
/// summing tallies, and the model runs once per distinct key.
#[derive(Debug)]
pub struct Explainer<'m> {
    model: &'m VeriBugModel,
    slice: Slice,
    failure_window: u32,
    /// Dense table indexed by `StmtId.0`: `Some` for every slice
    /// statement whose executions can be explained (it has features and
    /// every feature operand is recorded).
    slots: Vec<Option<Slot>>,
    /// Attention per distinct execution key.
    weights: BTreeMap<ExecKey, Vec<f32>>,
    /// Reused inference tape.
    graph: Graph,
}

impl<'m> Explainer<'m> {
    /// Prepares an explainer for `module` and target output `t`.
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
            // A non-blocking assignment executed at cycle c commits its
            // value at the clock edge, so its effect is visible from cycle
            // c+1: the statement sits one cycle deeper than its signal.
            let commit_delay = u32::from(node.kind == verilog::AssignKind::NonBlocking);
            depth.insert(node.stmt, signal_depth + commit_delay);
        }
        // Records carry positional operand values; resolve each feature
        // operand's position once, against the same elaboration the
        // simulator records under. Designs that fail to elaborate produce
        // no traces, so an empty table is fine there.
        let mut slots: Vec<Option<Slot>> = Vec::new();
        if let Ok(netlist) = sim::Netlist::elaborate(module) {
            for (id, features) in StatementFeatures::extract_all(module) {
                if !slice.contains(id) {
                    continue;
                }
                let Some(positions) = operand_positions(&features, &netlist)
                    .into_iter()
                    .collect::<Option<Vec<usize>>>()
                else {
                    continue;
                };
                let index = id.0 as usize;
                if slots.len() <= index {
                    slots.resize_with(index + 1, || None);
                }
                slots[index] = Some(Slot {
                    features,
                    positions,
                    depth: depth.get(&id).copied().unwrap_or(0),
                    contexts: None,
                });
            }
        }
        Explainer {
            model,
            slice,
            failure_window: DEFAULT_FAILURE_WINDOW,
            slots,
            weights: BTreeMap::new(),
            graph: Graph::new(),
        }
    }

    /// Overrides the failure-window width (cycles before a divergence that
    /// still count as failure-relevant).
    pub fn with_failure_window(mut self, window: u32) -> Self {
        self.failure_window = window;
        self
    }

    /// The static slice the explainer restricts attention to.
    pub fn slice(&self) -> &Slice {
        &self.slice
    }

    /// Counts one labelled run's explainable executions (those within the
    /// target's dynamic slice) by class and key, in a single walk.
    ///
    /// The classification, in one place:
    ///
    /// - **correct runs** feed `C_t` entirely;
    /// - **failing runs without divergence cycles** feed `F_t` entirely
    ///   (the paper's plain trace-level scheme);
    /// - **failing runs with divergence cycles** are failure-centered:
    ///   only executions within the failure window *before* (and
    ///   including) a divergence, aligned by the statement's depth δ,
    ///   feed `F_t`. A buggy execution at cycle k−δ symptomatizes at k, so
    ///   the executions that can have caused the symptom at k lie in
    ///   [k−δ−window, k−δ]. Executions far from every divergence carry
    ///   correct-behavior statistics and feed `C_t` (masked cycles); the
    ///   band in between feeds neither.
    pub fn tally(&self, run: &LabelledTrace<'_>) -> RunTally {
        let window = self.failure_window;
        let (mut failing, mut correct) = (Vec::new(), Vec::new());
        for cyc in &run.trace.cycles {
            for exec in &cyc.execs {
                let Some(slot) = self.slot(exec.stmt) else {
                    continue;
                };
                let class = match (run.label, run.failure_cycles.is_empty()) {
                    (TraceLabel::Correct, _) => Class::Correct,
                    (TraceLabel::Failing, true) => Class::Failing,
                    (TraceLabel::Failing, false) => {
                        match classify(slot.depth, cyc.cycle, &run.failure_cycles, window) {
                            Some(class) => class,
                            None => continue,
                        }
                    }
                };
                let Some(bits) = slot.bits(exec) else {
                    continue;
                };
                match class {
                    Class::Failing => failing.push((exec.stmt, bits)),
                    Class::Correct => correct.push((exec.stmt, bits)),
                }
            }
        }
        RunTally {
            label: run.label,
            failing: run_length(failing),
            correct: run_length(correct),
        }
    }

    /// [`Explainer::tally`] for every run, in order.
    pub(crate) fn tally_all(&self, runs: &[LabelledTrace<'_>]) -> Vec<RunTally> {
        runs.iter().map(|r| self.tally(r)).collect()
    }

    fn slot(&self, stmt: StmtId) -> Option<&Slot> {
        self.slots.get(stmt.0 as usize)?.as_ref()
    }

    /// Aggregates attention over every execution (within the target's
    /// dynamic slice) across `traces`, producing one attention map.
    pub fn attention_map(&mut self, traces: &[&Trace]) -> AttentionMap {
        let tallies: Vec<RunTally> = traces
            .iter()
            .map(|t| self.tally(&LabelledTrace::new(TraceLabel::Correct, t)))
            .collect();
        self.correct_map(&tallies)
    }

    /// The correct-behaviour map `C_t` over every tallied run.
    pub(crate) fn correct_map(&mut self, tallies: &[RunTally]) -> AttentionMap {
        self.aggregate(tallies.iter().map(|t| t.correct.as_slice()))
    }

    /// Builds the heatmap `H_t` from failing and correct attention maps
    /// using the paper's three-case comparison and the given threshold.
    pub fn heatmap(failing: &AttentionMap, correct: &AttentionMap, threshold: f32) -> Heatmap {
        let mut entries = BTreeMap::new();
        for (id, f_att) in &failing.per_stmt {
            match correct.per_stmt.get(id) {
                // Present only in F_t: suspicious; copy its weights.
                None => {
                    entries.insert(
                        *id,
                        HeatmapEntry {
                            operands: f_att.operands.clone(),
                            weights: f_att.weights.clone(),
                            suspiciousness: 1.0,
                            reason: SuspicionReason::OnlyInFailing,
                        },
                    );
                }
                // Present in both: compare attention with the normalized
                // norm-1 distance (min 0, max 2 → divide by 2).
                Some(c_att) => {
                    let d = suspiciousness(&f_att.weights, &c_att.weights);
                    if d > threshold {
                        entries.insert(
                            *id,
                            HeatmapEntry {
                                operands: f_att.operands.clone(),
                                weights: f_att.weights.clone(),
                                suspiciousness: d,
                                reason: SuspicionReason::DivergentAttention,
                            },
                        );
                    }
                }
            }
            // Statements present only in C_t are *not suspicious*: failing
            // traces never executed them, so they cannot have caused the
            // symptom (paper case 1).
        }
        Heatmap { entries, threshold }
    }

    /// End-to-end explanation: tally the labelled runs, aggregate `F_t`
    /// and `C_t`, and produce the heatmap.
    ///
    /// Two refinements over the plain trace-level scheme (both documented
    /// in DESIGN.md and applied by [`Explainer::tally`]):
    ///
    /// - **Failure-centered aggregation.** When a failing trace carries its
    ///   divergence cycles, only executions within
    ///   [`DEFAULT_FAILURE_WINDOW`] cycles *before* (and including) a
    ///   divergence contribute to `F_t`.
    /// - **Masked-cycle augmentation of `C_t`.** The non-divergent cycles
    ///   of failing traces join the correct runs in `C_t`. When *no* run
    ///   is fully correct (short aggressive stimuli can expose a bug in
    ///   every run) this keeps `C_t` from being empty, which would
    ///   otherwise mark every statement "only-in-failing".
    pub fn explain(
        &mut self,
        runs: &[LabelledTrace<'_>],
        threshold: f32,
    ) -> (Heatmap, AttentionMap, AttentionMap) {
        let tallies = self.tally_all(runs);
        let refs: Vec<&RunTally> = tallies.iter().collect();
        self.explain_tallies(&refs, threshold)
    }

    /// [`Explainer::explain`] over already-tallied runs.
    pub(crate) fn explain_tallies(
        &mut self,
        tallies: &[&RunTally],
        threshold: f32,
    ) -> (Heatmap, AttentionMap, AttentionMap) {
        let f_map = self.aggregate(tallies.iter().map(|t| t.failing.as_slice()));
        let c_map = self.aggregate(tallies.iter().map(|t| t.correct.as_slice()));
        let heatmap = Self::heatmap(&f_map, &c_map, threshold);
        (heatmap, f_map, c_map)
    }

    /// Sums tallies into one map: per statement, Σ n·w / Σ n in f64 over
    /// its distinct keys in sorted order, so the result does not depend on
    /// how executions were split across runs.
    fn aggregate<'a>(&mut self, parts: impl Iterator<Item = &'a [(ExecKey, u32)]>) -> AttentionMap {
        let mut keys: Vec<&(ExecKey, u32)> = parts.flatten().collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut per_stmt = BTreeMap::new();
        for stmt_keys in keys.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            let stmt = stmt_keys[0].0 .0;
            let mut sums: Vec<f64> = Vec::new();
            let mut count = 0usize;
            for &(key, n) in stmt_keys {
                let weights = self.weights_of(key);
                sums.resize(weights.len(), 0.0);
                for (s, &w) in sums.iter_mut().zip(weights) {
                    *s += f64::from(*n) * f64::from(w);
                }
                count += *n as usize;
            }
            let operands = self.slot(stmt).map_or_else(Vec::new, |slot| {
                slot.features
                    .operands
                    .iter()
                    .map(|o| o.name.clone())
                    .collect()
            });
            let total = count.max(1) as f64;
            per_stmt.insert(
                stmt,
                StmtAttention {
                    operands,
                    weights: sums.into_iter().map(|s| (s / total) as f32).collect(),
                    count,
                },
            );
        }
        AttentionMap { per_stmt }
    }

    /// The attention weights of one execution key, predicting (through the
    /// statement's cached operand contexts) on first use.
    fn weights_of(&mut self, key: &ExecKey) -> &[f32] {
        static CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("explain.attention_cache_hits");
        static CACHE_MISSES: obs::LazyCounter =
            obs::LazyCounter::new("explain.attention_cache_misses");
        /// Shannon entropy (nats) of each freshly computed attention
        /// distribution.
        static ENTROPY: obs::LazyHistogram =
            obs::LazyHistogram::new_micros("explain.attention_entropy");
        if self.weights.contains_key(key) {
            CACHE_HITS.incr();
        } else {
            CACHE_MISSES.incr();
            let model = self.model;
            let slot = self.slots[key.0 .0 as usize]
                .as_mut()
                .expect("tallied statements have slots");
            let contexts = slot
                .contexts
                .get_or_insert_with(|| model.operand_contexts(&slot.features));
            let values = key.1.values(slot.positions.len());
            let weights = model.predict_from(&mut self.graph, contexts, &values).1;
            if obs::enabled() {
                ENTROPY.record_f64(attention_entropy(&weights));
            }
            self.weights.insert(key.clone(), weights);
        }
        &self.weights[key]
    }
}

/// Classifies an execution at `cycle` of a failing run with known
/// divergence cycles, for a statement at sequential depth `depth`.
fn classify(depth: u32, cycle: u32, failure_cycles: &[u32], window: u32) -> Option<Class> {
    let his = || failure_cycles.iter().map(|&k| k.saturating_sub(depth));
    if his().any(|hi| cycle <= hi && hi.saturating_sub(window) <= cycle) {
        Some(Class::Failing)
    } else if his().all(|hi| cycle + window + 1 < hi.max(1) || hi + 2 < cycle) {
        Some(Class::Correct)
    } else {
        None
    }
}

/// Sorts keys and collapses equal ones into `(key, multiplicity)`.
fn run_length(mut keys: Vec<ExecKey>) -> Vec<(ExecKey, u32)> {
    keys.sort_unstable();
    let mut out: Vec<(ExecKey, u32)> = Vec::new();
    for key in keys {
        match out.last_mut() {
            Some((last, n)) if *last == key => *n += 1,
            _ => out.push((key, 1)),
        }
    }
    out
}

/// The paper's suspiciousness score: norm-1 distance between two attention
/// vectors, min-max normalized with `min = 0, max = 2`.
///
/// When the operand sets differ in length (a variable-misuse mutation can
/// change the operand list), missing positions count as zero weight.
pub fn suspiciousness(f_weights: &[f32], c_weights: &[f32]) -> f32 {
    let n = f_weights.len().max(c_weights.len());
    let mut l1 = 0.0f32;
    for i in 0..n {
        let a = f_weights.get(i).copied().unwrap_or(0.0);
        let b = c_weights.get(i).copied().unwrap_or(0.0);
        l1 += (a - b).abs();
    }
    l1 / 2.0
}

/// Shannon entropy (nats) of an attention distribution. The weights are
/// renormalized first so numerically drifted vectors still yield a proper
/// distribution; zero weights contribute nothing.
///
/// Used both for the `explain.attention_entropy` histogram and by the
/// `accuracy_bench` harness, which reports the entropy distribution of
/// every heatmap entry (a flat distribution means the model has nothing
/// to say about a statement; a peaked one is a confident attribution).
pub fn attention_entropy(weights: &[f32]) -> f64 {
    let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0f64;
    for &w in weights {
        let p = f64::from(w.max(0.0)) / total;
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, VeriBugModel};
    use sim::{Simulator, TestbenchGen};

    fn arb() -> Module {
        verilog::parse(
            "module arb(input clk, input req1, input req2, output reg gnt1, output reg gnt2);\n\
             reg state;\n\
             always @(posedge clk) state <= req1 ^ req2;\n\
             always @(*) begin\n\
             if (state) gnt1 = req1 & ~req2;\n\
             else gnt1 = req1 | req2;\n\
             gnt2 = req2 & ~req1;\n\
             end\nendmodule",
        )
        .unwrap()
        .top()
        .clone()
    }

    #[test]
    fn suspiciousness_bounds() {
        assert_eq!(suspiciousness(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        // Completely disjoint distributions -> max distance 2, normalized 1.
        assert!((suspiciousness(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-6);
        // Length mismatch: missing weights count as zero.
        assert!((suspiciousness(&[1.0], &[0.5, 0.5]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn attention_map_covers_dynamic_slice_only() {
        let module = arb();
        let model = VeriBugModel::new(ModelConfig::default());
        let mut sim = Simulator::new(&module).unwrap();
        let stim = TestbenchGen::new(3).generate(sim.netlist(), 32);
        let trace = sim.run(&stim).unwrap();
        let mut ex = Explainer::new(&model, &module, "gnt1");
        let map = ex.attention_map(&[&trace]);
        // gnt2's statement (id 3) is outside gnt1's slice.
        assert!(!map.per_stmt.contains_key(&StmtId(3)));
        assert!(!map.is_empty());
        // Every weight vector is a distribution.
        for att in map.per_stmt.values() {
            let sum: f32 = att.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "not a distribution: {att:?}");
            assert!(att.count > 0);
        }
    }

    #[test]
    fn tallies_count_every_slice_execution_once() {
        let module = arb();
        let model = VeriBugModel::new(ModelConfig::default());
        let mut sim = Simulator::new(&module).unwrap();
        let stim = TestbenchGen::new(5).generate(sim.netlist(), 24);
        let trace = sim.run(&stim).unwrap();
        let mut ex = Explainer::new(&model, &module, "gnt1");
        let in_slice = trace
            .cycles
            .iter()
            .flat_map(|c| &c.execs)
            .filter(|e| ex.slice().contains(e.stmt))
            .count();
        let tally = ex.tally(&LabelledTrace::new(TraceLabel::Correct, &trace));
        assert!(tally.failing.is_empty());
        let counted: u32 = tally.correct.iter().map(|(_, n)| n).sum();
        assert_eq!(counted as usize, in_slice);
        // Keys are sorted and unique.
        assert!(tally.correct.windows(2).all(|w| w[0].0 < w[1].0));
        // A failing run with no divergence cycles feeds F_t only.
        let failing = ex.tally(&LabelledTrace::new(TraceLabel::Failing, &trace));
        assert_eq!(failing.failing, tally.correct);
        assert!(failing.correct.is_empty());
        // The map's counts are the tally's.
        let map = ex.attention_map(&[&trace]);
        let total: usize = map.per_stmt.values().map(|a| a.count).sum();
        assert_eq!(total, in_slice);
    }

    #[test]
    fn classification_windows_are_depth_aligned() {
        // Divergence at cycle 10, window 1, statement depth 2: executions
        // at cycles 7..=8 caused it; 5 and below or 13 and above are far.
        let class = |c| classify(2, c, &[10], 1);
        assert!(class(6).is_none());
        assert!(class(7) == Some(Class::Failing) && class(8) == Some(Class::Failing));
        assert!(class(9).is_none() && class(10).is_none());
        assert!(class(5) == Some(Class::Correct) && class(11) == Some(Class::Correct));
        // Far from one divergence is not enough: every divergence counts.
        assert!(class(16) == Some(Class::Correct));
        assert!(classify(2, 16, &[10, 20], 1).is_none());
    }

    #[test]
    fn heatmap_three_cases() {
        let mk = |stmts: &[(u32, Vec<f32>)]| AttentionMap {
            per_stmt: stmts
                .iter()
                .map(|(id, w)| {
                    (
                        StmtId(*id),
                        StmtAttention {
                            operands: (0..w.len()).map(|i| format!("op{i}")).collect(),
                            weights: w.clone(),
                            count: 1,
                        },
                    )
                })
                .collect(),
        };
        // s0: identical in both (not suspicious).
        // s1: diverges strongly (suspicious).
        // s2: only in failing (suspicious, score 1.0).
        // s3: only in correct (ignored).
        let f = mk(&[
            (0, vec![0.5, 0.5]),
            (1, vec![0.9, 0.1]),
            (2, vec![0.3, 0.7]),
        ]);
        let c = mk(&[(0, vec![0.5, 0.5]), (1, vec![0.1, 0.9]), (3, vec![1.0])]);
        let h = Explainer::heatmap(&f, &c, DEFAULT_THRESHOLD);
        assert_eq!(h.len(), 2);
        assert!(!h.entries.contains_key(&StmtId(0)));
        assert!(!h.entries.contains_key(&StmtId(3)));
        let s1 = &h.entries[&StmtId(1)];
        assert_eq!(s1.reason, SuspicionReason::DivergentAttention);
        assert!((s1.suspiciousness - 0.8).abs() < 1e-6);
        let s2 = &h.entries[&StmtId(2)];
        assert_eq!(s2.reason, SuspicionReason::OnlyInFailing);
        assert_eq!(s2.suspiciousness, 1.0);
        // top-1 is the only-in-failing statement (score 1.0).
        assert_eq!(h.top1(), Some(StmtId(2)));
        let ranked = h.ranked();
        assert_eq!(ranked[0].0, StmtId(2));
        assert_eq!(ranked[1].0, StmtId(1));
    }

    #[test]
    fn below_threshold_statements_are_excluded() {
        let f = AttentionMap {
            per_stmt: [(
                StmtId(0),
                StmtAttention {
                    operands: vec!["a".into(), "b".into()],
                    weights: vec![0.52, 0.48],
                    count: 4,
                },
            )]
            .into_iter()
            .collect(),
        };
        let c = AttentionMap {
            per_stmt: [(
                StmtId(0),
                StmtAttention {
                    operands: vec!["a".into(), "b".into()],
                    weights: vec![0.48, 0.52],
                    count: 4,
                },
            )]
            .into_iter()
            .collect(),
        };
        let h = Explainer::heatmap(&f, &c, DEFAULT_THRESHOLD);
        assert!(h.is_empty());
        assert_eq!(h.top1(), None);
    }
}
