//! Seeded benchmark inputs.
//!
//! Everything a workload feeds the program is derived here from the one
//! `--seed` argument: the mutation-campaign seeds, the RVDG corpus, the
//! fixture model's training seed, and the serve request order. The program
//! under test only ever sees the generated sources and weights.

use mutate::{BugBudget, Campaign};
use rvdg::{Generator, RvdgConfig};
use veribug::model::{ModelConfig, VeriBugModel};
use veribug::train::{self, Dataset, TrainConfig};
use verilog::Module;

/// Budget per mutation kind of the campaigns that build the localize op
/// list. With 4 designs × 2 targets this yields ≈142 observable mutants
/// per seed; P@k then moves by ≈12% between quartiles of seeds.
pub const LIST_BUDGET: BugBudget = BugBudget {
    negation: 8,
    operation: 8,
    misuse: 8,
};

/// RVDG designs the fixture model trains on.
const FIXTURE_TRAIN_DESIGNS: usize = 12;
/// RVDG designs held out to score the fixture model.
const FIXTURE_HOLDOUT_DESIGNS: usize = 4;
/// Fixture training epochs.
const FIXTURE_EPOCHS: usize = 30;
/// The fixture model's corpus and training seed. Deliberately *not*
/// derived from `--seed`: measured over seeds 1–7, models trained from
/// seed-derived corpora and initialisations put P@1 anywhere in 0.04–0.53
/// and spread P@5 by 37% between quartiles, while one fixed model over
/// seed-varied mutant lists keeps both within a few percent. The model is
/// still trained at run time, from source, so a training change reaches it.
const FIXTURE_SEED: u64 = 0xF1C5_0001;
/// Cycles per dataset-building stimulus.
pub const DATASET_CYCLES: usize = 48;
/// Stimuli per RVDG design.
pub const DATASET_RUNS: usize = 2;

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed tags, one per input family.
pub mod tag {
    /// Campaign seed of (design, target) pair `i` is `derive(seed, CAMPAIGN + i)`.
    pub const CAMPAIGN: u64 = 0x100;
    /// The train-rvdg workload's model.
    pub const TRAIN_MODEL: u64 = 0x301;
    /// Serve-mix schedule.
    pub const SERVE: u64 = 0x400;
}

/// One catalog (design, target) pair.
pub struct Case {
    pub design: &'static str,
    pub target: &'static str,
    pub source: &'static str,
    pub module: Module,
}

/// The 4 catalog designs × their 2 targets, in catalog order.
pub fn catalog_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for d in designs::catalog() {
        let module = d.module().expect("catalog designs parse");
        for &target in d.targets {
            cases.push(Case {
                design: d.name,
                target,
                source: d.source,
                module: module.clone(),
            });
        }
    }
    cases
}

/// One localize op: golden and buggy source plus ground truth.
#[derive(Clone)]
pub struct LocalizeInput {
    pub golden: &'static str,
    pub buggy: String,
    pub target: &'static str,
    /// Display form (`s<N>`) of the injected statement.
    pub bug_stmt: String,
}

/// Observable mutants from seeded campaigns over every catalog case,
/// interleaved by design so that any prefix of the list mixes all designs.
pub fn localize_list(seed: u64, cases: &[Case]) -> Result<Vec<LocalizeInput>, String> {
    let mut per_case: Vec<std::collections::VecDeque<LocalizeInput>> = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        let mutants = Campaign::new(derive(seed, tag::CAMPAIGN + ci as u64))
            .run(&case.module, case.target, &LIST_BUDGET)
            .map_err(|e| format!("campaign {}/{}: {e}", case.design, case.target))?;
        per_case.push(
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
    }
    let mut out = Vec::new();
    while per_case.iter().any(|q| !q.is_empty()) {
        for q in &mut per_case {
            if let Some(m) = q.pop_front() {
                out.push(m);
            }
        }
    }
    if out.is_empty() {
        return Err("no observable mutant in any catalog campaign".into());
    }
    Ok(out)
}

/// RVDG modules split into (train, holdout).
pub fn rvdg_corpus(
    seed: u64,
    train: usize,
    holdout: usize,
) -> Result<(Vec<Module>, Vec<Module>), String> {
    let all = Generator::new(RvdgConfig::default(), seed)
        .generate_corpus(train + holdout)
        .map_err(|e| format!("rvdg: {e}"))?;
    let modules: Vec<Module> = all.into_iter().map(|d| d.module).collect();
    let (a, b) = modules.split_at(train);
    Ok((a.to_vec(), b.to_vec()))
}

/// The fixture model every workload localizes with, trained (untimed)
/// with [`FIXTURE_SEED`], plus its accuracy on held-out RVDG samples.
pub fn fixture_model() -> Result<(VeriBugModel, f64), String> {
    let (train_mods, hold_mods) =
        rvdg_corpus(FIXTURE_SEED, FIXTURE_TRAIN_DESIGNS, FIXTURE_HOLDOUT_DESIGNS)?;
    let train_set = Dataset::from_designs(&train_mods, FIXTURE_SEED, DATASET_CYCLES, DATASET_RUNS)
        .map_err(|e| e.to_string())?;
    let hold_set =
        Dataset::from_designs(&hold_mods, FIXTURE_SEED ^ 1, DATASET_CYCLES, DATASET_RUNS)
            .map_err(|e| e.to_string())?;
    let mut model = VeriBugModel::new(ModelConfig::default());
    train::train(
        &mut model,
        &train_set,
        &TrainConfig {
            epochs: FIXTURE_EPOCHS,
            ..TrainConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let acc = f64::from(train::evaluate(&model, &hold_set).accuracy);
    Ok((model, acc))
}

const WORK_DIR: &str = ".perfbench-work";

/// A work file under `.perfbench-work/` in the current directory, unique to
/// this process. The caller removes it with [`remove_work_file`].
pub fn work_file(name: &str) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-{name}", std::process::id())))
}

/// Removes a [`work_file`], and the work directory once it is empty.
pub fn remove_work_file(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_dir(WORK_DIR);
}
