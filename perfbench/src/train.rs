//! `train-rvdg`: training epochs over a seeded RVDG corpus, one caller.
//!
//! Set-up loads the fixture model through `veribug::persist` (training
//! continues from it) and builds a `Dataset` from the seeded corpus; an op
//! is one epoch of `veribug::train::train`.
//!
//! Why: it is the write side of the `neuro` layers (forward with tape,
//! backward, Adam) that localization only reads. A tape-free inference
//! change that slows training shows here and nowhere else. After the
//! first [`QUALITY_EPOCHS`] ops the model is checkpointed; its holdout
//! accuracy and its P@k on the localize op list are the quality figures.

use veribug::model::VeriBugModel;
use veribug::persist;
use veribug::train::{self, Dataset, TrainConfig};

use crate::harness::{self, Outcome, Quality};
use crate::inputs::{self, derive, tag, DATASET_CYCLES, DATASET_RUNS};
use crate::localize;
use crate::spans::{self, Ledger};
use crate::{stats, Args, SETUP_CHILDREN};

/// Worker fan-out of `veribug-par` inside an op (minibatch shards).
pub const THREADS: usize = 1;

/// Epochs per second at the nominal probe time; sets the op count of a run
/// (see [`harness::op_budget`]).
const NOMINAL_RATE: f64 = 10.0;

/// Share of an op's time that moves with the host probe (see
/// [`harness::at_nominal`]): fitted 1.00–1.06 over twenty runs.
const HOST_EXPONENT: f64 = 1.0;

/// The training corpus's seed. Like the fixture model's, it is fixed
/// rather than derived from `--seed`: even as an evenly strided 512-sample
/// subset of 64 designs, seed-derived corpora made an epoch take anywhere
/// from 134 to 206 ms at the same host speed (seeds 1–10), because a
/// sample's cost follows its statement's path contexts. The seed still
/// sets every epoch's shuffle, so runs on different seeds train
/// differently.
const TRAIN_CORPUS_SEED: u64 = 0x7A11_0001;

/// RVDG designs in the training corpus and in its holdout.
const TRAIN_DESIGNS: usize = 64;
const HOLDOUT_DESIGNS: usize = 4;
/// Samples an epoch trains on: an evenly strided subset of the corpus's
/// ≈2600, so every design contributes.
const TRAIN_SAMPLES: usize = 512;

/// Epochs after which the quality checkpoint is taken.
const QUALITY_EPOCHS: usize = 10;

/// Traced epochs (each also run untraced).
const TRACED_OPS: usize = 8;

fn epoch(model: &mut VeriBugModel, data: &Dataset, seed: u64, i: usize) -> Result<f32, String> {
    let report = train::train(
        model,
        data,
        &TrainConfig {
            epochs: 1,
            seed: derive(seed, tag::TRAIN_MODEL + i as u64),
            ..TrainConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    report
        .epoch_losses
        .first()
        .copied()
        .filter(|l| l.is_finite())
        .ok_or_else(|| "epoch produced no finite loss".to_owned())
}

/// Loads the starting weights and builds the training set.
fn setup(
    path: &std::path::Path,
    modules: &[verilog::Module],
    seed: u64,
) -> Result<(VeriBugModel, Dataset, f64), String> {
    let t = std::time::Instant::now();
    let model = persist::load(path).map_err(|e| e.to_string())?;
    let mut data = Dataset::from_designs(modules, seed, DATASET_CYCLES, DATASET_RUNS)
        .map_err(|e| e.to_string())?;
    let stride = data.len() / TRAIN_SAMPLES;
    if stride == 0 {
        return Err(format!(
            "corpus gave {} samples, fewer than {TRAIN_SAMPLES}",
            data.len()
        ));
    }
    data.entries = data
        .entries
        .into_iter()
        .step_by(stride)
        .take(TRAIN_SAMPLES)
        .collect();
    Ok((model, data, t.elapsed().as_secs_f64()))
}

/// A set-up child: `args` is the starting model file. The corpus is
/// generated first, untimed, as the parent generates it.
pub fn setup_child(args: &[String]) -> Result<(), String> {
    let path = std::path::Path::new(args.first().ok_or("set-up child needs the model file")?);
    let (train_mods, _) = inputs::rvdg_corpus(TRAIN_CORPUS_SEED, TRAIN_DESIGNS, HOLDOUT_DESIGNS)?;
    harness::setup_child(|| {
        par::with_threads(THREADS, || setup(path, &train_mods, TRAIN_CORPUS_SEED))
            .map(|(_, _, s)| s)
    })
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let corpus_seed = TRAIN_CORPUS_SEED;
    let (train_mods, hold_mods) = inputs::rvdg_corpus(corpus_seed, TRAIN_DESIGNS, HOLDOUT_DESIGNS)?;
    let (fixture, _) = inputs::fixture_model()?;
    let path = inputs::work_file("start.model")?;
    persist::save(&fixture, &path).map_err(|e| e.to_string())?;
    out.fact(
        "weights_hash",
        format!("\"{}\"", persist::content_hash_hex(&fixture)),
    );
    out.fact("threads", format!("{{\"par\":{THREADS},\"callers\":1}}"));
    if args.trace {
        let r = traced(&path, &train_mods, corpus_seed, args.seed, out);
        inputs::remove_work_file(&path);
        return r;
    }
    let setup_times = harness::setup_in_children(
        &args.workload,
        &[&path.display().to_string()],
        SETUP_CHILDREN,
    );
    let state = setup_times.and_then(|t| {
        let (model, data, _) =
            par::with_threads(THREADS, || setup(&path, &train_mods, corpus_seed))?;
        Ok((t, model, data))
    });
    inputs::remove_work_file(&path);
    let (setup_times, mut model, data) = state?;
    out.fact("samples", data.len().to_string());
    let ops = harness::op_budget(args.seconds, NOMINAL_RATE, 2 * QUALITY_EPOCHS, 1);
    let (tail_p, _) = stats::tail_percentile(ops).expect("ops ≥ 20");
    let mut checkpoint = None;
    let timed = par::with_threads(THREADS, || {
        harness::closed_loop(ops, |i| {
            let ok = epoch(&mut model, &data, args.seed, i).is_ok();
            if i + 1 == QUALITY_EPOCHS {
                checkpoint = Some(persist::to_string(&model));
            }
            ok
        })
    });
    out.attempted = timed.lat_ms.len();
    out.failed = timed.failed;
    let checkpoint = persist::from_str(&checkpoint.ok_or("no quality checkpoint")?)
        .map_err(|e| e.to_string())?;
    let holdout = Dataset::from_designs(&hold_mods, corpus_seed ^ 1, DATASET_CYCLES, DATASET_RUNS)
        .map_err(|e| e.to_string())?;
    let holdout_acc = f64::from(train::evaluate(&checkpoint, &holdout).accuracy);
    let list = inputs::localize_list(args.seed, &inputs::catalog_cases())?;
    let mut quality = Quality::default();
    par::with_threads(localize::THREADS, || {
        for m in &list {
            match localize::op(&checkpoint, m) {
                Ok(r) => quality.push(harness::rank_of(
                    localize::fingerprint(&r).iter().map(|(s, _)| s.as_str()),
                    &m.bug_stmt,
                )),
                Err(e) => out.check(false, &format!("localizing with the checkpoint: {e}")),
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

/// Epochs run twice from the same start: untraced on one copy of the
/// model, traced (span per epoch, obs counters on) on another, in
/// alternating order. Training is deterministic, so both copies must see
/// bit-identical losses; that is the run's faithfulness check.
fn traced(
    path: &std::path::Path,
    modules: &[verilog::Module],
    corpus_seed: u64,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    obs::reset();
    obs::set_enabled(true);
    spans::set_enabled(true);
    let built = par::with_threads(THREADS, || {
        let _s = spans::span("train.dataset", 0);
        setup(path, modules, corpus_seed)
    });
    spans::set_enabled(false);
    obs::set_enabled(false);
    let (mut traced_model, data, _) = built?;
    let mut plain_model = persist::load(path).map_err(|e| e.to_string())?;
    out.fact("samples", data.len().to_string());
    let (mut untraced_ns, mut traced_ns) = (0u128, 0u128);
    let mut faithful = true;
    let mut failed = 0;
    par::with_threads(THREADS, || {
        for i in 0..TRACED_OPS {
            let mut losses = [None, None];
            for pass in 0..2 {
                if (pass + i) % 2 == 0 {
                    let t = std::time::Instant::now();
                    losses[0] = epoch(&mut plain_model, &data, seed, i).ok();
                    untraced_ns += t.elapsed().as_nanos();
                } else {
                    obs::set_enabled(true);
                    spans::set_enabled(true);
                    let t = std::time::Instant::now();
                    losses[1] = {
                        let _op = spans::span("op", i as u64);
                        let _e = spans::span("train.epoch", i as u64);
                        epoch(&mut traced_model, &data, seed, i).ok()
                    };
                    traced_ns += t.elapsed().as_nanos();
                    spans::set_enabled(false);
                    obs::set_enabled(false);
                }
            }
            match losses {
                [Some(a), Some(b)] => faithful &= a.to_bits() == b.to_bits(),
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
    let epoch_ms = ledger.ms_per("train.epoch", ops);
    out.metric("train.dataset_ms", ledger.ms_per("train.dataset", 1), "ms");
    out.metric("train.epoch_ms", epoch_ms, "ms");
    out.metric(
        "train.samples_per_s",
        data.len() as f64 / (epoch_ms / 1e3),
        "1/s",
    );
    let adam = snap.histogram("train.adam_step_us");
    out.metric(
        "train.adam_step_us",
        adam.map_or(0.0, |h| h.sum / h.count.max(1) as f64),
        "us",
    );
    out.metric("op_ms", ledger.ms_per("op", ops), "ms");
    out.metric("unattributed_pct", ledger.unattributed_pct("op"), "%");
    out.metric(
        "tracing_overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
        "%",
    );
    out.metric("traced.faithful", f64::from(u8::from(faithful)), "bool");
    Ok(())
}
