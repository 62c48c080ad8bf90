//! Shared measurement plumbing: the closed loop, process CPU time, the
//! end-to-end metric set and the ranking-quality tally.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats;

/// A named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every correctness check of the run held.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Facts written beside the metrics (thread settings, tail percentile,
    /// weights hash, layer split), as `(key, JSON value)`.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            context: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn fact(&mut self, key: &'static str, json: impl Into<String>) {
        self.context.push((key, json.into()));
    }

    /// Records a failed correctness check; the run reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.correct = false;
        }
    }
}

/// Process user+system CPU seconds, from `/proc/self/stat` (clock ticks of
/// `USER_HZ`, which Linux fixes at 100).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// The host speed probe's time on the host the benchmark was defined on
/// (2-core KVM guest, Intel Xeon), in its quiet phases. Reported times are
/// scaled to this probe time; see [`Probe`].
pub const NOMINAL_PROBE_MS: f64 = 1.0;

/// Host speed probe: a fixed kernel owned by the benchmark, run between
/// the ops of every timed phase (≈1 ms: dense 48 × 48 `f32` matrix
/// products, each followed by a `tanh` over the result).
///
/// This host's speed drifts by up to 40% over minutes, with user CPU time
/// tracking wall time, so no amount of work inside one run steadies a
/// wall-clock figure across runs. The probe runs no program code, so a
/// program change cannot move it, but host drift moves it in step with
/// the ops. Each op's latency is reported at the nominal probe time: raw ×
/// [`at_nominal`] of the mean of the probes taken just before and just
/// after it, so drift within a run is followed too. Run-level times
/// (throughput, CPU per op) use the latency-weighted mean of those
/// factors. The raw figures and the probe median are written in the
/// context line beside them.
///
/// The kernel was chosen by measurement. Over 90-second runs of each
/// workload with candidate kernels timed after every op, windowed op
/// latency spread 20–26% between quartiles raw; scaled by this
/// throughput-bound kernel it spread 4% (campaign-catalog), 10%
/// (train-rvdg) and 11% (localize-catalog). A latency-bound integer kernel
/// (a xorshift chain over 32 KiB) left 15–19%, and a pointer chase over
/// 16 MiB 20–24%: the host's slow phases slow throughput-bound code far
/// more than a dependency chain or a memory walk.
pub struct Probe {
    mats: [Vec<f32>; 3],
    samples_ms: Vec<f64>,
}

/// The factor that takes a time measured beside probe time `probe_ms` to
/// the nominal probe time: (`NOMINAL_PROBE_MS` ÷ `probe_ms`) ^ `exponent`.
///
/// The exponent is the share of a workload's time that moves with the
/// probe, fitted per workload by least squares of log raw time on log
/// probe time over twenty runs (seeds 1–10, twice): 1 where all of an
/// op is throughput-bound compute, less where part of it waits.
pub fn at_nominal(probe_ms: f64, exponent: f64) -> f64 {
    (NOMINAL_PROBE_MS / probe_ms).powf(exponent)
}

/// Side of the probe's square matrices: three of them fit in 32 KiB, so
/// what an op left in the caches barely changes the probe's time.
const PROBE_N: usize = 48;
/// Matrix products per probe sample.
const PROBE_PRODUCTS: usize = 24;

impl Probe {
    pub fn new() -> Self {
        Probe {
            mats: std::array::from_fn(|_| vec![0.0; PROBE_N * PROBE_N]),
            samples_ms: Vec::new(),
        }
    }

    /// Runs the kernel once; returns its wall time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        let salt = self.samples_ms.len();
        let t = Instant::now();
        std::hint::black_box(probe_kernel(&mut self.mats, salt));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples_ms)
    }
}

fn probe_kernel(mats: &mut [Vec<f32>; 3], salt: usize) -> f32 {
    let n = PROBE_N;
    let [a, b, c] = mats;
    for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
        *x = ((i ^ salt) % 97) as f32 * 0.01;
        *y = (i % 89) as f32 * 0.02;
    }
    for _ in 0..PROBE_PRODUCTS {
        c.fill(0.0);
        for i in 0..n {
            for k in 0..n {
                let x = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += x * b[k * n + j];
                }
            }
        }
        for v in c.iter_mut() {
            *v = v.tanh();
        }
        std::mem::swap(a, c);
    }
    a[salt % (n * n)]
}

/// Set-up times, one per fresh child process, each with the mean of the
/// probe samples the child took just before and just after it.
pub struct SetupTimes {
    raw_s: Vec<f64>,
    probe_ms: Vec<f64>,
}

/// Marks a set-up child's result line on its standard output.
const SETUP_LINE: &str = "perfbench-setup";

/// Probe samples a set-up child runs before its set-up (≈30 ms).
const CHILD_WARMUP_SAMPLES: usize = 30;

/// Argument that makes the benchmark binary a set-up child.
pub const SETUP_CHILD_FLAG: &str = "--setup-child";

/// The body of a set-up child: runs `setup` once in this fresh process,
/// between two probe samples, and prints its time and their mean.
///
/// A set-up is the program's one-time work before its first op, so it is
/// timed in a new process each time. Repeating it inside the benchmark's
/// own process measured the allocator's history instead: whether a
/// repetition got recycled or fresh pages depended on what input
/// generation had freed before it, and one run's set-ups read 1.0 ms where
/// another's read 1.7 ms.
pub fn setup_child(setup: impl FnOnce() -> Result<f64, String>) -> Result<(), String> {
    let mut probe = Probe::new();
    // A fresh process starts on a core that has just been idle, and its
    // first probe samples read up to 1.7× slow; these samples bring the
    // core to the speed the parent's timed phases run at.
    for _ in 0..CHILD_WARMUP_SAMPLES {
        probe.sample();
    }
    let before = probe.sample();
    let secs = setup()?;
    let after = probe.sample();
    println!("{SETUP_LINE} {secs} {}", (before + after) / 2.0);
    Ok(())
}

/// Runs `children` set-up children of this binary, one after another,
/// each with `args` after the workload name, and collects their times.
pub fn setup_in_children(
    workload: &str,
    args: &[&str],
    children: usize,
) -> Result<SetupTimes, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times = SetupTimes {
        raw_s: Vec::new(),
        probe_ms: Vec::new(),
    };
    for _ in 0..children {
        let child = std::process::Command::new(&exe)
            .arg(SETUP_CHILD_FLAG)
            .arg(workload)
            .args(args)
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        if !child.status.success() {
            return Err(format!("set-up child exited with {}", child.status));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (raw, probe_ms) = stdout
            .lines()
            .find_map(|l| {
                let mut f = l.strip_prefix(SETUP_LINE)?.split_whitespace();
                Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
            })
            .ok_or_else(|| format!("set-up child printed no result: {stdout}"))?;
        times.raw_s.push(raw);
        times.probe_ms.push(probe_ms);
    }
    Ok(times)
}

/// The measurements of one timed phase.
pub struct Timed {
    /// Per-op latency in milliseconds, in completion order.
    pub lat_ms: Vec<f64>,
    /// Wall time of the phase minus the time callers spent probing.
    pub wall_s: f64,
    /// Process CPU time of the phase minus the probes' CPU time.
    pub cpu_s: f64,
    pub peak_heap: usize,
    pub failed: usize,
    pub probe: Probe,
    /// Per op, the mean of the probe samples taken just before and just
    /// after it, in milliseconds.
    pub op_probe_ms: Vec<f64>,
}

/// The op count of a timed phase: the ops that take `seconds` at the
/// workload's nominal rate (its throughput on the host the benchmark was
/// defined on) in the nearest whole number of `period`s of the op list,
/// and at least `min_ops`. A fixed count gives every run the same op mix
/// and the same warm-up share whatever the host's speed; ending whenever
/// the clock ran out made runs on a faster host do a third pass over the
/// list and read 10–20% faster than their probe time explained.
pub fn op_budget(seconds: f64, nominal_rate: f64, min_ops: usize, period: usize) -> usize {
    let periods = (seconds * nominal_rate / period as f64).round() as usize;
    periods.max(min_ops.div_ceil(period)).max(1) * period
}

/// Runs `op(i)` for i in 0..`ops` back to back (a closed loop with one
/// caller), with a [`Probe`] sample before the first op and after every
/// op. `op` returns whether it succeeded.
pub fn closed_loop(ops: usize, mut op: impl FnMut(usize) -> bool) -> Timed {
    let mut probe = Probe::new();
    crate::alloc::reset_peak();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    let mut failed = 0;
    let mut last_probe = probe.sample();
    let mut probe_ms = last_probe;
    let mut op_probe_ms = Vec::new();
    for i in 0..ops {
        let t = Instant::now();
        if !op(i) {
            failed += 1;
        }
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let next = probe.sample();
        op_probe_ms.push((last_probe + next) / 2.0);
        probe_ms += next;
        last_probe = next;
    }
    let wall_s = start.elapsed().as_secs_f64() - probe_ms / 1e3;
    let cpu_s = cpu_seconds() - cpu0 - probe_ms / 1e3;
    Timed {
        lat_ms,
        wall_s,
        cpu_s,
        peak_heap: crate::alloc::peak(),
        failed,
        probe,
        op_probe_ms,
    }
}

/// Mean lane fill of the simulator's batch runs, from its `sim.batch_lanes`
/// histogram (lanes per batch-engine invocation): stimuli ÷ (64 × lane
/// groups).
pub fn lane_fill(snap: &obs::Report) -> f64 {
    snap.histogram("sim.batch_lanes")
        .map_or(0.0, |h| h.sum / h.count.max(1) as f64 / sim::LANES as f64)
}

/// Ranks of injected statements among reported suspects (1-based; `None`
/// when the statement is not among them).
#[derive(Default)]
pub struct Quality {
    ranks: Vec<Option<usize>>,
}

impl Quality {
    pub fn push(&mut self, rank: Option<usize>) {
        self.ranks.push(rank);
    }

    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    fn share(&self, k: usize) -> f64 {
        let hits = self
            .ranks
            .iter()
            .filter(|r| r.is_some_and(|r| r <= k))
            .count();
        hits as f64 / self.ranks.len().max(1) as f64
    }

    pub fn p_at_1(&self) -> f64 {
        self.share(1)
    }

    pub fn p_at_5(&self) -> f64 {
        self.share(5)
    }

    pub fn mrr(&self) -> f64 {
        let sum: f64 = self.ranks.iter().flatten().map(|&r| 1.0 / r as f64).sum();
        sum / self.ranks.len().max(1) as f64
    }
}

/// 1-based position of `bug_stmt` in a suspect list of statement names.
pub fn rank_of<'a>(suspects: impl IntoIterator<Item = &'a str>, bug_stmt: &str) -> Option<usize> {
    suspects
        .into_iter()
        .position(|s| s == bug_stmt)
        .map(|p| p + 1)
}

/// Adds the end-to-end metric set every workload reports.
///
/// `tail_p` is the workload's tail percentile, fixed by its op count.
/// Times are scaled to the nominal probe time with the workload's
/// `host_exponent` (see [`at_nominal`]); the raw values go to the context
/// line.
pub fn end_to_end(
    out: &mut Outcome,
    setup: &SetupTimes,
    timed: &Timed,
    tail_p: f64,
    quality: &Quality,
    holdout_acc: f64,
    host_exponent: f64,
) {
    let ops = timed.lat_ms.len();
    let mut sorted = timed.lat_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let mut scaled: Vec<f64> = timed
        .lat_ms
        .iter()
        .zip(&timed.op_probe_ms)
        .map(|(lat, &p)| lat * at_nominal(p, host_exponent))
        .collect();
    let scale = scaled.iter().sum::<f64>() / timed.lat_ms.iter().sum::<f64>();
    scaled.sort_by(f64::total_cmp);
    let beyond = ops - stats::nearest_rank(tail_p, ops);
    let probe_ms = timed.probe.median_ms();
    let raw = [
        ("setup_s", stats::median(&setup.raw_s), "s"),
        ("throughput_ops_s", ops as f64 / timed.wall_s, "ops/s"),
        ("latency_p50_ms", stats::percentile(&sorted, 50.0), "ms"),
        ("latency_tail_ms", stats::percentile(&sorted, tail_p), "ms"),
        ("cpu_ms_per_op", timed.cpu_s * 1e3 / ops as f64, "ms"),
    ];
    let mut raw_json = String::from("{");
    for (i, &(name, value, unit)) in raw.iter().enumerate() {
        let at_nominal = match name {
            "throughput_ops_s" => value / scale,
            "latency_p50_ms" => stats::percentile(&scaled, 50.0),
            "latency_tail_ms" => stats::percentile(&scaled, tail_p),
            "setup_s" => stats::median(
                &setup
                    .raw_s
                    .iter()
                    .zip(&setup.probe_ms)
                    .map(|(s, &p)| s * at_nominal(p, host_exponent))
                    .collect::<Vec<_>>(),
            ),
            _ => value * scale,
        };
        out.metric(name, at_nominal, unit);
        let _ = write!(
            raw_json,
            "{}\"{name}\":{value}",
            if i > 0 { "," } else { "" }
        );
    }
    raw_json.push('}');
    out.metric(
        "peak_heap_mb",
        timed.peak_heap as f64 / (1024.0 * 1024.0),
        "MB",
    );
    out.metric("p_at_1", quality.p_at_1(), "ratio");
    out.metric("p_at_5", quality.p_at_5(), "ratio");
    out.metric("mrr", quality.mrr(), "ratio");
    out.metric("holdout_acc", holdout_acc, "ratio");
    out.fact("ops", ops.to_string());
    out.fact("tail_percentile", format!("{tail_p}"));
    out.fact("tail_samples_beyond", beyond.to_string());
    out.fact("quality_ops", quality.len().to_string());
    out.fact(
        "probe",
        format!(
            "{{\"median_ms\":{probe_ms},\"samples\":{},\"nominal_ms\":{NOMINAL_PROBE_MS},\"host_exponent\":{host_exponent}}}",
            timed.probe.samples()
        ),
    );
    out.fact("raw", raw_json);
    let mut children = String::from("[");
    for (i, s) in setup.raw_s.iter().enumerate() {
        let _ = write!(children, "{}{s}", if i > 0 { "," } else { "" });
    }
    children.push(']');
    out.fact("setup_children_s", children);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_budget_rounds_up_to_whole_periods() {
        assert_eq!(op_budget(10.0, 28.0, 200, 142), 284);
        assert_eq!(op_budget(10.0, 28.0, 200, 139), 278);
        assert_eq!(op_budget(1.0, 28.0, 200, 142), 284);
        assert_eq!(op_budget(10.0, 9.0, 20, 1), 90);
        assert_eq!(op_budget(10.0, 36.0, 284, 32), 352);
        assert_eq!(op_budget(0.01, 1.0, 0, 8), 8);
    }

    #[test]
    fn at_nominal_scales_by_a_power_of_the_probe_ratio() {
        assert_eq!(at_nominal(NOMINAL_PROBE_MS, 0.75), 1.0);
        assert_eq!(at_nominal(2.0 * NOMINAL_PROBE_MS, 1.0), 0.5);
        assert!((at_nominal(4.0 * NOMINAL_PROBE_MS, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quality_scores_ranks() {
        let mut q = Quality::default();
        for r in [Some(1), Some(3), None, Some(6)] {
            q.push(r);
        }
        assert_eq!(q.p_at_1(), 0.25);
        assert_eq!(q.p_at_5(), 0.5);
        assert!((q.mrr() - (1.0 + 1.0 / 3.0 + 1.0 / 6.0) / 4.0).abs() < 1e-12);
        assert_eq!(rank_of(["s1", "s4"], "s4"), Some(2));
        assert_eq!(rank_of(["s1"], "s9"), None);
    }
}
