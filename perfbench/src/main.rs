//! Seeded end-to-end benchmark of the GANA annotation stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run trains the `gana train`-default models in an untimed child
//! process, saves them as a GANASNAP snapshot, loads that snapshot the way
//! `gana serve` does, runs one workload on seeded inputs for `--seconds`,
//! checks the outputs, and prints one JSON result as its last line. With
//! `--trace 1` it prints the per-layer metrics instead of the end-to-end
//! ones. See `README.md` for the workloads and metrics.

mod cold;
mod edit;
mod inputs;
mod serve;
mod stats;
mod trace;

use gana::core::{Pipeline, Task};
use gana::datasets::{ota, ota_classes, rf, rf_classes};
use gana::gnn::{GcnConfig, TrainerConfig};
use gana::persist::{EngineSnapshot, ModelEntry};
use gana::primitives::PrimitiveLibrary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups timed per run; `setup_s` is their median. A set-up takes a few
/// milliseconds, so many are cheap and make the median steady.
pub const SETUP_REPEATS: usize = 21;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed output check; every mismatch is printed.
    pub fn mismatch(&mut self, what: String) {
        println!("check failed: {what}");
        self.failed += 1;
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("fixture") {
        match argv.get(1) {
            Some(out) => train_fixture(Path::new(out)),
            None => fail("usage: gana-perfbench fixture OUT"),
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| fail(&e));
    let snapshot = build_fixture().unwrap_or_else(|e| fail(&e));
    let result = match args.workload.as_str() {
        "cold-mix" => cold::run(&args, &snapshot),
        "edit-splice" => edit::run(&args, &snapshot, edit::Mode::Splice),
        "edit-rerun" => edit::run(&args, &snapshot, edit::Mode::Rerun),
        "serve-closed" => serve::run(&args, &snapshot),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_file(&snapshot);
    let outcome = result.unwrap_or_else(|e| fail(&e));
    print_result(&args, &outcome);
}

fn fail(message: &str) -> ! {
    eprintln!("gana-perfbench: {message}");
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Trains the fixture models in a child process (so neither training time
/// nor training memory lands in this process's figures) and returns the
/// snapshot path, next to the benchmark executable.
fn build_fixture() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let path = dir.join(format!("perfbench-fixture-{}.gsnap", std::process::id()));
    let status = std::process::Command::new(&exe)
        .arg("fixture")
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start fixture training: {e}"))?;
    if !status.success() {
        return Err(format!("fixture training failed: {status}"));
    }
    Ok(path)
}

/// `gana train`'s defaults: 128 circuits, 12 epochs, filter order K=16,
/// conv [16, 32], FC 128, seed 1. Deterministic for a given build.
fn train_fixture(out: &Path) {
    let library = PrimitiveLibrary::standard().unwrap_or_else(|e| fail(&e.to_string()));
    let models = [
        (Task::OtaBias, ota::corpus(128, 1), &ota_classes::NAMES[..]),
        (Task::Rf, rf::corpus(128, 1), &rf_classes::NAMES[..]),
    ]
    .into_iter()
    .map(|(task, corpus, names)| {
        let model_config = GcnConfig {
            conv_channels: vec![16, 32],
            filter_order: 16,
            fc_dim: 128,
            num_classes: names.len(),
            dropout: 0.1,
            batch_norm: false,
            ..GcnConfig::default()
        };
        let trainer_config = TrainerConfig {
            epochs: 12,
            learning_rate: 4e-3,
            ..TrainerConfig::default()
        };
        let trainer = gana::eval::train_on_corpus(&corpus, model_config, trainer_config, 1)
            .unwrap_or_else(|e| fail(&format!("training failed: {e}")));
        ModelEntry {
            task,
            class_names: names.iter().map(|s| s.to_string()).collect(),
            model: trainer.model().clone(),
        }
    })
    .collect();
    let snapshot = EngineSnapshot {
        models,
        library,
        cache_entries: Vec::new(),
    };
    if let Err(e) = snapshot.save(out) {
        fail(&format!("cannot save fixture snapshot: {e}"));
    }
}

/// The two serving pipelines, loaded from the snapshot as `gana serve`
/// loads them, with a single-thread intra-request budget.
pub struct Pipelines {
    pub ota: Pipeline,
    pub rf: Pipeline,
}

impl Pipelines {
    pub fn load(snapshot: &Path) -> Result<Pipelines, String> {
        let snapshot = EngineSnapshot::load(snapshot).map_err(|e| e.to_string())?;
        let library = Arc::new(snapshot.library);
        let mut ota = None;
        let mut rf = None;
        for entry in snapshot.models {
            let pipeline = Pipeline::shared(
                Arc::new(entry.model),
                entry.class_names.into(),
                Arc::clone(&library),
                entry.task,
            )
            .with_threads(1);
            match entry.task {
                Task::OtaBias => ota = Some(pipeline),
                Task::Rf => rf = Some(pipeline),
            }
        }
        Ok(Pipelines {
            ota: ota.ok_or("snapshot has no OTA model")?,
            rf: rf.ok_or("snapshot has no RF model")?,
        })
    }

    pub fn for_task(&self, task: Task) -> &Pipeline {
        match task {
            Task::OtaBias => &self.ota,
            Task::Rf => &self.rf,
        }
    }
}

/// Every per-layer metric, with its unit, in print order. A traced run
/// prints all of them; a layer its workload does not enter reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("netlist.parse_us", "us"),
    ("netlist.parse_allocs", "count"),
    ("netlist.preprocess_us", "us"),
    ("netlist.preprocess_allocs", "count"),
    ("core.prepare_us", "us"),
    ("core.prepare_allocs", "count"),
    ("gnn.predict_us", "us"),
    ("gnn.predict_allocs", "count"),
    ("primitives.annotate_us", "us"),
    ("primitives.annotate_allocs", "count"),
    ("primitives.annotate_calls", "count"),
    ("core.finish_rest_us", "us"),
    ("core.finish_rest_allocs", "count"),
    ("incremental.update_us", "us"),
    ("incremental.update_allocs", "count"),
    ("incremental.full_splice_share", "ratio"),
    ("incremental.dirty_regions", "count"),
    ("incremental.clean_regions", "count"),
    ("incremental.inferred_vertex_share", "ratio"),
    ("incremental.region_cache_hit_ratio", "ratio"),
    ("gnn.basis_cache_hit_ratio", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.recognize_p50_us", "us"),
    ("serve.recognize_p99_us", "us"),
    ("serve.batch_size_p50", "count"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
];

/// Emits every [`PER_LAYER`] metric, taking measured values from `values`.
pub fn per_layer(outcome: &mut Outcome, values: &std::collections::BTreeMap<String, f64>) {
    for (name, unit) in PER_LAYER {
        outcome.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not listed"
        );
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, stats::median(&times)))
}

/// Trace overhead in percent: the p50 of the traced operations over that
/// of the untraced ones interleaved with them in the same window.
pub fn trace_overhead_pct(plain: &stats::Latencies, traced: &stats::Latencies) -> f64 {
    let overhead = traced.p50() / plain.p50() - 1.0;
    println!(
        "trace overhead: p50 {:.4} ms over {} traced operations vs {:.4} ms over {} untraced ({:+.2}%)",
        traced.p50(),
        traced.len(),
        plain.p50(),
        plain.len(),
        100.0 * overhead
    );
    100.0 * overhead
}

/// Writes the recorded spans next to the executable and prints the
/// per-span table: calls, self time, allocations.
pub fn report_trace(
    args: &Args,
    trace: &trace::Trace,
) -> std::collections::BTreeMap<&'static str, trace::NameSummary> {
    let summary = trace.summarize();
    if let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
    {
        let path = dir.join(format!(
            "perfbench-spans-{}-{}.tsv",
            args.workload, args.seed
        ));
        match std::fs::write(&path, trace.to_tsv()) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("cannot write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{:<24} {:>8} {:>14} {:>14} {:>14}",
        "span", "calls", "self p50 us", "self total ms", "allocs/call"
    );
    for (name, s) in &summary {
        println!(
            "{:<24} {:>8} {:>14.1} {:>14.1} {:>14.1}",
            name,
            s.calls,
            stats::median(&s.self_us),
            s.self_us.iter().sum::<f64>() / 1e3,
            s.self_allocs as f64 / s.calls.max(1) as f64
        );
    }
    summary
}

fn print_result(args: &Args, outcome: &Outcome) {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        println!(
            "{} seed={} {name} = {value} {unit}",
            args.workload, args.seed
        );
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    println!(
        "{} seed={} attempted = {} failed = {} failed_frac = {}",
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.failed,
        stats::ratio(outcome.failed, outcome.attempted.max(1))
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
}

#[cfg(test)]
mod tests {
    /// The per-layer list printed by traced runs is the one the benchmark
    /// declares.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        for (name, unit) in super::PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "{name} ({unit}) not declared");
        }
        let per_layer = declared.split("\"per_layer\"").nth(1).expect("per_layer");
        assert_eq!(
            per_layer.matches("\"name\"").count(),
            super::PER_LAYER.len()
        );
    }
}
