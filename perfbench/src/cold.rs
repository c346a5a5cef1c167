//! `cold-mix`: a closed loop of cold annotations on one thread.
//!
//! Each operation takes SPICE text through `parse_library` → `flatten` →
//! `Pipeline::recognize`, so every pipeline crate does its full work and
//! no cache, session or queue is involved. The requests come in the
//! proportions of the paper's Table II test set (see `inputs::cold_cycle`).

use crate::inputs::{stream, text_hash, ColdStream, Family, Request, Rng, WARMUP};
use crate::stats::{self, Latencies, Reservoir};
use crate::trace::{self, NameSummary};
use crate::{Args, Outcome, Pipelines};
use gana::core::{report, Pipeline, RecognizedDesign};
use gana::netlist::{flatten, parse_library, Circuit};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Label of the measured input stream.
const MEASURED: u64 = 0xC01D;
/// Requests kept, uniformly over the run, for the output check.
const CHECKED: usize = 48;
/// Lowest mean device accuracy per family that counts as a correct
/// annotation, well under what the `gana train` defaults reach.
const ACCURACY_FLOOR: f64 = 0.9;

struct Measured {
    /// Latencies of untraced operations: every operation of an untraced
    /// run, half of a traced one.
    latencies: Latencies,
    /// Latencies of traced operations (traced runs only).
    traced: Latencies,
    attempted: u64,
    failed: u64,
    /// Requests kept for the output check: family, generator seed and a
    /// hash of the full report (the request is rebuilt from its seed, so
    /// the sample costs no memory worth measuring).
    kept: Reservoir<(Family, u64, u64)>,
    /// Per family: summed device accuracy and designs scored.
    accuracy: BTreeMap<&'static str, (f64, u64)>,
    repeats_skipped: u64,
}

pub fn run(args: &Args, snapshot: &Path) -> Result<crate::Outcome, String> {
    let (pipes, setup_s) = crate::timed_setup(|| Pipelines::load(snapshot))?;
    warm_up(&pipes, args.seed)?;
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(args.seconds);
    if args.trace {
        trace::enable();
    }
    let measured = measure(&pipes, args.seed, window, args.trace);
    if args.trace {
        let spans = trace::disable();
        let summary = crate::report_trace(args, &spans);
        let mut layer = layer_metrics(&summary);
        layer.insert(
            "trace.overhead_pct".to_string(),
            crate::trace_overhead_pct(&measured.latencies, &measured.traced),
        );
        crate::per_layer(&mut outcome, &layer);
    } else {
        let (q, slices, tail) = measured.latencies.tail();
        println!(
            "cold-mix: {} operations; tail is p{:.1}, median of {slices} slices",
            measured.latencies.len(),
            100.0 * q,
        );
        outcome.metric("setup_s", setup_s, "s");
        outcome.metric("p50_ms", measured.latencies.p50(), "ms");
        outcome.metric("p99_ms", tail, "ms");
        outcome.metric(
            "throughput_per_s",
            measured.latencies.throughput_per_s(),
            "1/s",
        );
        outcome.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    check(&mut outcome, snapshot, &measured)?;
    println!(
        "cold-mix: {} content repeats skipped while generating inputs",
        measured.repeats_skipped
    );
    outcome.attempted += measured.attempted;
    outcome.failed += measured.failed;
    Ok(outcome)
}

/// Per-call self time and allocations of the cold-path layers, and
/// annotation calls per operation, from a trace summary. Layers without
/// spans are left out.
pub fn layer_metrics(summary: &BTreeMap<&'static str, NameSummary>) -> BTreeMap<String, f64> {
    let mut layer = BTreeMap::new();
    for (name, key) in [
        ("netlist.parse", "netlist.parse"),
        ("netlist.preprocess", "netlist.preprocess"),
        ("core.prepare", "core.prepare"),
        ("gnn.predict", "gnn.predict"),
        ("primitives.annotate", "primitives.annotate"),
        ("core.finish", "core.finish_rest"),
    ] {
        if let Some(s) = summary.get(name) {
            layer.insert(format!("{key}_us"), stats::median(&s.self_us));
            layer.insert(
                format!("{key}_allocs"),
                s.self_allocs as f64 / s.calls.max(1) as f64,
            );
        }
    }
    if let (Some(annotate), Some(op)) = (summary.get("primitives.annotate"), summary.get("op")) {
        layer.insert(
            "primitives.annotate_calls".to_string(),
            annotate.calls as f64 / op.calls.max(1) as f64,
        );
    }
    layer
}

/// Annotates one design of each family from a stream disjoint from the
/// measured one, so buffers and lazy state are warm before timing.
fn warm_up(pipes: &Pipelines, seed: u64) -> Result<(), String> {
    let mut warm = ColdStream::new(stream(seed, WARMUP));
    for family in Family::ALL {
        let request = warm.next_of(family);
        annotate(pipes, &request, 0, false).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// Runs the closed loop for `window`. A traced run traces every other
/// request of each family, so traced and untraced operations interleave
/// over the same window, see the same machine and have the same mix.
fn measure(pipes: &Pipelines, seed: u64, window: Duration, trace: bool) -> Measured {
    let mut requests = ColdStream::new(stream(seed, MEASURED));
    let mut keep = Rng::new(stream(seed, MEASURED + 1));
    let mut per_family: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut out = Measured {
        latencies: Latencies::default(),
        traced: Latencies::default(),
        attempted: 0,
        failed: 0,
        kept: Reservoir::new(CHECKED),
        accuracy: BTreeMap::new(),
        repeats_skipped: 0,
    };
    let end = Instant::now() + window;
    let mut op = 0u64;
    while Instant::now() < end {
        let request = requests.next_request();
        op += 1;
        out.attempted += 1;
        let nth = per_family.entry(request.family.name()).or_default();
        *nth += 1;
        let traced = trace && nth.is_multiple_of(2);
        let start = Instant::now();
        let result = annotate(pipes, &request, op, traced);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(design) => {
                if traced {
                    out.traced.push(ms);
                } else {
                    out.latencies.push(ms);
                }
                let truth = &request.labeled;
                let accuracy = design.device_accuracy(
                    truth
                        .device_class
                        .iter()
                        .map(|(d, &c)| (d.as_str(), truth.class_names[c].as_str())),
                );
                let slot = out.accuracy.entry(request.family.name()).or_default();
                slot.0 += accuracy;
                slot.1 += 1;
                out.kept.offer(keep.next_u64(), || {
                    let report = text_hash(&report::full_report(&design));
                    (request.family, request.seed, report)
                });
            }
            Err(e) => {
                println!("cold-mix: {} request failed: {e}", request.family.name());
                out.failed += 1;
            }
        }
    }
    out.repeats_skipped = requests.repeats_skipped;
    out
}

/// One cold request. The traced form makes the same calls as
/// `Pipeline::recognize`, one span per crate boundary.
fn annotate(
    pipes: &Pipelines,
    request: &Request,
    op: u64,
    traced: bool,
) -> Result<RecognizedDesign, String> {
    let pipeline = pipes.for_task(request.family.task());
    if !traced {
        let library = parse_library(&request.spice).map_err(|e| e.to_string())?;
        let flat = flatten(&library).map_err(|e| e.to_string())?;
        return pipeline.recognize(&flat).map_err(|e| e.to_string());
    }
    let _op = trace::span("op", op);
    let flat = {
        let _s = trace::span("netlist.parse", op);
        let library = parse_library(&request.spice).map_err(|e| e.to_string())?;
        flatten(&library).map_err(|e| e.to_string())?
    };
    recognize_traced(pipeline, &flat, op)
}

/// `Pipeline::recognize` of a flat circuit, made as its component calls
/// with one span per crate boundary.
pub fn recognize_traced(
    pipeline: &Pipeline,
    flat: &Circuit,
    op: u64,
) -> Result<RecognizedDesign, String> {
    let clean = {
        let _s = trace::span("netlist.preprocess", op);
        pipeline.preprocess_only(flat).map_err(|e| e.to_string())?
    };
    let (graph, sample) = {
        let _s = trace::span("core.prepare", op);
        pipeline
            .prepare_preprocessed(&clean)
            .map_err(|e| e.to_string())?
    };
    let gcn_class = {
        let _s = trace::span("gnn.predict", op);
        pipeline
            .predict_sample(&sample)
            .map_err(|e| e.to_string())?
    };
    let _s = trace::span("core.finish", op);
    let library = pipeline.library();
    let matcher = pipeline.workspace().matcher();
    Ok(
        pipeline.finish_with_annotator(clean, graph, gcn_class, &|par, circuit, graph| {
            let _s = trace::span("primitives.annotate", op);
            gana::primitives::annotate_with_workspace(par, library, circuit, graph, matcher)
        }),
    )
}

/// Output checks, outside every timed span: the kept requests re-run on
/// freshly loaded pipelines must reproduce their reports byte for byte
/// (no state leaks between requests), and each family's mean device
/// accuracy against the generator's ground truth must reach the floor.
fn check(outcome: &mut Outcome, snapshot: &Path, measured: &Measured) -> Result<(), String> {
    let fresh = Pipelines::load(snapshot)?;
    for &(family, seed, expected) in &measured.kept.items {
        outcome.attempted += 1;
        let request = Request::new(family, seed);
        match annotate(&fresh, &request, 0, false) {
            Ok(design) if text_hash(&report::full_report(&design)) == expected => {}
            Ok(_) => outcome.mismatch(format!(
                "{} request: report differs from a fresh cold run",
                request.family.name()
            )),
            Err(e) => outcome.mismatch(format!("{} re-run failed: {e}", request.family.name())),
        }
    }
    for (family, (sum, n)) in &measured.accuracy {
        let mean = sum / *n as f64;
        println!("cold-mix: {family} mean device accuracy {mean:.4} over {n} designs");
        outcome.attempted += 1;
        if mean < ACCURACY_FLOOR {
            outcome.mismatch(format!(
                "{family} mean device accuracy {mean:.4} under the floor {ACCURACY_FLOOR}"
            ));
        }
    }
    for family in Family::ALL {
        if !measured.accuracy.contains_key(family.name()) {
            outcome.mismatch(format!("no {} request completed", family.name()));
        }
    }
    Ok(())
}
