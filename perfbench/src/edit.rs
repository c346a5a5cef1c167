//! `edit-splice` and `edit-rerun`: a closed loop of single edits through
//! `IncrementalPipeline::update`, configured as `gana serve` configures
//! its sessions (one shared region cache, one shared Chebyshev basis
//! cache of the default size, a single-thread intra-request budget).
//!
//! Sessions start from a paper-scale phased array and one RF receiver of
//! each of the 27 LNA × mixer × oscillator variants (seeds vary sizing and
//! values) and take edits round-robin, each against its session's latest
//! baseline. Sessions keep their size: widths are
//! drawn around the opened design's, and an added capacitor replaces the
//! one the session added before. `edit-splice` applies transistor
//! resizes, which fold to a full splice and never reach the GCN or VF2;
//! `edit-rerun` applies bucket-crossing revalues and added devices, which
//! dirty regions and re-run the GCN and VF2 there. A cold-path gain should
//! therefore move `edit-rerun` and leave `edit-splice` alone.

use crate::inputs::{edit, receiver, stream, EditKind, Family, Rng, RECEIVER_VARIANTS, WARMUP};
use crate::stats::{self, ratio, Latencies, Reservoir};
use crate::{cold, trace, Args, Outcome, Pipelines};
use gana::core::{report, Pipeline, Task};
use gana::gnn::{BasisCache, BasisCacheStats};
use gana::incremental::{
    structural_hash, Baseline, IncrementalPipeline, RegionCache, RegionCacheStats,
};
use gana::netlist::Circuit;
use gana::serve::DEFAULT_BASIS_CACHE_BYTES;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which edits a run applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Splice,
    Rerun,
}

/// Label of the measured input stream.
const MEASURED: u64 = 0xED17;
/// Updates kept, uniformly over the run, for the cold-equivalence check.
const CHECKED: usize = 32;
/// Candidate edits drawn per operation before giving up on finding one of
/// the workload's class.
const EDIT_TRIES: usize = 16;
/// Edits applied to the warm-up session before timing.
const WARMUP_EDITS: usize = 6;

/// The serve-configured incremental pipelines and their shared caches.
struct Incremental {
    ota: IncrementalPipeline,
    rf: IncrementalPipeline,
    regions: Arc<RegionCache>,
    bases: Arc<BasisCache>,
}

impl Incremental {
    fn new(pipes: &Pipelines) -> Incremental {
        let regions = Arc::new(RegionCache::new(IncrementalPipeline::DEFAULT_CACHE_BYTES));
        let bases = Arc::new(BasisCache::new(DEFAULT_BASIS_CACHE_BYTES));
        let wrap = |p: &Pipeline| {
            IncrementalPipeline::with_cache(
                p.clone().with_basis_cache(Arc::clone(&bases)),
                Arc::clone(&regions),
            )
        };
        Incremental {
            ota: wrap(&pipes.ota),
            rf: wrap(&pipes.rf),
            regions,
            bases,
        }
    }

    fn for_task(&self, task: Task) -> &IncrementalPipeline {
        match task {
            Task::OtaBias => &self.ota,
            Task::Rf => &self.rf,
        }
    }
}

struct Session {
    task: Task,
    /// The design the session opened on; edits keep its size.
    origin: Circuit,
    circuit: Circuit,
    baseline: Baseline,
}

struct Measured {
    /// Latencies of untraced updates: every update of an untraced run,
    /// half of a traced one.
    latencies: Latencies,
    /// Latencies of traced updates (traced runs only).
    traced: Latencies,
    attempted: u64,
    failed: u64,
    /// Edited circuits kept for the check, with the incremental report.
    kept: Reservoir<(Task, Circuit, String)>,
    per_kind: BTreeMap<&'static str, u64>,
    updates: u64,
    full_splices: u64,
    dirty_regions: u64,
    clean_regions: u64,
    inferred_vertices: u64,
    total_vertices: u64,
    region: RegionCacheStats,
    basis: BasisCacheStats,
}

pub fn run(args: &Args, snapshot: &Path, mode: Mode) -> Result<Outcome, String> {
    let name = match mode {
        Mode::Splice => "edit-splice",
        Mode::Rerun => "edit-rerun",
    };
    let (pipes, setup_s) = crate::timed_setup(|| Pipelines::load(snapshot))?;
    let mut outcome = Outcome::default();
    let window = Duration::from_secs_f64(args.seconds);
    if args.trace {
        trace::enable();
    }
    let measured = measure(&pipes, args.seed, mode, window, args.trace)?;
    let peak_rss_mb = stats::peak_rss_mb();
    // On edit-rerun every update re-runs graph preparation, the GCN and
    // annotation on its dirty regions, inside `update` where the benchmark
    // cannot time them; the traced run times those layers on the cold
    // re-annotation of the checked edits instead. Edit-splice updates never
    // enter them.
    check(
        &mut outcome,
        snapshot,
        &measured,
        args.trace && mode == Mode::Rerun,
    )?;
    if args.trace {
        let spans = trace::disable();
        let summary = crate::report_trace(args, &spans);
        let mut layer = cold::layer_metrics(&summary);
        if let Some(s) = summary.get("incremental.update") {
            layer.insert(
                "incremental.update_us".to_string(),
                stats::median(&s.self_us),
            );
            layer.insert(
                "incremental.update_allocs".to_string(),
                s.self_allocs as f64 / s.calls.max(1) as f64,
            );
        }
        let updates = measured.updates.max(1) as f64;
        for (key, value) in [
            (
                "incremental.full_splice_share",
                measured.full_splices as f64 / updates,
            ),
            (
                "incremental.dirty_regions",
                measured.dirty_regions as f64 / updates,
            ),
            (
                "incremental.clean_regions",
                measured.clean_regions as f64 / updates,
            ),
            (
                "incremental.inferred_vertex_share",
                ratio(measured.inferred_vertices, measured.total_vertices),
            ),
            (
                "incremental.region_cache_hit_ratio",
                ratio(
                    measured.region.hits,
                    measured.region.hits + measured.region.misses,
                ),
            ),
            (
                "gnn.basis_cache_hit_ratio",
                ratio(
                    measured.basis.hits,
                    measured.basis.hits + measured.basis.misses,
                ),
            ),
            (
                "trace.overhead_pct",
                crate::trace_overhead_pct(&measured.latencies, &measured.traced),
            ),
        ] {
            layer.insert(key.to_string(), value);
        }
        crate::per_layer(&mut outcome, &layer);
    } else {
        let (q, slices, tail) = measured.latencies.tail();
        println!(
            "{name}: {} updates; tail is p{:.1}, median of {slices} slices",
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
        outcome.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
    println!(
        "{name}: edits {:?}; full splices {:.3}; region cache {} hits / {} lookups; basis cache {} hits / {} lookups",
        measured.per_kind,
        measured.full_splices as f64 / measured.updates.max(1) as f64,
        measured.region.hits,
        measured.region.hits + measured.region.misses,
        measured.basis.hits,
        measured.basis.hits + measured.basis.misses,
    );
    outcome.attempted += measured.attempted;
    outcome.failed += measured.failed;
    Ok(outcome)
}

fn kind_for(mode: Mode, rng: &mut Rng) -> EditKind {
    match mode {
        Mode::Splice => EditKind::Resize,
        Mode::Rerun if rng.below(2) == 0 => EditKind::Revalue,
        Mode::Rerun => EditKind::AddDevice,
    }
}

/// Draws the next edit of the workload's class, outside the timed span:
/// `edit-splice` keeps edits that leave the preprocessed structure (and so
/// the baseline's structural hash) unchanged, `edit-rerun` keeps edits
/// that change it. Fresh draws replace rejected candidates, so every edit
/// stays distinct. The preprocessing it runs is the call `update` begins
/// with, on the same circuit, so on traced operations it is timed as
/// `netlist.preprocess`.
fn next_edit(
    pipeline: &Pipeline,
    session: &Session,
    mode: Mode,
    rng: &mut Rng,
    op: u64,
    traced: bool,
) -> Option<(EditKind, Circuit)> {
    for _ in 0..EDIT_TRIES {
        let kind = kind_for(mode, rng);
        let Some(edited) = edit(&session.circuit, &session.origin, kind, rng, op) else {
            continue;
        };
        let clean = {
            let _s = traced.then(|| trace::span("netlist.preprocess", op));
            pipeline.preprocess_only(&edited).ok()?
        };
        if (structural_hash(&clean) == session.baseline.canon) == (mode == Mode::Splice) {
            return Some((kind, edited));
        }
    }
    None
}

fn open(inc: &Incremental, circuit: Circuit, task: Task) -> Result<Session, String> {
    let baseline = inc
        .for_task(task)
        .annotate_full(&circuit)
        .map_err(|e| format!("opening a session on {}: {e}", circuit.name()))?;
    Ok(Session {
        task,
        origin: circuit.clone(),
        circuit,
        baseline,
    })
}

/// Runs a fresh set of serve-configured pipelines: a warm-up session on
/// inputs disjoint from the measured ones, then the measured sessions for
/// `window`. A traced run traces every other update of each session, so
/// traced and untraced updates interleave over the same window, see the
/// same machine and have the same mix.
fn measure(
    pipes: &Pipelines,
    seed: u64,
    mode: Mode,
    window: Duration,
    trace: bool,
) -> Result<Measured, String> {
    let inc = Incremental::new(pipes);
    let mut rng = Rng::new(stream(seed, MEASURED));

    let mut warm_rng = Rng::new(stream(seed, WARMUP));
    let mut warm = open(
        &inc,
        Family::Rf.generate(warm_rng.next_u64()).circuit,
        Task::Rf,
    )?;
    for serial in 0..WARMUP_EDITS {
        let kind = kind_for(mode, &mut warm_rng);
        if let Some(edited) = edit(
            &warm.circuit,
            &warm.origin,
            kind,
            &mut warm_rng,
            serial as u64,
        ) {
            let (next, _) = inc
                .for_task(warm.task)
                .update(&warm.baseline, &edited)
                .map_err(|e| format!("warm-up edit: {e}"))?;
            warm.baseline = next;
            warm.circuit = edited;
        }
    }

    let pa = Family::PhasedArray.generate(rng.next_u64()).circuit;
    let mut sessions = vec![open(&inc, pa, Task::Rf)?];
    for variant in 0..RECEIVER_VARIANTS {
        let rx = receiver(variant, rng.next_u64()).circuit;
        sessions.push(open(&inc, rx, Task::Rf)?);
    }
    let region_before = inc.regions.stats();
    let basis_before = inc.bases.stats();

    let mut out = Measured {
        latencies: Latencies::default(),
        traced: Latencies::default(),
        attempted: 0,
        failed: 0,
        kept: Reservoir::new(CHECKED),
        per_kind: BTreeMap::new(),
        updates: 0,
        full_splices: 0,
        dirty_regions: 0,
        clean_regions: 0,
        inferred_vertices: 0,
        total_vertices: 0,
        region: RegionCacheStats::default(),
        basis: BasisCacheStats::default(),
    };
    let end = Instant::now() + window;
    let mut op = 0u64;
    while Instant::now() < end {
        let count = sessions.len() as u64;
        let session = &mut sessions[(op % count) as usize];
        let traced = trace && (op / count) % 2 == 1;
        op += 1;
        let pipeline = inc.for_task(session.task);
        let Some((kind, edited)) =
            next_edit(pipeline.pipeline(), session, mode, &mut rng, op, traced)
        else {
            return Err(format!(
                "no {mode:?} edit found for {}",
                session.circuit.name()
            ));
        };
        out.attempted += 1;
        *out.per_kind.entry(kind.name()).or_default() += 1;
        let start = Instant::now();
        let result = {
            let _s = traced.then(|| trace::span("incremental.update", op));
            pipeline.update(&session.baseline, &edited)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((next, update)) => {
                if traced {
                    out.traced.push(ms);
                } else {
                    out.latencies.push(ms);
                }
                out.updates += 1;
                out.full_splices += u64::from(update.full_splice);
                out.dirty_regions += update.dirty_regions as u64;
                out.clean_regions += update.clean_regions as u64;
                out.inferred_vertices += update.inferred_vertices as u64;
                out.total_vertices += next.design.graph.vertex_count() as u64;
                out.kept.offer(rng.next_u64(), || {
                    (
                        session.task,
                        edited.clone(),
                        report::full_report(&next.design),
                    )
                });
                session.baseline = next;
                session.circuit = edited;
            }
            Err(e) => {
                println!("{} update failed: {e}", kind.name());
                out.failed += 1;
            }
        }
    }
    let region = inc.regions.stats();
    let basis = inc.bases.stats();
    out.region = RegionCacheStats {
        hits: region.hits - region_before.hits,
        misses: region.misses - region_before.misses,
        ..region
    };
    out.basis = BasisCacheStats {
        hits: basis.hits - basis_before.hits,
        misses: basis.misses - basis_before.misses,
        ..basis
    };
    Ok(out)
}

/// Output check, outside every timed measurement: each kept update's
/// report must equal a cold `recognize` of the edited netlist on freshly
/// loaded pipelines. With `traced`, the cold runs are made as their
/// component calls, one span per crate boundary.
fn check(
    outcome: &mut Outcome,
    snapshot: &Path,
    measured: &Measured,
    traced: bool,
) -> Result<(), String> {
    let fresh = Pipelines::load(snapshot)?;
    for (k, (task, circuit, expected)) in measured.kept.items.iter().enumerate() {
        outcome.attempted += 1;
        let pipeline = fresh.for_task(*task);
        let cold = if traced {
            let _op = trace::span("op", k as u64);
            cold::recognize_traced(pipeline, circuit, k as u64)
        } else {
            pipeline.recognize(circuit).map_err(|e| e.to_string())
        };
        match cold {
            Ok(design) if report::full_report(&design) == *expected => {}
            Ok(_) => outcome.mismatch(format!(
                "update of {}: report differs from a cold recognize",
                circuit.name()
            )),
            Err(e) => outcome.mismatch(format!("cold recognize of {} failed: {e}", circuit.name())),
        }
    }
    Ok(())
}
