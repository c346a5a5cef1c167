//! `serve-closed`: one client in a closed loop against an in-process
//! `gana-serve` daemon over loopback TCP.
//!
//! The daemon is built as `gana serve` builds it, with one engine worker,
//! a single-thread intra-request budget, and drain-only micro-batching
//! (up to four queued annotates fuse; a lone request never waits for
//! company). The client sends the next request only after the previous
//! reply, so every request crosses the binary framing, the engine queue,
//! the batcher and the result cache (every request is distinct, so every
//! lookup misses) and nothing else competes for the worker. Requests are
//! cold-mix requests from a seeded stream.
//!
//! Generating a request costs about half as much as annotating it, so the
//! client generates a pool of distinct requests before the window and
//! cycles through it, prefixing every pass with its own comment line: no
//! two requests the daemon sees have the same text.
//!
//! A second client was tried and dropped: the requests queued behind a
//! phased array or SC filter fill the top 1% of latencies, and `p99_ms`
//! spread 0.26 over five seeds against 0.15 with one client.

use crate::inputs::{stream, ColdStream, Family, Rng, WARMUP};
use crate::stats::{self, ratio, Latencies, Reservoir};
use crate::{cold, trace, Args, Outcome, Pipelines};
use gana::netlist::{flatten, parse_library, write_spice, SpiceLibrary};
use gana::persist::EngineSnapshot;
use gana::serve::{serve, Annotation, Client, Engine, ServerConfig, ServerHandle, StatsSnapshot};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Label of the measured input stream.
const MEASURED: u64 = 0x5E4E;
/// Served requests kept, uniformly over the run, for the check.
const CHECKED: usize = 48;
/// Distinct requests the client generates before the window.
const POOL: usize = 2048;

/// A running daemon and the time it took to get ready.
struct Daemon {
    handle: ServerHandle,
    setup_s: f64,
}

/// Loads the snapshot, builds the engine and binds a fresh loopback port;
/// the daemon is ready once it listens. A ping, outside the set-up time,
/// confirms it answers.
fn start(snapshot: &Path) -> Result<Daemon, String> {
    let start = Instant::now();
    let snapshot = EngineSnapshot::load(snapshot).map_err(|e| e.to_string())?;
    let engine = Engine::builder()
        .workers(1)
        .intra_threads(1)
        .max_batch(4)
        .batch_window_us(0)
        .warm_from(snapshot)
        .build();
    let handle = serve(
        std::sync::Arc::new(engine),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            stats_interval: None,
            snapshot_interval: None,
        },
    )
    .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    Client::connect_binary(handle.local_addr())
        .and_then(|mut c| c.ping())
        .map_err(|e| format!("daemon not ready: {e}"))?;
    Ok(Daemon { handle, setup_s })
}

/// What the client saw over one window.
#[derive(Default)]
struct Driven {
    /// Latencies of untraced requests: every request of an untraced run.
    latencies: Latencies,
    /// Latencies of traced requests (traced runs only).
    traced: Latencies,
    sent: u64,
    completed: u64,
    failed: u64,
    elapsed_s: f64,
    /// Served requests kept for the check: family, request text and the
    /// served annotation.
    kept: Vec<(Family, String, Annotation)>,
}

pub fn run(args: &Args, snapshot: &Path) -> Result<Outcome, String> {
    // Set-up is timed once per daemon; all but the last are shut down.
    let mut setups = Vec::with_capacity(crate::SETUP_REPEATS);
    let mut daemon = start(snapshot)?;
    setups.push(daemon.setup_s);
    for _ in 1..crate::SETUP_REPEATS {
        daemon.handle.shutdown();
        daemon = start(snapshot)?;
        setups.push(daemon.setup_s);
    }
    let setup_s = stats::median(&setups);
    warm_up(&daemon, args.seed)?;

    let before = daemon.handle.engine().stats();
    if args.trace {
        trace::enable();
    }
    let driven = drive(
        daemon.handle.local_addr(),
        args.seed,
        Duration::from_secs_f64(args.seconds),
        args.trace,
    )?;
    let after = {
        let _s = trace::span("serve.stats", 0);
        daemon.handle.engine().stats()
    };
    let peak_rss_mb = stats::peak_rss_mb();
    let mut outcome = Outcome::default();
    let pipes = Pipelines::load(snapshot)?;
    // The daemon runs the cold path inside its worker, where the benchmark
    // cannot time it; the traced run times those layers on the in-process
    // re-annotation of the kept requests that the output check makes.
    check_kept(&mut outcome, &pipes, &driven, args.trace);
    if args.trace {
        let spans = trace::disable();
        let summary = crate::report_trace(args, &spans);
        let mut layer = cold::layer_metrics(&summary);
        layer.extend(serve_layers(&before, &after));
        layer.insert(
            "trace.overhead_pct".to_string(),
            crate::trace_overhead_pct(&driven.latencies, &driven.traced),
        );
        crate::per_layer(&mut outcome, &layer);
    } else {
        let (q, slices, tail) = driven.latencies.tail();
        println!(
            "serve-closed: {} requests in {:.2} s; tail is p{:.1}, median of {slices} slices",
            driven.completed,
            driven.elapsed_s,
            100.0 * q,
        );
        outcome.metric("setup_s", setup_s, "s");
        outcome.metric("p50_ms", driven.latencies.p50(), "ms");
        outcome.metric("p99_ms", tail, "ms");
        outcome.metric(
            "throughput_per_s",
            driven.completed as f64 / driven.elapsed_s,
            "1/s",
        );
        outcome.metric("peak_rss_mb", peak_rss_mb, "MB");
    }
    println!(
        "serve-closed: queue wait p50 {} us p99 {} us; recognize p50 {} us p99 {} us; batch size p50 {}",
        after.queue_wait_p50_us,
        after.queue_wait_p99_us,
        after.recognize_p50_us,
        after.recognize_p99_us,
        after.batch_size_p50
    );
    check_counts(&mut outcome, &driven, &before, &after);
    check_probes(&daemon, &pipes, &mut outcome);
    daemon.handle.shutdown();
    outcome.attempted += driven.sent;
    outcome.failed += driven.failed;
    Ok(outcome)
}

/// The serving layers, read from `Engine::stats` before and after the
/// window. The histogram quantiles cover the daemon's life, warm-up
/// included (four requests against thousands).
fn serve_layers(before: &StatsSnapshot, after: &StatsSnapshot) -> BTreeMap<String, f64> {
    let delta = |a: u64, b: u64| a.saturating_sub(b);
    let basis_hits = delta(after.basis_cache_hits, before.basis_cache_hits);
    let basis_misses = delta(after.basis_cache_misses, before.basis_cache_misses);
    [
        ("serve.queue_wait_p50_us", after.queue_wait_p50_us as f64),
        ("serve.queue_wait_p99_us", after.queue_wait_p99_us as f64),
        ("serve.recognize_p50_us", after.recognize_p50_us as f64),
        ("serve.recognize_p99_us", after.recognize_p99_us as f64),
        ("serve.batch_size_p50", after.batch_size_p50 as f64),
        (
            "serve.result_cache_hit_ratio",
            ratio(
                delta(after.cache_hits, before.cache_hits),
                delta(after.submitted, before.submitted),
            ),
        ),
        ("serve.shed", delta(after.shed, before.shed) as f64),
        (
            "serve.rejected",
            delta(after.rejected, before.rejected) as f64,
        ),
        (
            "gnn.basis_cache_hit_ratio",
            ratio(basis_hits, basis_hits + basis_misses),
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

/// Annotates one design per family, drawn from a stream disjoint from the
/// measured ones, so the daemon's lazy state is warm before timing.
fn warm_up(daemon: &Daemon, seed: u64) -> Result<(), String> {
    let mut client = Client::connect_binary(daemon.handle.local_addr())
        .map_err(|e| format!("warm-up connection: {e}"))?;
    let mut warm = ColdStream::new(stream(seed, WARMUP));
    for family in Family::ALL {
        let request = warm.next_of(family);
        client
            .annotate(&request.spice, family.task(), None)
            .map_err(|e| format!("warm-up {} request: {e}", family.name()))?;
    }
    Ok(())
}

/// One client on this thread: generates its request pool, then for
/// `window` sends the next request and waits for its reply. With `trace`,
/// every other request of each family is traced.
fn drive(addr: SocketAddr, seed: u64, window: Duration, trace: bool) -> Result<Driven, String> {
    let mut requests = ColdStream::new(stream(seed, MEASURED));
    let pool: Vec<(Family, String)> = (0..POOL)
        .map(|_| {
            let request = requests.next_request();
            (request.family, request.spice)
        })
        .collect();
    let mut keep = Rng::new(stream(seed, MEASURED + 1));
    let mut kept = Reservoir::new(CHECKED);
    let mut per_family: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut out = Driven::default();
    let mut client = Client::connect_binary(addr).map_err(|e| format!("client connect: {e}"))?;
    let start = Instant::now();
    let end = start + window;
    while Instant::now() < end {
        let (family, spice) = &pool[out.sent as usize % POOL];
        let text = format!("* perfbench pass {}\n{spice}", out.sent as usize / POOL);
        out.sent += 1;
        let nth = per_family.entry(family.name()).or_default();
        *nth += 1;
        let traced = trace && nth.is_multiple_of(2);
        let sent = Instant::now();
        let reply = {
            let _s = traced.then(|| trace::span("serve.request", out.sent));
            client.annotate(&text, family.task(), None)
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(annotation) => {
                if traced {
                    out.traced.push(ms);
                } else {
                    out.latencies.push(ms);
                }
                out.completed += 1;
                kept.offer(keep.next_u64(), || (*family, text, annotation));
            }
            Err(e) => {
                println!("serve-closed: {} request failed: {e}", family.name());
                out.failed += 1;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.kept = kept.items;
    Ok(out)
}

/// The daemon's counters must account for every request the client sent
/// in the window: as many submitted, and as many completed as the client
/// saw answered.
fn check_counts(
    outcome: &mut Outcome,
    driven: &Driven,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) {
    outcome.attempted += 1;
    let submitted = after.submitted - before.submitted;
    let completed = after.completed - before.completed;
    if submitted != driven.sent || completed != driven.completed {
        outcome.mismatch(format!(
            "daemon counted {submitted} submitted / {completed} completed; \
             the client sent {} / saw {} answered",
            driven.sent, driven.completed
        ));
    }
}

/// Served requests kept over the run must equal in-process `recognize`
/// of the same text on freshly loaded pipelines. With `traced`, the
/// in-process runs are made as their component calls, one span per crate
/// boundary.
fn check_kept(outcome: &mut Outcome, pipes: &Pipelines, driven: &Driven, traced: bool) {
    for (k, (family, text, served)) in driven.kept.iter().enumerate() {
        outcome.attempted += 1;
        let op = traced.then_some(k as u64);
        match in_process(pipes, *family, text, op) {
            Ok(expected) if expected == *served => {}
            Ok(_) => outcome.mismatch(format!(
                "served {} request differs from in-process recognize",
                family.name()
            )),
            Err(e) => outcome.mismatch(format!("in-process {} run failed: {e}", family.name())),
        }
    }
}

/// In-process annotation of `text`; traced as operation `op` when given.
fn in_process(
    pipes: &Pipelines,
    family: Family,
    text: &str,
    op: Option<u64>,
) -> Result<Annotation, String> {
    let _op = op.map(|op| trace::span("op", op));
    let flat = {
        let _s = op.map(|op| trace::span("netlist.parse", op));
        parse_library(text)
            .and_then(|lib| flatten(&lib))
            .map_err(|e| e.to_string())?
    };
    let pipeline = pipes.for_task(family.task());
    let design = match op {
        Some(op) => cold::recognize_traced(pipeline, &flat, op)?,
        None => pipeline.recognize(&flat).map_err(|e| e.to_string())?,
    };
    Ok(Annotation::from_design(&design))
}

/// A fixed probe set, one netlist per family, served over the wire after
/// the measured traffic must equal in-process `recognize`.
fn check_probes(daemon: &Daemon, pipes: &Pipelines, outcome: &mut Outcome) {
    let mut client = match Client::connect_binary(daemon.handle.local_addr()) {
        Ok(client) => client,
        Err(e) => {
            outcome.attempted += 1;
            outcome.mismatch(format!("probe connection failed: {e}"));
            return;
        }
    };
    for (k, family) in Family::ALL.into_iter().enumerate() {
        outcome.attempted += 1;
        let circuit = family.generate(0x9_0BE + k as u64).circuit;
        let text = write_spice(&SpiceLibrary::new(circuit));
        match (
            client.annotate(&text, family.task(), None),
            in_process(pipes, family, &text, None),
        ) {
            (Ok(served), Ok(expected)) if served == expected => {}
            (Ok(_), Ok(_)) => outcome.mismatch(format!(
                "served {} probe differs from in-process recognize",
                family.name()
            )),
            (served, expected) => outcome.mismatch(format!(
                "{} probe: served {:?}, in-process {:?}",
                family.name(),
                served.err(),
                expected.err()
            )),
        }
    }
}
