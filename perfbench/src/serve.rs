//! The `serve_stream` workload: a cold-booted compile service in inline mode,
//! with a cache budget below the stream's working set, replaying a seeded
//! Zipf 1.0 request stream from two closed-loop clients. About 1 in 64
//! requests asks for a static analysis and about 1 in 2,000 is an online
//! tune; every client waits for each reply before sending its next request.

use crate::trace::{self, Trace};
use crate::{percentile, Args, Outcome, Rng};
use prism_core::{CompileSession, OptFlags};
use prism_corpus::Corpus;
use prism_emit::BackendKind;
use prism_gpu::Vendor;
use prism_serve::{
    request_stream, CompileRequest, CompileService, RequestTarget, ServeConfig, ServiceStats,
    StreamSpec,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Requests per replay, and the flag sets crossed with every shader and
/// backend to form the request population.
const REQUESTS: usize = 250_000;
const FLAG_SETS: usize = 32;
/// Zipf exponent of the stream (the stock serving mix uses 1.8, which is
/// almost all memo hits).
const SKEW: f64 = 1.0;
/// Cache entry budget, a multiple of the cache's 32 shard maps and below the
/// stream's working set, so the LRU evicts throughout the run.
const CACHE_BUDGET: usize = 2048;
/// One request in `ANALYZE_EVERY` asks for an analysis, one in `TUNE_EVERY`
/// is a tune call with a measurement budget of `TUNE_BUDGET`.
const ANALYZE_EVERY: usize = 64;
const TUNE_EVERY: usize = 2000;
const TUNE_BUDGET: usize = 16;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Requests generated per `request_stream` call: the stream is built in
/// chunks so the cloned request bodies never pile up in memory.
const CHUNK: usize = 16_384;

/// One client operation.
enum Op {
    /// A population request, by index.
    Compile(usize),
    /// An analysis request for (shader, flag set, vendor).
    Analyze(Box<CompileRequest>, usize, usize, Vendor),
    /// A tune call for (shader, vendor).
    Tune(usize, Vendor),
}

/// Everything a replay needs, built from the seed.
struct Setup {
    corpus: Corpus,
    flag_sets: Vec<OptFlags>,
    population: Vec<CompileRequest>,
    ops: Vec<Op>,
}

fn setup(args: &Args) -> Setup {
    let full = Corpus::gfxbench_like();
    let corpus = if args.smoke {
        full.subset(&["ui_blit_00", "color_grade_01", "utility_02", "particle_01"])
    } else {
        full
    };
    let (requests, flag_count, tune_every) = if args.smoke {
        (3_000, 4, 500)
    } else {
        (REQUESTS, FLAG_SETS, TUNE_EVERY)
    };
    let mut rng = Rng::new(args.seed ^ 0x5E4E_57A3);
    // Flag sets come in complementary pairs, so every flag is on in exactly
    // half of them and no seed draws a mix of mostly cheap or mostly costly
    // flags.
    let mut flag_sets: Vec<OptFlags> = Vec::new();
    while flag_sets.len() < flag_count {
        let bits = rng.below(256) as u8;
        let (flags, complement) = (OptFlags::from_bits(bits), OptFlags::from_bits(!bits));
        if !flag_sets.contains(&flags) && !flag_sets.contains(&complement) {
            flag_sets.extend([flags, complement]);
        }
    }
    let mut population = Vec::new();
    for case in &corpus.cases {
        for &flags in &flag_sets {
            for backend in BackendKind::ALL {
                population.push(
                    CompileRequest::builder(&case.source.text)
                        .flags(flags)
                        .backend(backend)
                        .build(),
                );
            }
        }
    }
    let shader_of: HashMap<&str, usize> = corpus
        .cases
        .iter()
        .enumerate()
        .map(|(i, c)| (c.source.text.as_str(), i))
        .collect();
    let index_of = |request: &CompileRequest| -> usize {
        let shader = shader_of[request.source.as_str()];
        let flags = flag_sets
            .iter()
            .position(|f| *f == request.flags)
            .expect("drawn flag set");
        let RequestTarget::Kind(backend) = &request.target else {
            panic!("request_stream targets backends directly")
        };
        let backend = BackendKind::ALL
            .iter()
            .position(|b| b == backend)
            .expect("known backend");
        (shader * flag_count + flags) * BackendKind::ALL.len() + backend
    };
    let mut stream = Vec::with_capacity(requests);
    let mut chunk = 0u64;
    while stream.len() < requests {
        let spec = StreamSpec {
            seed: rng.next_u64() ^ chunk,
            requests: CHUNK.min(requests - stream.len()),
            skew: SKEW,
            flag_sets: flag_sets.clone(),
        };
        stream.extend(request_stream(&corpus, &spec).iter().map(index_of));
        chunk += 1;
    }
    let per_shader = flag_count * BackendKind::ALL.len();
    // Analyze and tune calls take every `ANALYZE_EVERY`-th and
    // `tune_every`-th slot from a seeded offset, so every seed issues the
    // same number of each.
    let analyze_offset = rng.below(ANALYZE_EVERY);
    let tune_offset = rng.below(tune_every);
    let ops = stream
        .into_iter()
        .enumerate()
        .map(|(i, index)| {
            let vendor = Vendor::ALL[rng.below(Vendor::ALL.len())];
            let shader = index / per_shader;
            if (i + tune_offset).is_multiple_of(tune_every) {
                Op::Tune(shader, vendor)
            } else if (i + analyze_offset).is_multiple_of(ANALYZE_EVERY) {
                let flags = index % per_shader / BackendKind::ALL.len();
                let request = CompileRequest::builder(&corpus.cases[shader].source.text)
                    .flags(flag_sets[flags])
                    .backend(vendor.backend())
                    .analyze(vendor)
                    .build();
                Op::Analyze(Box::new(request), shader, flags, vendor)
            } else {
                Op::Compile(index)
            }
        })
        .collect();
    Setup {
        corpus,
        flag_sets,
        population,
        ops,
    }
}

fn boot(smoke: bool) -> CompileService {
    let budget = if smoke { 256 } else { CACHE_BUDGET };
    CompileService::new(
        ServeConfig::default()
            .with_workers(0)
            .with_cache_budget(budget),
    )
}

/// How a request was served, read from its response.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Class {
    /// Answered from the memo: no stage ran, nothing was emitted.
    Memo,
    /// Merged onto another request's in-flight compile.
    Coalesced,
    /// Cost the service work.
    Computed,
    Tune,
    #[default]
    Failed,
}

/// What one operation returned (the default is a failed operation).
#[derive(Default)]
struct Reply {
    class: Class,
    zero_copy: bool,
    work: usize,
    text: Option<Arc<str>>,
    analysis: Option<Arc<str>>,
}

/// One completed operation.
struct Done {
    op: usize,
    latency_ns: u64,
    reply: Reply,
}

/// The outcome of one replay.
struct Replay {
    wall_s: f64,
    done: Vec<Done>,
    stats: ServiceStats,
    errors: Vec<String>,
    traces: Vec<Trace>,
}

/// Replays every operation against a freshly booted service from
/// `CLIENTS` closed-loop threads; with `traced`, each call is a span.
fn replay(setup: &Setup, service: &CompileService, traced: bool) -> Replay {
    let cursor = AtomicUsize::new(0);
    let epoch = Instant::now();
    let per_client: Vec<(Vec<Done>, Vec<String>, Option<Trace>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut trace = traced.then(|| Trace::new(epoch, client as u32));
                    let mut done = Vec::new();
                    let mut errors = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = setup.ops.get(i) else { break };
                        let name = match op {
                            Op::Compile(_) => "serve.compile",
                            Op::Analyze(..) => "serve.analyze",
                            Op::Tune(..) => "serve.tune",
                        };
                        let t = Instant::now();
                        let result = match &mut trace {
                            Some(trace) => {
                                trace.span(name, i as u64, |_| serve_op(setup, service, op))
                            }
                            None => serve_op(setup, service, op),
                        };
                        let latency_ns = t.elapsed().as_nanos() as u64;
                        let reply = result.unwrap_or_else(|e| {
                            errors.push(format!("request {i}: {e}"));
                            Reply::default()
                        });
                        done.push(Done {
                            op: i,
                            latency_ns,
                            reply,
                        });
                    }
                    (done, errors, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut out = Replay {
        wall_s,
        done: Vec::new(),
        stats: service.stats(),
        errors: Vec::new(),
        traces: Vec::new(),
    };
    for (done, errors, trace) in per_client {
        out.done.extend(done);
        out.errors.extend(errors);
        out.traces.extend(trace);
    }
    out
}

fn serve_op(setup: &Setup, service: &CompileService, op: &Op) -> Result<Reply, String> {
    let request = match op {
        Op::Compile(index) => &setup.population[*index],
        Op::Analyze(request, ..) => request,
        Op::Tune(shader, vendor) => {
            let outcome = service
                .tune(
                    &setup.corpus.cases[*shader].source.text,
                    *vendor,
                    TUNE_BUDGET,
                )
                .map_err(|e| e.to_string())?;
            if !(outcome.best_ns.is_finite() && outcome.best_ns > 0.0) {
                return Err(format!("tune measured {} ns", outcome.best_ns));
            }
            return Ok(Reply {
                class: Class::Tune,
                ..Reply::default()
            });
        }
    };
    let response = service.compile(request).map_err(|e| e.to_string())?;
    let work = response.work.latency();
    let class = if response.coalesced {
        Class::Coalesced
    } else if work == 0 {
        Class::Memo
    } else {
        Class::Computed
    };
    Ok(Reply {
        class,
        zero_copy: response.zero_copy,
        work,
        text: Some(response.text),
        analysis: response.analysis,
    })
}

/// Key of a distinct response: the request it answers.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Compile(usize),
    Analyze(usize, usize, Vendor),
}

/// Every distinct response seen so far, checked against fresh compiles at
/// the end of the run.
#[derive(Default)]
struct Responses(HashMap<Key, Response>);

/// A response's text and, for analyze requests, its analysis.
type Response = (Arc<str>, Option<Arc<str>>);

impl Responses {
    /// Folds in one replay's responses; a request answered differently from
    /// an earlier identical request is a failure.
    fn merge(&mut self, setup: &Setup, replay: &Replay, out: &mut Outcome) {
        for d in &replay.done {
            let Some(text) = &d.reply.text else { continue };
            let key = match &setup.ops[d.op] {
                Op::Compile(index) => Key::Compile(*index),
                Op::Analyze(_, shader, flags, vendor) => Key::Analyze(*shader, *flags, *vendor),
                Op::Tune(..) => continue,
            };
            let entry = self
                .0
                .entry(key)
                .or_insert_with(|| (Arc::clone(text), d.reply.analysis.clone()));
            if *entry.0 != **text || entry.1 != d.reply.analysis {
                out.check(
                    false,
                    &format!(
                        "request {} answered differently from an identical one",
                        d.op
                    ),
                );
            }
        }
    }

    /// Every distinct response must equal what a fresh, uncached
    /// `CompileSession` emits (and, for analyses, what a fresh static
    /// analysis of that compile reports).
    fn verify(&self, setup: &Setup, out: &mut Outcome) {
        let per_shader = setup.flag_sets.len() * BackendKind::ALL.len();
        let mut by_shader: HashMap<usize, Vec<(&Key, &Response)>> = HashMap::new();
        for (key, value) in &self.0 {
            let shader = match key {
                Key::Compile(index) => index / per_shader,
                Key::Analyze(shader, ..) => *shader,
            };
            by_shader.entry(shader).or_default().push((key, value));
        }
        for (shader, entries) in by_shader {
            let case = &setup.corpus.cases[shader];
            let session = match CompileSession::new(&case.source, &case.name) {
                Ok(session) => session,
                Err(e) => {
                    out.check(false, &format!("{} does not lower: {e}", case.name));
                    continue;
                }
            };
            for (key, (text, analysis)) in entries {
                let (flags, backend) = match key {
                    Key::Compile(index) => (
                        setup.flag_sets[index % per_shader / BackendKind::ALL.len()],
                        BackendKind::ALL[index % BackendKind::ALL.len()],
                    ),
                    Key::Analyze(_, flags, vendor) => (setup.flag_sets[*flags], vendor.backend()),
                };
                let fresh = session.compile_for(flags, backend);
                let Ok(fresh) = fresh else {
                    out.check(false, &format!("{} {flags} does not compile", case.name));
                    continue;
                };
                out.check(
                    *fresh.glsl == **text,
                    &format!(
                        "served {} {flags} {backend} differs from a fresh compile",
                        case.name
                    ),
                );
                if let Key::Analyze(_, _, vendor) = key {
                    let served = analysis
                        .as_deref()
                        .map(prism_analyze::StaticReport::from_json);
                    let mut expected = prism_analyze::analyze(&fresh.ir, *vendor);
                    let same = match served {
                        Some(Ok(served)) => {
                            expected.shader = served.shader.clone();
                            served == expected
                        }
                        _ => false,
                    };
                    out.check(
                        same,
                        &format!(
                            "served analysis of {} {flags} for {vendor} differs from a fresh one",
                            case.name
                        ),
                    );
                }
            }
        }
    }
}

/// Checks one replay's health and counts its operations.
fn account(replay: &Replay, out: &mut Outcome) {
    out.attempted += replay.done.len() as u64;
    out.failed += (replay.errors.len() + replay.stats.compile_panics) as u64;
    for e in replay.errors.iter().take(5) {
        out.check(false, e);
    }
    out.check(
        replay.stats.compile_panics == 0,
        &format!("{} compile panics", replay.stats.compile_panics),
    );
}

fn latencies_us(replay: &Replay, keep: impl Fn(Class) -> bool) -> Vec<f64> {
    let mut v: Vec<f64> = replay
        .done
        .iter()
        .filter(|d| keep(d.reply.class))
        .map(|d| d.latency_ns as f64 * 1e-3)
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

pub fn serve_stream(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut set_up = || (setup(args), boot(args.smoke));
    let (setup, _) = out.set_up(1, &mut set_up);
    let mut responses = Responses::default();
    if args.trace {
        let ir_before = prism_ir::counters::snapshot();
        let untraced = replay(&setup, &boot(args.smoke), false);
        let ir = prism_ir::counters::snapshot().since(&ir_before);
        let traced = replay(&setup, &boot(args.smoke), true);
        for r in [&untraced, &traced] {
            account(r, &mut out);
            responses.merge(&setup, r, &mut out);
        }
        responses.verify(&setup, &mut out);
        let path = crate::trace_path(args);
        if let Err(e) = trace::write_json(&path, &args.workload, args.seed, &traced.traces) {
            out.check(false, &format!("could not write {}: {e}", path.display()));
        }
        per_layer(&mut out, &untraced, &traced, ir);
        return out;
    }
    let start = Instant::now();
    while out.more_passes(args, start) {
        out.set_up(1, &mut set_up);
        let service = boot(args.smoke);
        let r = out.pass(|| replay(&setup, &service, false));
        account(&r, &mut out);
        responses.merge(&setup, &r, &mut out);
    }
    responses.verify(&setup, &mut out);
    out.finish();
    out
}

fn per_layer(
    out: &mut Outcome,
    untraced: &Replay,
    traced: &Replay,
    ir: prism_ir::counters::IrCounters,
) {
    let requests = |c: Class| matches!(c, Class::Memo | Class::Coalesced | Class::Computed);
    let all = latencies_us(untraced, requests);
    let tunes = latencies_us(untraced, |c| c == Class::Tune);
    let hits = latencies_us(traced, |c| c == Class::Memo);
    let misses = latencies_us(traced, |c| c == Class::Computed);
    let count = |c: Class| traced.done.iter().filter(|d| d.reply.class == c).count() as f64;
    let served = traced
        .done
        .iter()
        .filter(|d| requests(d.reply.class))
        .count()
        .max(1) as f64;
    let zero_copy = traced.done.iter().filter(|d| d.reply.zero_copy).count() as f64;
    let work: usize = traced.done.iter().map(|d| d.reply.work).sum();
    let analyses = traced
        .done
        .iter()
        .filter(|d| d.reply.analysis.is_some())
        .count() as f64;
    let selfs = trace::self_times(&traced.traces);
    let spans: usize = traced.traces.iter().map(|t| t.spans().len()).sum();
    let s = &traced.stats;
    let m = &mut out.per_layer;
    m.set("glsl.parse_calls", s.front_lowers as f64);
    m.set("core.stage_runs", s.cache.stage_runs as f64);
    m.set("core.stage_hits", s.cache.stage_hits as f64);
    m.set("core.stage_hit_ratio", s.cache.stage_hit_rate());
    m.set("core.emissions", s.cache.emissions as f64);
    m.set("core.emission_hits", s.cache.emission_hits as f64);
    m.set("core.evictions", s.cache.evictions as f64);
    m.set("ir.ir_clones", ir.ir_clones as f64);
    m.set("ir.fingerprints_computed", ir.fingerprints_computed as f64);
    m.set("analyze.requests", analyses);
    m.set("analyze.static_analyses", s.cache.static_analyses as f64);
    m.set("analyze.memo_hits", s.cache.analysis_memo_hits as f64);
    m.set("search.tune_calls", s.tune_requests as f64);
    m.set("search.measurements", s.measurements_taken as f64);
    m.set("search.compiles", s.search_compiles as f64);
    m.set("search.pruned", s.search_candidates_pruned as f64);
    m.set("serve.rps", untraced.done.len() as f64 / untraced.wall_s);
    m.set("serve.p50_us", percentile(&all, 50.0));
    m.set("serve.p99_us", percentile(&all, 99.0));
    m.set("serve.tune_p50_ms", percentile(&tunes, 50.0) * 1e-3);
    m.set("serve.hit_p50_us", percentile(&hits, 50.0));
    m.set("serve.miss_p50_us", percentile(&misses, 50.0));
    m.set("serve.miss_p99_us", percentile(&misses, 99.0));
    m.set("serve.memo_served_ratio", count(Class::Memo) / served);
    m.set("serve.coalesced", count(Class::Coalesced));
    m.set("serve.zero_copy_ratio", zero_copy / served);
    m.set("serve.front_hits", s.front_hits as f64);
    m.set("serve.work_units", work as f64);
    m.set("serve.failed", count(Class::Failed));
    for (span, metric) in [
        ("serve.compile", "serve.compile_s"),
        ("serve.analyze", "serve.analyze_s"),
        ("serve.tune", "serve.tune_s"),
    ] {
        m.set(metric, selfs.get(span).copied().unwrap_or(0.0));
    }
    let spanned: f64 = selfs.values().sum();
    m.set("trace.traced_s", traced.wall_s);
    m.set("trace.untraced_s", untraced.wall_s);
    m.set("trace.overhead_ratio", traced.wall_s / untraced.wall_s);
    m.set(
        "trace.coverage_ratio",
        spanned / (traced.wall_s * CLIENTS as f64),
    );
    m.set("trace.spans", spans as f64);
}
