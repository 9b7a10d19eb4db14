//! The two study workloads: `study_cold` (the full sweep from an empty
//! cache) and `study_warm` (a seeded subset warm-started from a snapshot the
//! set-up writes), plus the traced re-drive of the sweep that splits a study's
//! wall-clock into per-crate layers.

use crate::trace::{self, Trace};
use crate::{Args, Metrics, Outcome, Rng};
use prism_core::specialize::{candidate_keys, default_probe_points, verify_specialization};
use prism_core::{CacheStore, CompileError, CompileSession, CorpusCache, Flag, OptFlags};
use prism_corpus::{Corpus, ShaderCase};
use prism_emit::BackendKind;
use prism_glsl::ShaderSource;
use prism_gpu::{Platform, ShaderCost, Vendor};
use prism_harness::{measure_cost, MeasureConfig};
use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
use prism_search::{
    run_study, ShaderPlatformRecord, ShaderRecord, SkippedShader, SpecializationRecord,
    StudyConfig, StudyResults, VariantRecord,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Specialization candidates measured per shader (the AZP axis).
const SPEC_LIMIT: usize = 4;
/// Shaders in the `study_warm` draw: about one eighth of the corpus.
const WARM_SHADERS: usize = 13;
/// Payload bytes, beyond those of an empty payload, that the warm-start
/// snapshot each shader leaves when it is studied alone holds in each of the
/// 16 shard files. They were measured once and are fixed here so that the
/// `study_warm` draw depends on the seed and the corpus only, never on the
/// code under test. Only the shaders that leave at most 200,000 bytes alone
/// are in the table: a larger one would hold a fifth or more of a draw's
/// snapshot by itself, and a draw of them would need a larger target, with
/// passes too long to time many of them in a run. The odd-numbered
/// `texture_combine` shaders are left out too: each leaves the same snapshot
/// as its even-numbered twin, so a draw of both would load one copy only.
#[rustfmt::skip]
const SHARD_BYTES: [(&str, [u32; 16]); 45] = [
    ("color_grade_00",     [ 11659,      0,   2244,      0,   2475,      0,      0,      0,   8892,   2086,      0,   5239,   6819,      0,      0,   2317]),
    ("color_grade_01",     [  3270,  10946,   2798,      0,      0,      0,   9053,      0,      0,      0,   7532,   6826,      0,      0,   6324,      0]),
    ("color_grade_02",     [ 18642,      0,      0,   8532,      0,  23429,      0,  12893,   8212,      0,  29796,      0,      0,      0,      0,   8487]),
    ("color_grade_03",     [     0,   2723,      0,   3124,      0,   8433,      0,  13392,   7060,  12114,      0,      0,   2966,      0,   3196,   9987]),
    ("color_grade_04",     [ 15128,      0,  10614,  12445,   7904,      0,  19388,      0,   6718,  51449,   4963,      0,   9853,      0,   5380,      0]),
    ("color_grade_05",     [     0,      0,      0,      0,  12720,      0,  10005,  19231,   7995,      0,  21264,  17178,  12104,   9786,      0,      0]),
    ("color_grade_06",     [     0,   5040,      0,      0,      0,   6444,  59379,   7881,   4551,  24827,      0,  12274,      0,      0,      0,  13023]),
    ("color_grade_07",     [  8603,  27863,      0,   6989,   3627,      0,   3532,  19773,   7752,   3252,      0,      0,      0,      0,   3301,   2685]),
    ("flagship_tonemap",   [ 15668,   4877,   5010,  35456,      0,  10027,   8314,  26106,   9870,      0,      0,   5011,  17240,   9492,  12280,      0]),
    ("forward_lit_00",     [ 31161,      0,   5417,   4430,  12896,  17590,   4904,   4198,  14024,      0,  11557,      0,   5134,  27594,  17729,  37774]),
    ("particle_00",        [     0,      0,      0,      0,   3108,      0,      0,      0,      0,      0,      0,      0,      0,      0,  10050,      0]),
    ("particle_01",        [  4584,   4783,   1631,      0,      0,   4547,      0,      0,      0,      0,      0,   1629,   9640,      0,      0,      0]),
    ("particle_02",        [     0,      0,      0,      0,      0,      0,      0,      0,   8087,   4334,   8302,      0,   1253,      0,   3902,      0]),
    ("particle_03",        [     0,      0,      0,   1988,      0,      0,      0,      0,      0,   5421,      0,      0,      0,      0,      0,  11210]),
    ("particle_04",        [     0,   5350,   1947,   2024,      0,      0,      0,      0,  17054,      0,  11260,      0,   5394,      0,   2028,   1951]),
    ("particle_05",        [     0,      0,  19271,      0,  15147,      0,      0,      0,      0,      0,      0,      0,      0,      0,      0,      0]),
    ("skybox_00",          [  4901,   5339,      0,      0,   7935,   6385,      0,      0,   2009,   3149,      0,      0,      0,   2168,      0,      0]),
    ("skybox_01",          [ 17779,   3508,   6881,   3102,      0,  10371,      0,      0,      0,      0,  15227,      0,   2953,   2870,      0,  25281]),
    ("skybox_02",          [     0,      0,   5922,      0,   2217,      0,   5764,   3251,  13334,      0,   8358,      0,  14841,   2783,   2376,   3020]),
    ("skybox_03",          [ 16447,      0,  11844,      0,   6717,      0,      0,      0,  23885,      0,      0,   6999,      0,  11982,  18209,   7310]),
    ("texture_combine_00", [ 10481,   3035,      0,      0,      0,   8656,   2824,   8029,   7732,   7963,      0,      0,   3054,      0,   2959,      0]),
    ("texture_combine_02", [ 27424,      0,      0,   8629,      0,      0,   3071,   8594,   3368,   2280,      0,      0,  11953,      0,   3208,   9287]),
    ("texture_combine_04", [     0,      0,      0,  13414,      0,      0,  19307,  21282,      0,      0,   3645,   3568,  13071,      0,      0,   3432]),
    ("texture_combine_06", [     0,   9666,      0,  15907,      0,      0,  19199,   8463,      0,      0,      0,   7270,  12967,      0,   3595,      0]),
    ("texture_combine_08", [ 13694,      0,   9296,      0,  17208,      0,      0,      0,  14484,      0,   3977,      0,  25878,   5957,      0,      0]),
    ("ui_blit_00",         [     0,      0,      0,   1937,  10950,  13376,   4459,      0,   2094,   5160,      0,      0,   9288,  13517,   1816,      0]),
    ("ui_blit_01",         [  5425,      0,      0,      0,      0,   5378,   4459,   5172,   6120,      0,      0,      0,   9230,   7971,   1816,   2178]),
    ("ui_blit_02",         [  5846,      0,  10931,   2171,   1989,      0,   5497,   4721,   5444,      0,   2219,   9353,   8845,   7515,  12533,      0]),
    ("ui_blit_03",         [     0,      0,   2306,  10228,      0,      0,   2074,   6796,   2998,   5795,   5436,   7370,   5524,   6490,      0,   6392]),
    ("ui_blit_04",         [ 13558,   3424,      0,      0,      0,      0,      0,      0,  12453,  19374,  24076,   3092,  11619,   8111,      0,      0]),
    ("ui_blit_05",         [ 21836,      0,      0,   7658,      0,      0,      0,      0,      0,  11127,      0,      0,  20172,  11959,      0,      0]),
    ("ui_blit_06",         [ 12389,   3553,   3154,  28417,   3522,  12184,      0,      0,  22052,   9181,   7530,      0,   8388,      0,      0,   3152]),
    ("ui_blit_07",         [ 12489,      0,      0,   7530,  11961,      0,   8173,      0,  13787,  20230,      0,      0,      0,  12276,   3661,      0]),
    ("ui_blit_08",         [  4423,  18532,  14291,      0,   3866,  23171,      0,  10313,   9154,  10681,      0,  26636,   4282,   4458,  33966,      0]),
    ("ui_blit_09",         [ 19925,      0,  24996,      0,   9672,   3954,  19976,   3952,  30086,   9189,      0,  17000,   9677,      0,      0,      0]),
    ("ui_blit_10",         [  8131,   2882,   7045,  10546,  28812,      0,   3215,   3164,   3341,      0,   7274,      0,  23297,   6790,      0,   8384]),
    ("ui_blit_11",         [  2891,  11085,      0,   7742,   5724,      0,      0,  18563,      0,  16003,      0,      0,      0,   6790,      0,      0]),
    ("ui_blit_13",         [ 12637,      0,   5650,   8997,      0,      0,      0,      0,  44940,   5065,  24024,      0,      0,  11668,  18026,   5062]),
    ("ui_blit_14",         [ 13026,  26292,  10146,      0,  14401,      0,  30558,   4414,      0,  28986,  14992,      0,      0,   9452,      0,      0]),
    ("ui_blit_15",         [     0,   9024,      0,  21329,  10404,      0,      0,   8966,      0,   7816,      0,      0,  11048,  13504,      0,  10445]),
    ("utility_00",         [     0,      0,   2766,      0,      0,      0,      0,      0,      0,   3007,      0,      0,   2650,      0,      0,      0]),
    ("utility_01",         [     0,      0,      0,      0,      0,   4358,      0,      0,   3290,      0,      0,   4270,      0,      0,      0,   2833]),
    ("utility_02",         [     0,      0,      0,      0,   7097,      0,      0,      0,      0,      0,      0,      0,      0,   7361,      0,      0]),
    ("utility_03",         [     0,   3922,      0,      0,      0,      0,      0,   3806,      0,      0,      0,      0,   4483,      0,      0,      0]),
    ("utility_04",         [     0,      0,   4428,   5306,      0,      0,      0,      0,      0,   4428,      0,      0,      0,      0,   5081,      0]),
];
/// The modelled load work (see `load_work`) the `study_warm` draw aims at:
/// that of a snapshot of about 1 MB.
const WARM_TARGET_WORK: f64 = 7.0e10;
/// Seeded one-stratum swaps the draw tries, keeping those that bring the
/// modelled load work closer to the target.
const WARM_SWAPS: usize = 256;
/// Corpus builds timed per set-up sample of `study_cold`: one takes a few
/// milliseconds, too short to time steadily alone.
const CORPUS_SETUPS: usize = 25;
/// Shaders, and variants of each, the interpreter check samples per run.
const INTERP_SHADERS: usize = 12;
const INTERP_VARIANTS: usize = 2;
/// The same modelled guard cost the sweep charges per assumption.
const GUARD_NS_PER_ASSUMPTION: f64 = 6.0;

/// The study configuration both study workloads run.
fn study_config(threads: usize) -> StudyConfig {
    StudyConfig {
        threads,
        specialize: Some(SPEC_LIMIT),
        ..StudyConfig::quick()
    }
}

/// The corpus a study workload runs over: the full corpus, or a handful of
/// small shaders in smoke mode.
fn base_corpus(smoke: bool) -> Corpus {
    let corpus = Corpus::gfxbench_like();
    if smoke {
        corpus.subset(&["ui_blit_00", "color_grade_01", "utility_02", "particle_01"])
    } else {
        corpus
    }
}

pub fn study_cold(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let corpus = out.set_up(CORPUS_SETUPS, || base_corpus(args.smoke));
    let threads = crate::nproc();
    if args.trace {
        let reference = traced_pair(args, &corpus, None, &mut out);
        check_cold_results(&corpus, &reference, args.seed, &mut out);
        return out;
    }
    let config = study_config(threads);
    let mut first: Option<String> = None;
    let start = Instant::now();
    while out.more_passes(args, start) {
        out.set_up(CORPUS_SETUPS, || base_corpus(args.smoke));
        let results = out.pass(|| run_study(&corpus, &config));
        count_study(&results, &mut out);
        let json = results_json(&results);
        match &first {
            None => {
                check_cold_results(&corpus, &results, args.seed, &mut out);
                first = Some(json);
            }
            Some(first) => out.check(*first == json, "study_cold results differ between runs"),
        }
    }
    out.finish();
    out
}

pub fn study_warm(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let pristine = work.join("snapshot");
    let live = work.join("live");
    let threads = crate::nproc();
    // Set-up: the corpus, the draw, and a cold study of the subset that
    // writes the snapshot every pass starts from (the same bytes every time).
    let mut set_up = || {
        let corpus = base_corpus(args.smoke);
        let subset = draw_warm_subset(&corpus, args);
        let _ = std::fs::remove_dir_all(&pristine);
        let config = StudyConfig {
            warm_start_dir: Some(pristine.clone()),
            ..study_config(threads)
        };
        let cold = run_study(&subset, &config);
        (subset, cold)
    };
    let (subset, cold) = out.set_up(1, &mut set_up);
    out.check(cold.warnings.is_empty(), "cold study_warm set-up warned");
    let names: Vec<&str> = subset.cases.iter().map(|c| c.name.as_str()).collect();
    eprintln!(
        "study_warm subset ({} shaders, {} snapshot bytes): {}",
        names.len(),
        dir_bytes(&pristine),
        names.join(" ")
    );
    let cold_json = results_json(&cold);
    if args.trace {
        let reference = traced_pair(args, &subset, Some((&pristine, &live)), &mut out);
        check_warm_results(&reference, &cold_json, &mut out);
        return out;
    }
    let config = StudyConfig {
        warm_start_dir: Some(live.clone()),
        ..study_config(threads)
    };
    let start = Instant::now();
    while out.more_passes(args, start) {
        out.set_up(1, &mut set_up);
        restore_snapshot(&pristine, &live);
        let results = out.pass(|| run_study(&subset, &config));
        count_study(&results, &mut out);
        check_warm_results(&results, &cold_json, &mut out);
    }
    out.finish();
    out
}

/// Counts a study's operations and failures: every shader, every (shader,
/// platform) row and every specialization arm is one attempt; skipped
/// shaders and dropped rows are failures.
fn count_study(results: &StudyResults, out: &mut Outcome) {
    let attempted =
        results.shaders.len() + results.measurements.len() + results.specializations.len();
    out.attempted += (attempted + results.skipped.len()) as u64;
    out.failed += results.skipped.len() as u64;
}

fn check_cold_results(corpus: &Corpus, results: &StudyResults, seed: u64, out: &mut Outcome) {
    let rows = corpus.len() * Vendor::ALL.len();
    out.check(
        results.measurements.len() == rows && results.shaders.len() == corpus.len(),
        &format!(
            "study_cold produced {} rows, expected {rows}",
            results.measurements.len()
        ),
    );
    out.check(
        results.skipped.is_empty(),
        &format!("study_cold skipped {:?}", results.skipped),
    );
    check_interp_sample(corpus, seed, out);
}

fn check_warm_results(results: &StudyResults, cold_json: &str, out: &mut Outcome) {
    out.check(
        results_json(results) == cold_json,
        "study_warm results differ from the cold run",
    );
    let stats = &results.cache.stats;
    out.check(
        stats.stage_runs == 0,
        &format!("study_warm ran {} optimizer stages", stats.stage_runs),
    );
    out.check(
        stats.warm_shards_skipped == 0,
        &format!(
            "study_warm skipped {} snapshot shards",
            stats.warm_shards_skipped
        ),
    );
    out.check(
        results.warnings.is_empty(),
        &format!("study_warm warned: {:?}", results.warnings),
    );
}

/// The study's results as JSON, without the cache counters (which differ
/// between a cold and a warm run of the same shaders by design).
fn results_json(results: &StudyResults) -> String {
    let mut copy = results.clone();
    copy.cache = Default::default();
    copy.to_json().expect("study results serialise")
}

/// Runs a seeded sample of (shader, variant) pairs through the interpreter
/// and compares each with the shader's unoptimized lowering.
fn check_interp_sample(corpus: &Corpus, seed: u64, out: &mut Outcome) {
    let mut rng = Rng::new(seed ^ 0x1A7E_5EED);
    for _ in 0..INTERP_SHADERS.min(corpus.len()) {
        let case = &corpus.cases[rng.below(corpus.len())];
        let session = match CompileSession::new(&case.source, &case.name) {
            Ok(session) => session,
            Err(e) => {
                out.check(
                    false,
                    &format!("interp check: {} does not lower: {e}", case.name),
                );
                continue;
            }
        };
        let Ok(variants) = session.variants() else {
            out.check(
                false,
                &format!("interp check: {} has no variants", case.name),
            );
            continue;
        };
        for _ in 0..INTERP_VARIANTS {
            let variant = &variants.variants[rng.below(variants.variants.len())];
            let (x, y) = (rng.unit(), rng.unit());
            let base = session.base_ir();
            let want = run_fragment(base, &FragmentContext::with_defaults(base, x, y));
            let got = run_fragment(
                &variant.ir,
                &FragmentContext::with_defaults(&variant.ir, x, y),
            );
            let ok = matches!((&want, &got), (Ok(w), Ok(g)) if results_approx_equal(w, g, 1e-4));
            out.check(
                ok,
                &format!(
                    "{} variant {} renders differently at ({x:.3}, {y:.3})",
                    case.name, variant.index
                ),
            );
        }
    }
}

/// Draws the `study_warm` subset: one shader from each of 13 strata of the
/// shaders in `SHARD_BYTES` ordered by source size, then seeded one-stratum
/// swaps that bring the draw's modelled load work closer to
/// `WARM_TARGET_WORK`. Smoke mode draws 2 shaders and does not balance.
fn draw_warm_subset(corpus: &Corpus, args: &Args) -> Corpus {
    type Entry<'a> = (&'a ShaderCase, &'a [u32; 16]);
    let mut pool: Vec<Entry> = corpus
        .cases
        .iter()
        .filter_map(|c| {
            let (_, shards) = SHARD_BYTES.iter().find(|(name, _)| *name == c.name)?;
            Some((c, shards))
        })
        .collect();
    pool.sort_by(|(a, _), (b, _)| {
        (a.source.text.len(), &a.name).cmp(&(b.source.text.len(), &b.name))
    });
    let count = if args.smoke { 2 } else { WARM_SHADERS };
    let strata: Vec<&[Entry]> = (0..count)
        .map(|k| &pool[k * pool.len() / count..(k + 1) * pool.len() / count])
        .collect();
    let mut rng = Rng::new(args.seed ^ 0x57A7_1F1E);
    let mut draw: Vec<Entry> = strata.iter().map(|s| s[rng.below(s.len())]).collect();
    let miss = |draw: &[Entry]| (load_work(draw.iter().map(|(_, s)| *s)) - WARM_TARGET_WORK).abs();
    for _ in 0..if args.smoke { 0 } else { WARM_SWAPS } {
        let k = rng.below(count);
        let mut trial = draw.clone();
        trial[k] = strata[k][rng.below(strata[k].len())];
        if miss(&trial) < miss(&draw) {
            draw = trial;
        }
    }
    // Corpus order, so the study's row order does not depend on the draw order.
    let names: Vec<&str> = draw.iter().map(|(c, _)| c.name.as_str()).collect();
    corpus.subset(&names)
}

/// The modelled work of loading a snapshot made of the given shaders'
/// per-shard payloads: the sum over shard files of the square of the file's
/// payload bytes. The loader re-reads the rest of a shard's payload for
/// every character of a string in it (see README.md), so its time grows
/// with this sum.
fn load_work<'a>(shaders: impl Iterator<Item = &'a [u32; 16]> + Clone) -> f64 {
    (0..16)
        .map(|s| {
            let bytes: f64 = shaders.clone().map(|v| f64::from(v[s])).sum();
            bytes * bytes
        })
        .sum()
}

/// Total bytes of the files directly inside `dir` (0 if it is absent).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Replaces `live` with a copy of the snapshot in `pristine`, so every warm
/// run loads the same bytes whatever the previous run saved.
fn restore_snapshot(pristine: &Path, live: &Path) {
    let _ = std::fs::remove_dir_all(live);
    std::fs::create_dir_all(live).expect("create warm-start directory");
    for entry in std::fs::read_dir(pristine)
        .expect("read snapshot")
        .flatten()
    {
        std::fs::copy(entry.path(), live.join(entry.file_name())).expect("copy snapshot shard");
    }
}

/// The traced run of a study workload: one untraced single-thread
/// `run_study` (the reference, and the overhead baseline), then the traced
/// re-drive, which must reproduce it. Returns the reference results.
fn traced_pair(
    args: &Args,
    corpus: &Corpus,
    warm: Option<(&Path, &Path)>,
    out: &mut Outcome,
) -> StudyResults {
    let mut config = study_config(1);
    if let Some((pristine, live)) = warm {
        restore_snapshot(pristine, live);
        config.warm_start_dir = Some(live.to_path_buf());
    }
    let ir_before = prism_ir::counters::snapshot();
    let t = Instant::now();
    let reference = run_study(corpus, &config);
    let untraced_s = t.elapsed().as_secs_f64();
    let ir = prism_ir::counters::snapshot().since(&ir_before);
    count_study(&reference, out);

    let cache = Arc::new(config.new_corpus_cache());
    let snapshot_bytes = warm.map(|(pristine, live)| {
        restore_snapshot(pristine, live);
        dir_bytes(live)
    });
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch, 0);
    let mut redrive = Redrive::new(&config);
    let load =
        warm.map(|(_, live)| trace.span("core.persist.load", u64::MAX, |_| cache.load(live)));
    for (i, case) in corpus.cases.iter().enumerate() {
        trace.span("study.shader", i as u64, |t| {
            redrive.shader(t, i as u64, case, &cache)
        });
    }
    if let Some((_, live)) = warm {
        let saved = trace.span("core.persist.save", u64::MAX, |_| cache.save(live));
        out.check(saved.is_ok(), "traced re-drive could not save the snapshot");
    }
    let traced_s = epoch.elapsed().as_secs_f64();

    let redriven = &redrive.results;
    out.check(
        redriven.shaders == reference.shaders,
        "traced re-drive found different variant counts than run_study",
    );
    out.check(
        redriven.measurements == reference.measurements,
        "traced re-drive measured different costs than run_study",
    );
    out.check(
        redriven.skipped == reference.skipped,
        "traced re-drive skipped differently",
    );
    out.check(
        redriven.specializations == reference.specializations,
        "traced re-drive produced different specialization arms",
    );
    out.check(
        redrive.divergences.is_empty(),
        &format!("specialization divergences: {:?}", redrive.divergences),
    );
    out.failed += redrive.divergences.len() as u64;

    let path = crate::trace_path(args);
    if let Err(e) = trace::write_json(
        &path,
        &args.workload,
        args.seed,
        std::slice::from_ref(&trace),
    ) {
        out.check(false, &format!("could not write {}: {e}", path.display()));
    }
    let selfs = trace::self_times(std::slice::from_ref(&trace));
    let c = &redrive.counts;
    let stats = cache.stats();
    let m = &mut out.per_layer;
    layer_times(m, &selfs);
    m.set("glsl.parse_calls", c.parse_calls as f64);
    m.set("glsl.parse_bytes", c.parse_bytes as f64);
    m.set("core.lower_calls", c.lower_calls as f64);
    m.set("core.stage_runs", stats.stage_runs as f64);
    m.set("core.stage_hits", stats.stage_hits as f64);
    m.set("core.stage_hit_ratio", stats.stage_hit_rate());
    m.set("core.emissions", stats.emissions as f64);
    m.set("core.emission_hits", stats.emission_hits as f64);
    m.set("core.evictions", stats.evictions as f64);
    m.set(
        "core.specializations",
        redrive.results.specializations.len() as f64,
    );
    if let (Some(bytes), Some(report)) = (snapshot_bytes, load) {
        m.set("core.persist.snapshot_bytes", bytes as f64);
        m.set("core.persist.entries_loaded", report.entries_loaded as f64);
        m.set("core.persist.shards_skipped", report.shards_skipped as f64);
    }
    m.set("emit.bytes", c.emit_bytes as f64);
    m.set("gpu.driver_calls", c.driver_calls as f64);
    m.set(
        "gpu.driver_repeat_ratio",
        ratio(c.driver_repeats, c.driver_calls),
    );
    m.set("harness.frames", c.frames as f64);
    m.set("ir.ir_clones", ir.ir_clones as f64);
    m.set("ir.fingerprints_computed", ir.fingerprints_computed as f64);
    m.set("trace.traced_s", traced_s);
    m.set("trace.untraced_s", untraced_s);
    m.set("trace.overhead_ratio", traced_s / untraced_s);
    let layered: f64 = selfs
        .iter()
        .filter(|(name, _)| is_layer_span(name))
        .map(|(_, s)| s)
        .sum();
    m.set("trace.coverage_ratio", layered / traced_s);
    m.set("trace.spans", trace.spans().len() as f64);
    reference
}

/// Whether a span name is a layer of the program, as opposed to the
/// benchmark's own bookkeeping spans (`study.*`, `gpu.submit`, `bench.*`).
fn is_layer_span(name: &str) -> bool {
    !(name.starts_with("study.") || name.starts_with("bench.") || name == "gpu.submit")
}

/// Folds span self times into the per-layer time metrics.
fn layer_times(m: &mut Metrics, selfs: &std::collections::BTreeMap<&'static str, f64>) {
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    for (span, metric) in [
        ("glsl.parse", "glsl.parse_s"),
        ("core.session", "core.session_s"),
        ("core.lower", "core.lower_s"),
        ("core.variants", "core.variants_s"),
        ("core.spec_verify", "core.spec_verify_s"),
        ("core.persist.load", "core.persist.load_s"),
        ("core.persist.save", "core.persist.save_s"),
        ("emit.gles", "emit.gles_s"),
        ("emit.spirv", "emit.spirv_s"),
        ("emit.msl", "emit.msl_s"),
        ("gpu.spirv_parse", "gpu.spirv_parse_s"),
        ("gpu.msl_to_glsl", "gpu.msl_to_glsl_s"),
        ("gpu.cost", "gpu.cost_s"),
        ("gpu.static", "gpu.static_s"),
        ("harness.measure", "harness.measure_s"),
    ] {
        m.set(metric, get(span));
    }
    m.set("core.spec_s", get("core.spec") + get("core.spec_verify"));
    let mut driver = 0.0;
    for (i, span) in DRIVER_SPANS.iter().enumerate() {
        m.set(DRIVER_METRICS[i], get(span));
        driver += get(span);
    }
    m.set("gpu.driver_s", driver);
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Driver span and metric names, in `Vendor::ALL` order.
const DRIVER_SPANS: [&str; 7] = [
    "gpu.driver.Intel",
    "gpu.driver.AMD",
    "gpu.driver.NVIDIA",
    "gpu.driver.ARM",
    "gpu.driver.Qualcomm",
    "gpu.driver.RADV",
    "gpu.driver.Apple",
];
const DRIVER_METRICS: [&str; 7] = [
    "gpu.driver_s.Intel",
    "gpu.driver_s.AMD",
    "gpu.driver_s.NVIDIA",
    "gpu.driver_s.ARM",
    "gpu.driver_s.Qualcomm",
    "gpu.driver_s.RADV",
    "gpu.driver_s.Apple",
];

#[derive(Default)]
struct Counts {
    parse_calls: usize,
    parse_bytes: usize,
    lower_calls: usize,
    driver_calls: usize,
    driver_repeats: usize,
    emit_bytes: usize,
    frames: usize,
}

/// The sweep of `run_study`, re-driven call by call through the same public
/// functions so each call can be wrapped in a span. It rebuilds the same
/// records `run_study` returns, which is how the traced run proves it did
/// the same work.
struct Redrive {
    platforms: Arc<[Platform]>,
    measure: MeasureConfig,
    spec_limit: Option<usize>,
    counts: Counts,
    /// (vendor, driver-input fingerprint) pairs compiled so far.
    seen: HashSet<(usize, u128)>,
    results: StudyResults,
    divergences: Vec<String>,
}

impl Redrive {
    fn new(config: &StudyConfig) -> Redrive {
        Redrive {
            platforms: config
                .vendors
                .iter()
                .map(|v| Platform::new(*v))
                .collect::<Vec<_>>()
                .into(),
            measure: config.measure,
            spec_limit: config.specialize,
            counts: Counts::default(),
            seen: HashSet::new(),
            results: StudyResults::default(),
            divergences: Vec::new(),
        }
    }

    fn emit(
        &mut self,
        t: &mut Trace,
        req: u64,
        backend: BackendKind,
        f: impl FnOnce() -> Result<Arc<str>, CompileError>,
    ) -> Result<Arc<str>, CompileError> {
        let span = match backend {
            BackendKind::Gles => "emit.gles",
            BackendKind::SpirvAsm => "emit.spirv",
            BackendKind::Msl => "emit.msl",
            BackendKind::DesktopGlsl => "emit.glsl",
        };
        let text = t.span(span, req, |_| f())?;
        self.counts.emit_bytes += text.len();
        Ok(text)
    }

    /// `Platform::submit`, split into its front-end, lowering, driver and
    /// cost-model calls.
    fn submit(
        &mut self,
        t: &mut Trace,
        req: u64,
        platform: usize,
        text: &str,
        name: &str,
    ) -> Result<ShaderCost, CompileError> {
        let foreign = |e: String| {
            CompileError::Front(prism_glsl::GlslError::new(prism_glsl::Stage::Parse, e))
        };
        let platforms = Arc::clone(&self.platforms);
        let p = &platforms[platform];
        t.span("gpu.submit", req, |t| {
            let (ir, version) = match p.backend() {
                BackendKind::DesktopGlsl | BackendKind::Gles => {
                    let source = self.parse(t, req, text)?;
                    let ir = self.lower(t, req, &source, name)?;
                    (ir, source.version.unwrap_or_default())
                }
                BackendKind::SpirvAsm => {
                    let parsed = t
                        .span("gpu.spirv_parse", req, |_| {
                            prism_emit::parse_spirv_asm(text)
                        })
                        .map_err(foreign)?;
                    (parsed.shader, parsed.version)
                }
                BackendKind::Msl => {
                    let glsl = t
                        .span("gpu.msl_to_glsl", req, |_| prism_emit::msl_to_glsl(text))
                        .map_err(foreign)?;
                    let source = self.parse(t, req, &glsl)?;
                    let ir = self.lower(t, req, &source, name)?;
                    (ir, BackendKind::Msl.version().to_string())
                }
            };
            let vendor = Vendor::ALL
                .iter()
                .position(|v| *v == p.vendor())
                .expect("known vendor");
            let fp = t.span("bench.fingerprint", req, |_| {
                prism_ir::fingerprint::compute_fingerprint(&ir)
            });
            self.counts.driver_calls += 1;
            if !self.seen.insert((vendor, fp.0)) {
                self.counts.driver_repeats += 1;
            }
            let driver_ir = t.span(DRIVER_SPANS[vendor], req, |_| p.driver.compile_ir(ir, name))?;
            let mut cost = t.span("gpu.cost", req, |_| p.cost_of_ir(driver_ir));
            cost.source_version = version;
            Ok(cost)
        })
    }

    fn parse(&mut self, t: &mut Trace, req: u64, text: &str) -> Result<ShaderSource, CompileError> {
        self.counts.parse_calls += 1;
        self.counts.parse_bytes += text.len();
        t.span("glsl.parse", req, |_| {
            ShaderSource::preprocess_and_parse(text, &Default::default())
        })
        .map_err(CompileError::Front)
    }

    fn lower(
        &mut self,
        t: &mut Trace,
        req: u64,
        source: &ShaderSource,
        name: &str,
    ) -> Result<prism_ir::Shader, CompileError> {
        self.counts.lower_calls += 1;
        Ok(t.span("core.lower", req, |_| prism_core::lower(source, name))?)
    }

    fn measure(
        &mut self,
        t: &mut Trace,
        req: u64,
        platform: usize,
        cost: &ShaderCost,
        stream: u64,
    ) -> prism_harness::Measurement {
        self.counts.frames += self.measure.total_frames();
        let platforms = Arc::clone(&self.platforms);
        let p = &platforms[platform];
        let measure = self.measure;
        t.span("harness.measure", req, |_| {
            measure_cost(p, cost, &measure, stream)
        })
    }

    /// One shader, as the sweep processes it.
    fn shader(&mut self, t: &mut Trace, req: u64, case: &ShaderCase, cache: &Arc<CorpusCache>) {
        let skip = |error: String| SkippedShader {
            name: case.name.clone(),
            family: case.family.clone(),
            error,
        };
        let store = Arc::clone(cache) as Arc<dyn CacheStore>;
        let session = match t.span("core.session", req, |_| {
            CompileSession::with_cache_in_family(&case.source, &case.name, &case.family, store)
        }) {
            Ok(session) => session,
            Err(e) => return self.results.skipped.push(skip(e.to_string())),
        };
        let variants = match t.span("core.variants", req, |_| session.variants()) {
            Ok(variants) => variants,
            Err(e) => return self.results.skipped.push(skip(e.to_string())),
        };
        let arm = self
            .platforms
            .iter()
            .position(|p| p.vendor() == Vendor::Arm)
            .expect("the study measures the ARM platform");
        let arm_text = self
            .emit(t, req, BackendKind::Gles, || {
                Ok(session.base_text_for(BackendKind::Gles))
            })
            .expect("base emission is infallible");
        let arm_static_cycles = match self.submit(t, req, arm, &arm_text, &case.name) {
            Ok(cost) => {
                let platforms = Arc::clone(&self.platforms);
                let p = &platforms[arm];
                t.span("gpu.static", req, |_| {
                    p.static_cycles(&cost.driver_ir).total()
                })
            }
            Err(_) => 0.0,
        };
        self.results.shaders.push(ShaderRecord {
            name: case.name.clone(),
            family: case.family.clone(),
            loc: case.lines_of_code(),
            arm_static_cycles,
            unique_variants: variants.unique_count(),
            flag_changes_code: Flag::ALL
                .iter()
                .map(|f| variants.flag_changes_code(*f))
                .collect(),
        });

        'platforms: for platform in 0..self.platforms.len() {
            let vendor = self.platforms[platform].vendor().name();
            let backend = self.platforms[platform].backend();
            let stream_base = stream_id(&case.name, platform);
            let original_text: Arc<str> = match backend {
                BackendKind::DesktopGlsl => Arc::from(case.source.text.as_str()),
                _ => self
                    .emit(t, req, backend, || Ok(session.base_text_for(backend)))
                    .expect("base emission is infallible"),
            };
            let original_cost = match self.submit(t, req, platform, &original_text, &case.name) {
                Ok(cost) => cost,
                Err(e) => {
                    self.results
                        .skipped
                        .push(skip(format!("driver({vendor}): original shader: {e}")));
                    continue;
                }
            };
            let original = self.measure(t, req, platform, &original_cost, stream_base);
            let mut records = Vec::new();
            let mut driver_source_version = String::new();
            for variant in &variants.variants {
                let text = match backend {
                    BackendKind::DesktopGlsl => Arc::clone(&variant.glsl),
                    _ => match self.emit(t, req, backend, || {
                        session.text_for(variant.representative_flags(), backend)
                    }) {
                        Ok(text) => text,
                        Err(e) => {
                            self.results.skipped.push(skip(format!(
                                "emit({vendor}/{backend}): variant {}: {e}",
                                variant.index
                            )));
                            continue 'platforms;
                        }
                    },
                };
                let cost = match self.submit(t, req, platform, &text, &case.name) {
                    Ok(cost) => cost,
                    Err(e) => {
                        self.results.skipped.push(skip(format!(
                            "driver({vendor}): variant {}: {e}",
                            variant.index
                        )));
                        continue 'platforms;
                    }
                };
                if driver_source_version.is_empty() {
                    driver_source_version = cost.source_version.clone();
                }
                let m = self.measure(
                    t,
                    req,
                    platform,
                    &cost,
                    stream_base.wrapping_add(1 + variant.index as u64),
                );
                records.push(VariantRecord {
                    index: variant.index,
                    flag_bits: variant.flag_sets.iter().map(|f| f.bits()).collect(),
                    mean_ns: m.mean_ns,
                    stddev_ns: m.stddev_ns,
                });
            }
            self.results.measurements.push(ShaderPlatformRecord {
                shader: case.name.clone(),
                vendor: vendor.to_string(),
                backend: backend.name().to_string(),
                driver_source_version,
                original_ns: original.mean_ns,
                variants: records,
                flag_to_variant: (0..=255u8)
                    .map(|bits| variants.by_flags[&OptFlags::from_bits(bits)])
                    .collect(),
            });
        }
        if let Some(limit) = self.spec_limit {
            self.specialization_arms(t, req, case, &session, limit);
        }
    }

    fn specialization_arms(
        &mut self,
        t: &mut Trace,
        req: u64,
        case: &ShaderCase,
        session: &CompileSession,
        limit: usize,
    ) {
        let flags = OptFlags::lunarglass_default();
        let probes = default_probe_points();
        let keys = t.span("core.spec", req, |_| {
            candidate_keys(session.base_ir(), limit)
        });
        let mut arms = 0u64;
        for key in keys {
            for platform in 0..self.platforms.len() {
                let backend = self.platforms[platform].backend();
                let Ok(dispatch) = t.span("core.spec", req, |_| {
                    session.dispatch_for(flags, &key, backend)
                }) else {
                    continue;
                };
                if !dispatch.is_effective() {
                    continue;
                }
                let verification = match t.span("core.spec_verify", req, |_| {
                    verify_specialization(&dispatch, &probes)
                }) {
                    Ok(v) => v,
                    Err(d) => {
                        self.divergences
                            .push(format!("{} {key}: {}", case.name, d.message));
                        continue;
                    }
                };
                let Ok(general_cost) =
                    self.submit(t, req, platform, &dispatch.general.glsl, &case.name)
                else {
                    continue;
                };
                let Ok(spec_cost) =
                    self.submit(t, req, platform, &dispatch.specialized.glsl, &case.name)
                else {
                    continue;
                };
                let stream = stream_id(&case.name, platform)
                    .wrapping_add(0x0001_0000)
                    .wrapping_add(arms << 1);
                let general = self.measure(t, req, platform, &general_cost, stream);
                let specialized =
                    self.measure(t, req, platform, &spec_cost, stream.wrapping_add(1));
                arms += 1;
                self.results.specializations.push(SpecializationRecord {
                    shader: case.name.clone(),
                    vendor: self.platforms[platform].vendor().name().to_string(),
                    spec: key.to_string(),
                    flag_bits: flags.bits(),
                    general_ns: general.mean_ns,
                    specialized_ns: specialized.mean_ns,
                    guard_ns: GUARD_NS_PER_ASSUMPTION * key.assumptions().len() as f64,
                    interp_confirms: verification.confirms,
                });
            }
        }
    }
}

/// The sweep's per-(shader, platform) noise stream id.
fn stream_id(shader: &str, platform_idx: usize) -> u64 {
    let mut hasher = DefaultHasher::new();
    shader.hash(&mut hasher);
    hasher.finish().wrapping_add((platform_idx as u64) << 48)
}
