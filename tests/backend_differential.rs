//! Cross-backend differential suite: one optimized IR, four source forms.
//!
//! The PR 2 property suite proved desktop/GLES emission transparency for
//! shared caches; this suite generalises it to all four backends. For every
//! corpus shader and a deterministic sample of flag combinations it asserts
//! that the four emitted texts
//!
//! (a) parse — with each backend's own *consuming front-end* — to the same
//!     external interface,
//! (b) were emitted from the same optimized-IR fingerprint, whether the
//!     session is cold or shares the corpus-wide cache, and
//! (c) are byte-identical between a cold private-cache session and a session
//!     behind one shared warm [`CorpusCache`].
//!
//! It also pins the acceptance property of the warm-start path with the new
//! backends in play (a second `run_study` performs 0 stage runs and 0
//! emissions, for every backend). The legacy `mobile::emit_gles` shim was
//! removed after this suite pinned corpus-wide parity with the `Gles`
//! backend.

use prism::core::{CacheStore, CompileSession, CorpusCache, OptFlags};
use prism::corpus::Corpus;
use prism::emit::{source_interface, BackendKind};
use std::sync::Arc;

/// FNV-1a 64-bit — the deterministic per-shader seed for flag sampling.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A deterministic sample of flag combinations for one shader: the no-flag
/// baseline, everything-on, and two shader-dependent masks — stable across
/// runs, different across shaders, so the corpus as a whole covers the
/// combination space without 256× work per shader.
fn sampled_flags(name: &str) -> Vec<OptFlags> {
    let seed = fnv64(name.as_bytes());
    let mut flags = vec![
        OptFlags::NONE,
        OptFlags::all(),
        OptFlags::from_bits((seed & 0xFF) as u8),
        OptFlags::from_bits(((seed >> 8) & 0xFF) as u8),
    ];
    flags.dedup();
    flags
}

/// Satellite (a) + (b) + (c) over the whole corpus.
#[test]
fn all_four_backends_agree_for_every_corpus_shader() {
    let corpus = Corpus::gfxbench_like();
    let shared_cache = Arc::new(CorpusCache::new());
    for case in &corpus.cases {
        let cold = CompileSession::new(&case.source, &case.name).expect("cold session");
        let shared = CompileSession::with_cache_in_family(
            &case.source,
            &case.name,
            &case.family,
            shared_cache.clone() as Arc<dyn CacheStore>,
        )
        .expect("shared session");

        for flags in sampled_flags(&case.name) {
            // (b) Both sessions agree which optimized IR this combination
            // produces — the key all four emissions are memoised under.
            let fp_cold = cold.optimized_fingerprint(flags).unwrap();
            let fp_shared = shared.optimized_fingerprint(flags).unwrap();
            assert_eq!(
                fp_cold, fp_shared,
                "{}: flags {flags} fingerprint diverges cold vs shared",
                case.name
            );

            let mut interfaces = Vec::new();
            for backend in BackendKind::ALL {
                // (c) Byte-identity between the cold session and the shared
                // warm cache, per backend.
                let cold_text = cold.text_for(flags, backend).unwrap();
                let shared_text = shared.text_for(flags, backend).unwrap();
                assert_eq!(
                    *cold_text, *shared_text,
                    "{}: flags {flags}, backend {backend}: shared cache changed the text",
                    case.name
                );

                // (a) Each backend's own consuming front-end sees the same
                // external interface.
                let iface = source_interface(backend, &cold_text).unwrap_or_else(|e| {
                    panic!(
                        "{}: flags {flags}, backend {backend} text does not parse: {e}",
                        case.name
                    )
                });
                interfaces.push((backend, iface));
            }
            let (_, reference) = &interfaces[0];
            for (backend, iface) in &interfaces[1..] {
                assert!(
                    iface.same_io(reference),
                    "{}: flags {flags}: {backend} interface diverges:\n{iface:?}\nvs\n{reference:?}",
                    case.name
                );
            }
        }
    }

    // The shared sessions must actually have shared: übershader families
    // answer each other's lookups.
    let stats = shared_cache.stats();
    assert!(stats.cross_shader_stage_hits > 0, "{stats:?}");
    assert_eq!(
        stats.emissions_by_backend.iter().sum::<usize>(),
        stats.emissions,
        "per-backend emission counters must sum to the total"
    );
    for backend in BackendKind::ALL {
        assert!(
            stats.emissions_by_backend[backend.index()] > 0,
            "{backend}: no emissions counted in {stats:?}"
        );
    }
}

/// Transition-graph replay property: the fingerprint-edge walk that answers
/// a session — cold, behind a shared warm cache, and warm-booted from a
/// persisted snapshot — reproduces the private-cache text byte-for-byte for
/// every corpus shader × FNV-sampled flag combination × all four backends.
/// The sharing must moreover be structural, not incidental: the populating
/// sweep records clean stages as identity transitions (mask bits, not
/// edges), and the warm-booted sweep answers everything by graph walking —
/// zero stage executions, zero emissions.
#[test]
fn transition_graph_replay_is_byte_identical_cold_shared_and_warm_booted() {
    let corpus = Corpus::gfxbench_like();
    let dir = std::env::temp_dir().join(format!(
        "prism-transition-replay-{}-{:p}",
        std::process::id(),
        &corpus
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Pass 1 — populate a shared cache, checking it against cold private
    // sessions, and remember every expected text.
    let shared_cache = Arc::new(CorpusCache::new());
    let mut expected: Vec<(String, OptFlags, BackendKind, std::sync::Arc<str>)> = Vec::new();
    for case in &corpus.cases {
        let cold = CompileSession::new(&case.source, &case.name).expect("cold session");
        let shared = CompileSession::with_cache_in_family(
            &case.source,
            &case.name,
            &case.family,
            shared_cache.clone() as Arc<dyn CacheStore>,
        )
        .expect("shared session");
        for flags in sampled_flags(&case.name) {
            for backend in BackendKind::ALL {
                let cold_text = cold.text_for(flags, backend).unwrap();
                let shared_text = shared.text_for(flags, backend).unwrap();
                assert_eq!(
                    *cold_text, *shared_text,
                    "{}: flags {flags}, backend {backend}: shared replay diverges",
                    case.name
                );
                expected.push((case.name.clone(), flags, backend, cold_text));
            }
        }
    }
    let stats = shared_cache.stats();
    assert!(
        stats.identity_transitions > 0,
        "clean stages must take the identity fast path: {stats:?}"
    );
    shared_cache.save(&dir).unwrap();

    // Pass 2 — boot a fresh cache from the snapshot and replay the same
    // sweep. Every text must match pass 1, and no stage may execute: the
    // whole sweep is mask lookups and u64 edge walks.
    let warm_cache = Arc::new(CorpusCache::new());
    let report = warm_cache.load(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.shards_skipped, 0, "{report:?}");
    assert!(report.entries_loaded > 0, "{report:?}");

    let mut cursor = expected.iter();
    for case in &corpus.cases {
        let warm = CompileSession::with_cache_in_family(
            &case.source,
            &case.name,
            &case.family,
            warm_cache.clone() as Arc<dyn CacheStore>,
        )
        .expect("warm session");
        for flags in sampled_flags(&case.name) {
            for backend in BackendKind::ALL {
                let (name, eflags, ebackend, text) = cursor.next().expect("same sweep shape");
                assert_eq!(
                    (name.as_str(), *eflags, *ebackend),
                    (case.name.as_str(), flags, backend)
                );
                let warm_text = warm.text_for(flags, backend).unwrap();
                assert_eq!(
                    **text, *warm_text,
                    "{}: flags {flags}, backend {backend}: warm-booted replay diverges",
                    case.name
                );
            }
        }
    }
    let warm_stats = warm_cache.stats();
    assert_eq!(
        warm_stats.stage_runs, 0,
        "warm-booted replay executed a pass: {warm_stats:?}"
    );
    assert_eq!(
        warm_stats.emissions, 0,
        "warm-booted replay re-emitted: {warm_stats:?}"
    );
    assert!(
        warm_stats.identity_transitions > 0,
        "persisted clean-stage masks must keep answering: {warm_stats:?}"
    );
}

/// Specialization axis joins the cross-backend contract: for a sample of
/// corpus shaders × FNV-sampled flags × candidate uniform-value assumptions,
/// the guarded dispatch must agree with the general program bit-for-bit on
/// assumption-violating inputs (the interp check is IR-level, shared by all
/// backends), and the specialized text of every backend must parse with that
/// backend's own consuming front-end.
#[test]
fn specialized_variants_verify_differentially_and_emit_through_all_backends() {
    use prism::core::specialize::{candidate_keys, default_probe_points, verify_specialization};
    let corpus =
        Corpus::gfxbench_like().subset(&["flagship_blur9", "ui_blit_00", "color_grade_01"]);
    let probes = default_probe_points();
    for case in &corpus.cases {
        let session = CompileSession::new(&case.source, &case.name).expect("session");
        for flags in sampled_flags(&case.name) {
            for key in candidate_keys(session.base_ir(), 4) {
                let dispatch = match session.dispatch_for(flags, &key, BackendKind::DesktopGlsl) {
                    Ok(dispatch) => dispatch,
                    Err(e) if e.is_inapplicable_spec() => continue,
                    Err(e) => panic!("{}: flags {flags}: specialization diverges: {e}", case.name),
                };
                verify_specialization(&dispatch, &probes).unwrap_or_else(|d| {
                    panic!(
                        "{}: flags {flags}: specialization diverges: {}",
                        case.name, d.message
                    )
                });
                for backend in BackendKind::ALL {
                    let text = session.text_for_spec(flags, &key, backend).unwrap();
                    source_interface(backend, &text).unwrap_or_else(|e| {
                        panic!(
                            "{}: flags {flags}, [{key}], backend {backend}: \
                             specialized text does not parse: {e}",
                            case.name
                        )
                    });
                }
            }
        }
    }
}

/// Acceptance: a warm-started second study performs **zero** stage runs and
/// **zero** emissions — including the SPIR-V and MSL backends, whose texts
/// persist in the same per-backend emission memo.
#[test]
fn warm_start_second_study_does_no_compile_work_for_any_backend() {
    use prism::search::{run_study, StudyConfig};
    let corpus = Corpus::gfxbench_like().subset(&["flagship_blur9", "ui_blit_00"]);
    let dir = std::env::temp_dir().join(format!(
        "prism-differential-warm-{}-{:p}",
        std::process::id(),
        &corpus
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StudyConfig {
        warm_start_dir: Some(dir.clone()),
        ..StudyConfig::quick()
    };
    let cold = run_study(&corpus, &config);
    let warm = run_study(&corpus, &config);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(cold.cache.stats.emissions > 0);
    for backend in BackendKind::ALL {
        assert!(
            cold.cache.stats.emissions_by_backend[backend.index()] > 0,
            "{backend}: the cold 7-platform sweep must emit this form: {:?}",
            cold.cache.stats
        );
    }
    assert_eq!(
        warm.cache.stats.stage_runs, 0,
        "warm sweep re-ran stages: {:?}",
        warm.cache.stats
    );
    assert_eq!(
        warm.cache.stats.emissions, 0,
        "warm sweep re-emitted: {:?}",
        warm.cache.stats
    );
    assert_eq!(
        warm.cache.stats.emissions_by_backend,
        [0; BackendKind::COUNT]
    );
    assert_eq!(warm.measurements, cold.measurements);
}
