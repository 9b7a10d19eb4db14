//! Specialization differential suite: every uniform-value specialization the
//! corpus can generate is semantically checked against the general program.
//!
//! For every corpus shader, a deterministic FNV-sampled set of flag
//! combinations, and every candidate assumption (`uniform = 0` / `= 1` per
//! float uniform), the suite builds the guarded dispatch and differentially
//! executes both sides with the reference interpreter:
//!
//! * on inputs **violating** the assumption the guard must fail and the
//!   dispatch must produce the general program's output bit-for-bit;
//! * on inputs **holding** the assumption the specialized program itself
//!   must agree with the general program bit-for-bit.
//!
//! A divergence anywhere is a test failure, never a skip — the axis admits
//! zero silent disagreements. The suite also pins that specialized variants
//! ride the same transition/emission planes as the flag axis: a session
//! behind the shared corpus cache reproduces the cold session's specialized
//! fingerprints and texts byte-for-byte.

use prism::core::specialize::{candidate_keys, default_probe_points, verify_specialization};
use prism::core::{spec_counters, CacheStore, CompileSession, CorpusCache, OptFlags};
use prism::corpus::Corpus;
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

/// A deterministic sample of flag combinations per shader: the no-flag
/// baseline, the LunarGlass default, and a shader-dependent mask — stable
/// across runs, different across shaders, so the corpus covers the
/// flags × assumptions space without exhaustive cost.
fn sampled_flags(name: &str) -> Vec<OptFlags> {
    let seed = fnv64(name.as_bytes());
    let mut flags = vec![
        OptFlags::NONE,
        OptFlags::lunarglass_default(),
        OptFlags::from_bits((seed & 0xFF) as u8),
    ];
    flags.dedup();
    flags
}

/// Candidates probed per shader; every float uniform's zero/one assumptions
/// up to this bound.
const KEYS_PER_SHADER: usize = 4;

#[test]
fn every_corpus_specialization_is_interp_verified_in_both_guard_directions() {
    let corpus = Corpus::gfxbench_like();
    let probes = default_probe_points();
    let before = spec_counters();
    let mut dispatches = 0usize;
    let mut effective = 0usize;
    let mut confirms = 0usize;
    for case in &corpus.cases {
        let session = CompileSession::new(&case.source, &case.name).expect("session");
        let keys = candidate_keys(session.base_ir(), KEYS_PER_SHADER);
        for flags in sampled_flags(&case.name) {
            for key in &keys {
                let dispatch =
                    match session.dispatch_for(flags, key, prism::emit::BackendKind::DesktopGlsl) {
                        Ok(dispatch) => dispatch,
                        // The key does not apply to this shader (type mismatch);
                        // that is a clean rejection, not a correctness question.
                        Err(e) if e.is_inapplicable_spec() => continue,
                        Err(e) => {
                            panic!("{}: flags {flags}: specialization diverges: {e}", case.name)
                        }
                    };
                dispatches += 1;
                if dispatch.is_effective() {
                    effective += 1;
                }
                // Divergence = failure. Ineffective dispatches are verified
                // too: the guard must still route correctly.
                let v = verify_specialization(&dispatch, &probes).unwrap_or_else(|d| {
                    panic!(
                        "{}: flags {flags}: specialization diverges: {}",
                        case.name, d.message
                    )
                });
                assert_eq!(
                    v.confirms,
                    probes.len() * 2,
                    "{}: flags {flags}, [{key}]: both guard directions on every probe",
                    case.name
                );
                confirms += v.confirms;
            }
        }
    }
    assert!(dispatches > 0, "the corpus must admit specializations");
    assert!(
        effective > 0,
        "zero/one folds must change code somewhere in the corpus"
    );
    // The counters the perf gate tracks moved with this suite's work.
    let delta = spec_counters().since(&before);
    assert!(delta.specializations_generated > 0, "{delta:?}");
    assert_eq!(delta.spec_interp_confirms, confirms, "{delta:?}");
}

/// Specialized variants share the transition and emission planes: a session
/// behind the shared corpus cache answers with the cold session's
/// fingerprints and texts, byte-for-byte, for every applicable assumption.
#[test]
fn specialized_compiles_agree_cold_vs_shared_cache() {
    let corpus = Corpus::gfxbench_like().subset(&["flagship_blur9", "ui_blit_00", "ui_blit_02"]);
    let shared_cache = Arc::new(CorpusCache::new());
    let flags = OptFlags::lunarglass_default();
    for case in &corpus.cases {
        let cold = CompileSession::new(&case.source, &case.name).expect("cold session");
        let shared = CompileSession::with_cache_in_family(
            &case.source,
            &case.name,
            &case.family,
            shared_cache.clone() as Arc<dyn CacheStore>,
        )
        .expect("shared session");
        for key in candidate_keys(cold.base_ir(), KEYS_PER_SHADER) {
            let fp_cold = match cold.specialized_fingerprint(flags, &key) {
                Ok(fp) => fp,
                Err(e) if e.is_inapplicable_spec() => continue,
                Err(e) => panic!("{}: [{key}] specialization fails: {e}", case.name),
            };
            let fp_shared = shared.specialized_fingerprint(flags, &key).unwrap();
            assert_eq!(
                fp_cold, fp_shared,
                "{}: [{key}] specialized fingerprint diverges cold vs shared",
                case.name
            );
            for backend in prism::emit::BackendKind::ALL {
                let cold_text = cold.text_for_spec(flags, &key, backend).unwrap();
                let shared_text = shared.text_for_spec(flags, &key, backend).unwrap();
                assert_eq!(
                    *cold_text, *shared_text,
                    "{}: [{key}] backend {backend}: shared cache changed the specialized text",
                    case.name
                );
            }
        }
    }
    // The specialized bases and their downstream stages were interned in the
    // shared store — the second session's walks must have hit it.
    let stats = shared_cache.stats();
    assert!(stats.stage_hits > 0, "{stats:?}");
}
