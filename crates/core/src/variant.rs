//! Exhaustive variant generation and deduplication.
//!
//! The paper compiles every shader with all 256 flag combinations and then
//! measures only the *unique* generated sources, because "most of the flags
//! do not alter the source code, resulting in large numbers of duplicate
//! shaders" (§V-C, Fig. 4c). This module reproduces that step: it compiles
//! all combinations, groups them by identical emitted GLSL, and records which
//! flag sets produced each distinct variant.
//! [`CompileSession::variants`](crate::CompileSession::variants) builds a
//! [`VariantSet`].

use crate::flags::{Flag, OptFlags};
use prism_ir::Shader;
use std::collections::HashMap;

/// One distinct optimized form of a shader.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Index of this variant within its [`VariantSet`].
    pub index: usize,
    /// Emitted GLSL text (a handle shared with the emission memo).
    pub glsl: std::sync::Arc<str>,
    /// Optimized IR (a handle shared with the session's exemplar store
    /// whenever the cached snapshot already carries this shader's name).
    pub ir: std::sync::Arc<Shader>,
    /// Every flag combination that produced exactly this text.
    pub flag_sets: Vec<OptFlags>,
}

impl Variant {
    /// A representative flag set (the one with the fewest enabled flags).
    pub fn representative_flags(&self) -> OptFlags {
        self.flag_sets
            .iter()
            .copied()
            .min_by_key(|f| (f.len(), f.bits()))
            .unwrap_or(OptFlags::NONE)
    }
}

/// All distinct variants of one shader across the 256 flag combinations.
#[derive(Debug, Clone)]
pub struct VariantSet {
    /// Corpus name of the shader.
    pub shader_name: String,
    /// Distinct variants; index 0 always corresponds to [`OptFlags::NONE`]
    /// (the no-flags baseline).
    pub variants: Vec<Variant>,
    /// Maps each flag combination to the index of its variant.
    pub by_flags: HashMap<OptFlags, usize>,
}

impl VariantSet {
    /// Number of distinct variants (the quantity plotted in Fig. 4c).
    pub fn unique_count(&self) -> usize {
        self.variants.len()
    }

    /// The variant a particular flag combination produces.
    pub fn variant_for(&self, flags: OptFlags) -> &Variant {
        &self.variants[self.by_flags[&flags]]
    }

    /// The baseline variant (all flags off — canonicalisation only).
    pub fn baseline(&self) -> &Variant {
        self.variant_for(OptFlags::NONE)
    }

    /// `true` if enabling `flag` ever changes the generated code relative to
    /// the otherwise-identical flag set — the "applicability" measure used in
    /// Fig. 8 (red bars).
    pub fn flag_changes_code(&self, flag: Flag) -> bool {
        OptFlags::all_combinations()
            .filter(|f| !f.contains(flag))
            .any(|without| self.by_flags[&without] != self.by_flags[&without.with(flag)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CompileSession;
    use prism_glsl::ShaderSource;

    fn simple_source() -> ShaderSource {
        ShaderSource::parse(
            "uniform vec4 tint; in vec2 uv; out vec4 c;\n\
             void main() { c = vec4(uv, 0.0, 1.0) * tint; }",
        )
        .unwrap()
    }

    fn loopy_source() -> ShaderSource {
        ShaderSource::parse(
            "uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;\n\
             void main() {\n\
               const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));\n\
               c = vec4(0.0);\n\
               float total = 0.0;\n\
               for (int i = 0; i < 3; i++) { total += 0.25; c += texture(tex, uv + offs[i]) * 2.0 * ambient; }\n\
               c /= total;\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn simple_shaders_have_few_variants() {
        let set = CompileSession::new(&simple_source(), "simple")
            .unwrap()
            .variants()
            .unwrap();
        // A shader with no loops, branches, divisions or insert chains barely
        // changes: far fewer than 256 distinct outputs, most flag sets map to
        // the baseline.
        assert!(set.unique_count() <= 4, "got {}", set.unique_count());
        assert_eq!(set.by_flags.len(), 256);
        assert!(set.baseline().flag_sets.contains(&OptFlags::NONE));
    }

    #[test]
    fn complex_shaders_have_more_variants_but_far_fewer_than_256() {
        let set = CompileSession::new(&loopy_source(), "loopy")
            .unwrap()
            .variants()
            .unwrap();
        assert!(set.unique_count() > 2);
        assert!(set.unique_count() < 64, "got {}", set.unique_count());
    }

    #[test]
    fn adce_never_changes_code_but_unroll_does() {
        let set = CompileSession::new(&loopy_source(), "loopy")
            .unwrap()
            .variants()
            .unwrap();
        assert!(!set.flag_changes_code(Flag::Adce));
        assert!(set.flag_changes_code(Flag::Unroll));
        assert!(set.flag_changes_code(Flag::DivToMul));
    }

    #[test]
    fn variant_lookup_is_consistent() {
        let set = CompileSession::new(&loopy_source(), "loopy")
            .unwrap()
            .variants()
            .unwrap();
        for flags in [
            OptFlags::NONE,
            OptFlags::all(),
            OptFlags::lunarglass_default(),
        ] {
            let v = set.variant_for(flags);
            assert!(v.flag_sets.contains(&flags));
        }
        let rep = set.variants[0].representative_flags();
        assert_eq!(rep, OptFlags::NONE);
    }
}
