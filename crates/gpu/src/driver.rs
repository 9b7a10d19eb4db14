//! Vendor driver (JIT compiler) models.
//!
//! In the real study each GPU's driver receives the (possibly pre-optimized)
//! GLSL source and runs its own compiler over it before execution. The
//! quality of that internal compiler is what decides whether an *offline*
//! optimization still has anything left to win — the central cross-platform
//! effect in the paper (e.g. §VI-C: AMD gains most from offline unrolling
//! because its 2017 Mesa driver does little loop optimization, while Intel's
//! driver already folds constant division so Div-to-Mul measures ≈0 there).
//!
//! Each [`DriverModel`] therefore re-parses the incoming GLSL with the same
//! front-end, lowers it, and applies the *conformant* subset of passes that
//! the corresponding vendor driver performs. The unsafe floating-point
//! transformations are never applied by any driver model — a conformant
//! compiler may not reassociate floating point — which is exactly why the
//! paper adds them offline.

use crate::vendor::Vendor;
use prism_core::passes::{
    coalesce::Coalesce, constfold::ConstFold, cse::Cse, dce::Dce, div_to_mul::DivToMul, gvn::Gvn,
    hoist::Hoist, rename::Rename, unroll::Unroll, Pass,
};
use prism_core::pipeline::Stage;
use prism_core::{lower, CompileError};
use prism_glsl::ShaderSource;
use prism_ir::prelude::*;
use prism_ir::verify::verify;

/// What a vendor's internal compiler does on top of the always-present
/// canonicalisation (constant folding, CSE, dead-code removal).
#[derive(Debug, Clone)]
pub struct DriverModel {
    /// Which vendor this driver belongs to.
    pub vendor: Vendor,
    /// Internal loop unrolling up to this trip count (0 = none).
    pub unroll_trip_limit: usize,
    /// Internal global value numbering.
    pub gvn: bool,
    /// Internal if-conversion for branches up to this many statements
    /// (0 = none).
    pub hoist_limit: usize,
    /// Internal constant-division-to-multiplication rewriting.
    pub div_to_mul: bool,
    /// Internal coalescing of per-component vector writes.
    pub coalesce: bool,
}

impl DriverModel {
    /// The calibrated driver model for one of the paper's platforms.
    ///
    /// * **NVIDIA** — mature proprietary stack: unrolls, value-numbers,
    ///   if-converts small branches, folds constant division.
    /// * **Intel** (Mesa i965, 2017) — unrolls and folds constant division;
    ///   modest if-conversion.
    /// * **AMD** (Mesa/Gallium, 2017) — little loop optimization at the GLSL
    ///   level; folds constant division; basic GVN.
    /// * **ARM** (Mali) — conservative: canonicalisation plus constant
    ///   division folding only.
    /// * **Qualcomm** (Adreno) — canonicalisation and small-branch
    ///   if-conversion; no internal unrolling, keeps division as issued.
    /// * **RADV** (Mesa Vulkan, 2017) — young NIR stack: value-numbers and
    ///   if-converts, but no loop unrolling yet and keeps division as
    ///   issued (same silicon as AMD-GL, different compiler personality).
    /// * **Apple** (Metal, 2016) — LLVM-based: solid scalar optimization
    ///   (GVN, if-conversion, constant-division folding) but no
    ///   source-level loop restructuring at AIR build time.
    pub fn preset(vendor: Vendor) -> DriverModel {
        match vendor {
            Vendor::Nvidia => DriverModel {
                vendor,
                unroll_trip_limit: 64,
                gvn: true,
                hoist_limit: 4,
                div_to_mul: true,
                coalesce: true,
            },
            Vendor::Intel => DriverModel {
                vendor,
                unroll_trip_limit: 32,
                gvn: true,
                hoist_limit: 2,
                div_to_mul: true,
                coalesce: true,
            },
            Vendor::Amd => DriverModel {
                vendor,
                unroll_trip_limit: 0,
                gvn: true,
                hoist_limit: 2,
                div_to_mul: true,
                coalesce: true,
            },
            Vendor::Arm => DriverModel {
                vendor,
                unroll_trip_limit: 0,
                gvn: false,
                hoist_limit: 0,
                div_to_mul: true,
                coalesce: false,
            },
            Vendor::Qualcomm => DriverModel {
                vendor,
                unroll_trip_limit: 0,
                gvn: false,
                hoist_limit: 3,
                div_to_mul: false,
                coalesce: false,
            },
            Vendor::Radv => DriverModel {
                vendor,
                unroll_trip_limit: 0,
                gvn: true,
                hoist_limit: 3,
                div_to_mul: false,
                coalesce: true,
            },
            Vendor::Apple => DriverModel {
                vendor,
                unroll_trip_limit: 0,
                gvn: true,
                hoist_limit: 2,
                div_to_mul: true,
                coalesce: true,
            },
        }
    }

    /// Compiles incoming GLSL exactly as the vendor driver would: front-end,
    /// lowering, then the driver's internal passes.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the GLSL does not parse/lower — in the
    /// study this never happens for shaders the offline tool emitted.
    pub fn compile(&self, glsl: &str, name: &str) -> Result<Shader, CompileError> {
        let source = ShaderSource::preprocess_and_parse(glsl, &Default::default())
            .map_err(CompileError::Front)?;
        self.compile_source(&source, name)
    }

    /// Same as [`DriverModel::compile`] but starting from an already parsed
    /// shader.
    pub fn compile_source(
        &self,
        source: &ShaderSource,
        name: &str,
    ) -> Result<Shader, CompileError> {
        let ir = lower(source, name)?;
        self.compile_ir(ir, name)
    }

    /// The back half of driver compilation: the vendor's internal passes
    /// over IR that has already been produced by a front-end. The GLSL
    /// platforms arrive here through [`lower`](fn@lower); the SPIR-V platform's
    /// front-end ([`prism_emit::parse_spirv_asm`]) produces IR directly and
    /// enters here.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] if the IR is (or a pass makes it)
    /// structurally invalid.
    pub fn compile_ir(&self, mut ir: Shader, name: &str) -> Result<Shader, CompileError> {
        ir.name = name.to_string();
        // Up to two rounds, the second only if the first changed the IR. The
        // stage drops the input's fingerprint memo when a pass mutates the
        // IR, and verifies after every pass under `PRISM_VERIFY=1`.
        let stage = Stage::always("driver", self.internal_passes());
        for _ in 0..2 {
            if !stage.run(&mut ir) {
                break;
            }
        }
        verify(&ir).map_err(CompileError::Verify)?;
        Ok(ir)
    }

    /// The pass list this driver runs internally.
    fn internal_passes(&self) -> Vec<Box<dyn Pass>> {
        // Every real driver compiles through an SSA IR, so the renaming pass
        // is part of the baseline canonicalisation here too.
        let mut passes: Vec<Box<dyn Pass>> = vec![
            Box::new(Rename),
            Box::new(ConstFold),
            Box::new(Cse),
            Box::new(Dce),
        ];
        if self.unroll_trip_limit > 0 {
            passes.push(Box::new(Unroll {
                max_trip_count: self.unroll_trip_limit,
                max_expanded_size: 1024,
            }));
            passes.push(Box::new(Rename));
            passes.push(Box::new(ConstFold));
        }
        if self.hoist_limit > 0 {
            passes.push(Box::new(Hoist {
                max_branch_size: self.hoist_limit,
            }));
        }
        if self.coalesce {
            passes.push(Box::new(Coalesce));
        }
        if self.gvn {
            passes.push(Box::new(Gvn));
        }
        if self.div_to_mul {
            passes.push(Box::new(DivToMul));
        }
        passes.push(Box::new(ConstFold));
        passes.push(Box::new(Cse));
        passes.push(Box::new(Dce));
        passes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOPY: &str = "uniform sampler2D tex; uniform vec4 ambient; in vec2 uv; out vec4 c;\n\
        void main() {\n\
          const vec2[] offs = vec2[](vec2(-0.01), vec2(0.0), vec2(0.01));\n\
          c = vec4(0.0);\n\
          float total = 0.0;\n\
          for (int i = 0; i < 3; i++) { total += 0.25; c += texture(tex, uv + offs[i]) * 2.0 * ambient; }\n\
          c /= total;\n\
        }";

    #[test]
    fn presets_differ_in_maturity() {
        let nv = DriverModel::preset(Vendor::Nvidia);
        let amd = DriverModel::preset(Vendor::Amd);
        let arm = DriverModel::preset(Vendor::Arm);
        let adreno = DriverModel::preset(Vendor::Qualcomm);
        assert!(nv.unroll_trip_limit > 0);
        assert_eq!(amd.unroll_trip_limit, 0);
        assert!(!arm.gvn);
        assert!(!adreno.div_to_mul);
        assert!(DriverModel::preset(Vendor::Intel).div_to_mul);
    }

    #[test]
    fn nvidia_driver_unrolls_internally_but_amd_does_not() {
        let nv = DriverModel::preset(Vendor::Nvidia)
            .compile(LOOPY, "loopy")
            .unwrap();
        let amd = DriverModel::preset(Vendor::Amd)
            .compile(LOOPY, "loopy")
            .unwrap();
        assert_eq!(nv.loop_count(), 0, "NVIDIA's JIT unrolls the constant loop");
        assert_eq!(
            amd.loop_count(),
            1,
            "2017 Mesa/AMD leaves the loop in place"
        );
        // NVIDIA's unrolled code contains all three samples statically; AMD's
        // rolled loop keeps the single sample inside the loop body.
        assert_eq!(nv.texture_op_count(), 3);
        assert_eq!(amd.texture_op_count(), 1);
    }

    #[test]
    fn driver_compilation_is_deterministic() {
        let d = DriverModel::preset(Vendor::Qualcomm);
        let a = d.compile(LOOPY, "loopy").unwrap();
        let b = d.compile(LOOPY, "loopy").unwrap();
        assert_eq!(
            prism_ir::printer::print_shader(&a),
            prism_ir::printer::print_shader(&b)
        );
    }

    #[test]
    fn driver_output_never_carries_the_input_fingerprint_memo() {
        use prism_ir::fingerprint::{compute_fingerprint, fingerprint};
        let source = ShaderSource::preprocess_and_parse(LOOPY, &Default::default()).unwrap();
        let input = lower(&source, "loopy").unwrap();
        // Memoise the input's fingerprint before handing the IR over.
        let input_fp = fingerprint(&input);
        for vendor in Vendor::ALL {
            let out = DriverModel::preset(vendor)
                .compile_ir(input.clone(), "loopy")
                .unwrap();
            let fresh = compute_fingerprint(&out);
            assert_ne!(fresh, input_fp, "{vendor:?}'s passes rewrite this shader");
            assert_eq!(fingerprint(&out), fresh, "{vendor:?}: stale memo");
        }
    }

    #[test]
    fn invalid_glsl_is_rejected() {
        let d = DriverModel::preset(Vendor::Intel);
        assert!(d.compile("void main() { oops }", "bad").is_err());
    }
}
