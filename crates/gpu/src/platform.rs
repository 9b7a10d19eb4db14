//! One measurable platform: device model + driver model.

use crate::cost::FragmentCost;
use crate::driver::DriverModel;
use crate::isa::IsaStats;
use crate::static_analysis::{analyze, StaticCycles};
use crate::timing::{
    ideal_frame_time_ns, sample_frame_time_ns, sample_frame_time_ns_with, DrawConfig, NoiseState,
    TimeSample,
};
use crate::vendor::{DeviceSpec, Vendor};
use prism_core::CompileError;
use prism_emit::BackendKind;
use prism_glsl::ShaderSource;
use prism_ir::Shader;
use rand::Rng;

/// A GPU platform as the study sees it: the driver compiler that consumes
/// GLSL plus the hardware model that executes the result.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Hardware/measurement parameters.
    pub spec: DeviceSpec,
    /// Driver (JIT compiler) model.
    pub driver: DriverModel,
    /// Draw configuration used for timing on this platform.
    pub draw: DrawConfig,
}

/// Everything the platform derives from one shader submission.
#[derive(Debug, Clone)]
pub struct ShaderCost {
    /// The driver-compiled IR (after the vendor's internal passes).
    pub driver_ir: Shader,
    /// Instruction statistics of the driver-compiled code.
    pub stats: IsaStats,
    /// The per-fragment cost model output.
    pub cost: FragmentCost,
    /// Noise-free time for one frame, in nanoseconds.
    pub ideal_frame_ns: f64,
    /// The source-form version token the driver front-end actually saw in
    /// the submitted text (empty when the source carried none): the
    /// `#version` payload for GLSL drivers (`"450"`, `"310 es"`), the
    /// `; Version:` header for the SPIR-V driver (`"spirv-1.0"`), the
    /// `metal_stdlib` signature for the Metal driver (`"metal"`) —
    /// end-to-end evidence of which emission backend's output reached this
    /// platform.
    pub source_version: String,
}

impl Platform {
    /// The platform preset for a vendor.
    pub fn new(vendor: Vendor) -> Platform {
        let spec = DeviceSpec::preset(vendor);
        let draw = DrawConfig::for_device(&spec);
        Platform {
            driver: DriverModel::preset(vendor),
            spec,
            draw,
        }
    }

    /// All seven platforms of the study, in [`Vendor::ALL`] order: the
    /// paper's five, then the SPIR-V and MSL consumers.
    pub fn all() -> Vec<Platform> {
        Vendor::ALL.iter().map(|v| Platform::new(*v)).collect()
    }

    /// The vendor of this platform.
    pub fn vendor(&self) -> Vendor {
        self.spec.vendor
    }

    /// The emission backend whose text this platform's driver consumes
    /// (GLES for the GLES phones, SPIR-V assembly for the Vulkan desktop,
    /// MSL for the Metal phone, desktop GLSL otherwise).
    pub fn backend(&self) -> BackendKind {
        self.vendor().backend()
    }

    /// Submits shader text to the driver and evaluates the hardware cost
    /// model. The text is parsed by the front-end matching this platform's
    /// declared [backend](Platform::backend) — a GLSL parse, the SPIR-V
    /// assembly parser, or the MSL desugaring + GLSL parse — and the
    /// returned cost records the source-form version the driver saw, so
    /// callers can verify the right backend's text reached this platform.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the driver front-end rejects the
    /// source — including text in the wrong source form for this platform
    /// (a Vulkan driver does not guess at GLSL).
    pub fn submit(&self, text: &str, name: &str) -> Result<ShaderCost, CompileError> {
        let foreign = |e: String| {
            CompileError::Front(prism_glsl::GlslError::new(prism_glsl::Stage::Parse, e))
        };
        match self.backend() {
            BackendKind::DesktopGlsl | BackendKind::Gles => {
                let source = ShaderSource::preprocess_and_parse(text, &Default::default())
                    .map_err(CompileError::Front)?;
                let driver_ir = self.driver.compile_source(&source, name)?;
                let mut cost = self.cost_of_ir(driver_ir);
                cost.source_version = source.version.unwrap_or_default();
                Ok(cost)
            }
            BackendKind::SpirvAsm => {
                let parsed = prism_emit::parse_spirv_asm(text).map_err(foreign)?;
                let driver_ir = self.driver.compile_ir(parsed.shader, name)?;
                let mut cost = self.cost_of_ir(driver_ir);
                cost.source_version = parsed.version;
                Ok(cost)
            }
            BackendKind::Msl => {
                let glsl = prism_emit::msl_to_glsl(text).map_err(foreign)?;
                let source = ShaderSource::preprocess_and_parse(&glsl, &Default::default())
                    .map_err(CompileError::Front)?;
                let driver_ir = self.driver.compile_source(&source, name)?;
                let mut cost = self.cost_of_ir(driver_ir);
                cost.source_version = BackendKind::Msl.version().to_string();
                Ok(cost)
            }
        }
    }

    /// Evaluates the hardware model on already driver-compiled IR.
    pub fn cost_of_ir(&self, driver_ir: Shader) -> ShaderCost {
        let stats = IsaStats::of(&driver_ir);
        let cost = FragmentCost::evaluate(&stats, &self.spec);
        let ideal_frame_ns = ideal_frame_time_ns(&cost, &self.spec, &self.draw);
        ShaderCost {
            driver_ir,
            stats,
            cost,
            ideal_frame_ns,
            source_version: String::new(),
        }
    }

    /// Samples one noisy timer-query measurement of a frame of this shader.
    pub fn sample_frame(&self, cost: &ShaderCost, rng: &mut impl Rng) -> TimeSample {
        sample_frame_time_ns(&cost.cost, &self.spec, &self.draw, rng)
    }

    /// Samples one frame while carrying measurement-run noise state (the
    /// phones' AR(1) thermal drift) across frames. Desktop platforms ignore
    /// the state and sample exactly as [`Platform::sample_frame`].
    pub fn sample_frame_with(
        &self,
        cost: &ShaderCost,
        rng: &mut impl Rng,
        state: &mut NoiseState,
    ) -> TimeSample {
        sample_frame_time_ns_with(&cost.cost, &self.spec, &self.draw, rng, state)
    }

    /// Runs the ARM-style static analyser on driver-compiled IR (used for the
    /// Fig. 4b complexity characterisation; defined for every platform but
    /// the paper reports it for the Mali toolchain).
    pub fn static_cycles(&self, driver_ir: &Shader) -> StaticCycles {
        analyze(driver_ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const BLUR: &str = r#"
        out vec4 fragColor; in vec2 uv;
        uniform sampler2D tex;
        uniform vec4 ambient;
        void main() {
            const vec4[] weights = vec4[](
                vec4(0.01), vec4(0.05), vec4(0.14), vec4(0.21), vec4(0.18),
                vec4(0.21), vec4(0.14), vec4(0.05), vec4(0.01));
            const vec2[] offsets = vec2[](
                vec2(-0.0083), vec2(-0.0062), vec2(-0.0042), vec2(-0.0021), vec2(0.0),
                vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
            float weightTotal = 0.0;
            fragColor = vec4(0.0);
            for (int i = 0; i < 9; i++) {
                weightTotal += weights[i][0];
                fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
            }
            fragColor /= weightTotal;
        }
    "#;

    /// The blur session most platform tests draw per-backend texts from.
    fn blur_session() -> prism_core::CompileSession {
        let source = prism_glsl::ShaderSource::parse(BLUR).unwrap();
        prism_core::CompileSession::new(&source, "blur").unwrap()
    }

    /// The text a platform's driver consumes for one flag combination.
    fn text_for(
        session: &prism_core::CompileSession,
        platform: &Platform,
        flags: prism_core::OptFlags,
    ) -> String {
        session
            .text_for(flags, platform.backend())
            .unwrap()
            .to_string()
    }

    #[test]
    fn seven_platforms_exist() {
        let all = Platform::all();
        assert_eq!(all.len(), 7);
        assert_eq!(all[0].vendor(), Vendor::Intel);
        assert_eq!(all.iter().filter(|p| p.vendor().is_mobile()).count(), 3);
    }

    #[test]
    fn platforms_declare_the_backend_their_driver_consumes() {
        for platform in Platform::all() {
            let expected = match platform.vendor() {
                Vendor::Arm | Vendor::Qualcomm => BackendKind::Gles,
                Vendor::Radv => BackendKind::SpirvAsm,
                Vendor::Apple => BackendKind::Msl,
                _ => BackendKind::DesktopGlsl,
            };
            assert_eq!(platform.backend(), expected, "{}", platform.vendor());
        }
    }

    #[test]
    fn submissions_record_the_version_the_driver_saw() {
        let arm = Platform::new(Vendor::Arm);
        let bare = arm.submit(BLUR, "blur").unwrap();
        assert_eq!(bare.source_version, "");
        let es_text = format!("#version 310 es\nprecision highp float;\n{BLUR}");
        let es = arm.submit(&es_text, "blur").unwrap();
        assert_eq!(es.source_version, "310 es");
        // The version header changes nothing about the modelled cost.
        assert_eq!(es.ideal_frame_ns, bare.ideal_frame_ns);

        // The non-GLSL front-ends report their own source forms.
        let session = blur_session();
        let radv = Platform::new(Vendor::Radv);
        let spirv = radv
            .submit(&session.base_text_for(BackendKind::SpirvAsm), "blur")
            .unwrap();
        assert_eq!(spirv.source_version, "spirv-1.0");
        let apple = Platform::new(Vendor::Apple);
        let msl = apple
            .submit(&session.base_text_for(BackendKind::Msl), "blur")
            .unwrap();
        assert_eq!(msl.source_version, "metal");
    }

    #[test]
    fn drivers_reject_text_in_the_wrong_source_form() {
        // A Vulkan driver does not guess at GLSL, and vice versa.
        assert!(Platform::new(Vendor::Radv).submit(BLUR, "blur").is_err());
        assert!(Platform::new(Vendor::Apple).submit(BLUR, "blur").is_err());
        let session = blur_session();
        let spirv = session.base_text_for(BackendKind::SpirvAsm);
        assert!(Platform::new(Vendor::Intel).submit(&spirv, "blur").is_err());
    }

    #[test]
    fn submit_compiles_and_costs_a_real_shader() {
        let session = blur_session();
        for platform in Platform::all() {
            // Each platform receives the source form its driver consumes;
            // the desktops take the corpus text as-is.
            let base_text;
            let text: &str = if platform.backend() == BackendKind::DesktopGlsl {
                BLUR
            } else {
                base_text = session.base_text_for(platform.backend());
                &base_text
            };
            let cost = platform.submit(text, "blur").expect("blur compiles");
            assert_eq!(cost.stats.texture_samples, 9.0, "{}", platform.vendor());
            assert!(cost.cost.total_cycles > 0.0);
            assert!(cost.ideal_frame_ns > 0.0);
            let static_cycles = platform.static_cycles(&cost.driver_ir);
            assert!(static_cycles.total() > 0.0);
        }
    }

    #[test]
    fn optimized_blur_is_faster_everywhere_and_more_so_on_mobile() {
        use prism_core::{Flag, OptFlags};
        let session = blur_session();
        let flags = OptFlags::from_flags(&[
            Flag::Unroll,
            Flag::FpReassociate,
            Flag::DivToMul,
            Flag::Coalesce,
        ]);
        let mut desktop_gains = Vec::new();
        let mut mobile_gains = Vec::new();
        for platform in Platform::all() {
            let before = platform
                .submit(&text_for(&session, &platform, OptFlags::NONE), "blur")
                .unwrap()
                .ideal_frame_ns;
            let after = platform
                .submit(&text_for(&session, &platform, flags), "blur")
                .unwrap()
                .ideal_frame_ns;
            let gain = (before - after) / before;
            assert!(
                gain > 0.0,
                "{}: optimization should not slow the blur down (gain {gain:.3})",
                platform.vendor()
            );
            if platform.vendor().is_mobile() {
                mobile_gains.push(gain);
            } else {
                desktop_gains.push(gain);
            }
        }
        let desktop_avg = desktop_gains.iter().sum::<f64>() / desktop_gains.len() as f64;
        let mobile_avg = mobile_gains.iter().sum::<f64>() / mobile_gains.len() as f64;
        assert!(
            mobile_avg > desktop_avg,
            "mobile should gain more (desktop {desktop_avg:.3}, mobile {mobile_avg:.3})"
        );
    }

    #[test]
    fn desktop_ideal_blur_wins_clear_their_noise_floors() {
        // ROADMAP "noise model fidelity": the best variant's *noise-free*
        // speedup on the motivating blur must sit clearly above each desktop
        // platform's timer noise, or Fig. 3's desktop wins would be
        // indistinguishable from measurement error (NVIDIA used to sit at
        // 0.85% against a 0.8% floor). The Vulkan desktop is held to the
        // same bar through its own source form.
        let session = blur_session();
        let variants = session.variants().unwrap();
        for platform in Platform::all() {
            if platform.vendor().is_mobile() {
                continue;
            }
            let original_text;
            let original_src: &str = if platform.backend() == BackendKind::DesktopGlsl {
                BLUR
            } else {
                original_text = session.base_text_for(platform.backend());
                &original_text
            };
            let original = platform
                .submit(original_src, "blur")
                .unwrap()
                .ideal_frame_ns;
            let best = variants
                .variants
                .iter()
                .map(|v| {
                    platform
                        .submit(
                            &text_for(&session, &platform, v.representative_flags()),
                            "blur",
                        )
                        .unwrap()
                        .ideal_frame_ns
                })
                .fold(f64::INFINITY, f64::min);
            let speedup = (original - best) / original;
            assert!(
                speedup > 3.0 * platform.spec.timer_noise,
                "{}: ideal blur speedup {:.2}% vs noise {:.2}% — within the floor",
                platform.vendor(),
                speedup * 100.0,
                platform.spec.timer_noise * 100.0
            );
        }
    }

    #[test]
    fn sampling_is_reproducible_per_seed() {
        let platform = Platform::new(Vendor::Arm);
        let cost = platform.submit(BLUR, "blur").unwrap();
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        assert_eq!(
            platform.sample_frame(&cost, &mut r1),
            platform.sample_frame(&cost, &mut r2)
        );
    }
}
