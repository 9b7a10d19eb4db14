//! Corpus characterisation (the paper's §V / Fig. 4) without any timing:
//! lines of code, ARM static-analyser cycles and unique variant counts for
//! every shader in the corpus.
//!
//! ```text
//! cargo run --release --example corpus_characterization
//! ```

use prism::core::CompileSession;
use prism::corpus::Corpus;
use prism::glsl::loc::LocSummary;
use prism::gpu::{Platform, Vendor};

fn main() {
    let corpus = Corpus::gfxbench_like();
    let arm = Platform::new(Vendor::Arm);

    println!(
        "{:<28} {:>6} {:>14} {:>16}",
        "shader", "LoC", "ARM cycles", "unique variants"
    );
    let mut locs = Vec::new();
    let mut variant_counts = Vec::new();
    for case in &corpus.cases {
        let loc = case.lines_of_code();
        locs.push(loc);
        let cycles = arm
            .submit(&case.source.text, &case.name)
            .map(|c| arm.static_cycles(&c.driver_ir).total())
            .unwrap_or(0.0);
        let variants = CompileSession::new(&case.source, &case.name)
            .and_then(|s| s.variants())
            .map(|v| v.unique_count())
            .unwrap_or(0);
        variant_counts.push(variants);
        println!(
            "{:<28} {:>6} {:>14.1} {:>16}",
            case.name, loc, cycles, variants
        );
    }

    println!();
    if let Some(summary) = LocSummary::from_counts(&locs) {
        println!(
            "lines of code: min {} / median {} / max {}; {:.0}% of shaders under 50 lines",
            summary.min,
            summary.median,
            summary.max,
            summary.fraction_under_50 * 100.0
        );
    }
    let max_variants = variant_counts.iter().copied().max().unwrap_or(0);
    let small = variant_counts.iter().filter(|&&v| v < 10).count();
    println!(
        "unique variants: max {max_variants}; {small}/{} shaders have fewer than 10 distinct variants",
        variant_counts.len()
    );
}
