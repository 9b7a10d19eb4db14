//! Wall-clock benchmark of prism through its public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study_cold|study_warm|serve_stream> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` it times the workload untraced and prints the end-to-end
//! metrics; with `--trace 1` it runs the workload once untraced and once
//! traced, writes the spans to `perfbench/out/`, and prints the per-layer
//! metrics. Every output check runs in both modes, outside the timed region.
//! The last line of standard output is the result as one JSON object; a
//! failed check prints it with `"correct": false` and exits with code 1.
//! `--smoke` runs the same code and checks on tiny inputs. See README.md.

mod serve;
mod study;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every `--trace 0` run prints, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// The per-layer metrics every `--trace 1` run prints, with their units.
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("glsl.parse_s", "s"),
    ("glsl.parse_calls", "count"),
    ("glsl.parse_bytes", "bytes"),
    ("core.session_s", "s"),
    ("core.lower_s", "s"),
    ("core.lower_calls", "count"),
    ("core.variants_s", "s"),
    ("core.stage_runs", "count"),
    ("core.stage_hits", "count"),
    ("core.stage_hit_ratio", "ratio"),
    ("core.emissions", "count"),
    ("core.emission_hits", "count"),
    ("core.evictions", "count"),
    ("core.spec_s", "s"),
    ("core.spec_verify_s", "s"),
    ("core.specializations", "count"),
    ("core.persist.load_s", "s"),
    ("core.persist.save_s", "s"),
    ("core.persist.snapshot_bytes", "bytes"),
    ("core.persist.entries_loaded", "count"),
    ("core.persist.shards_skipped", "count"),
    ("emit.gles_s", "s"),
    ("emit.spirv_s", "s"),
    ("emit.msl_s", "s"),
    ("emit.bytes", "bytes"),
    ("gpu.driver_s", "s"),
    ("gpu.driver_s.Intel", "s"),
    ("gpu.driver_s.AMD", "s"),
    ("gpu.driver_s.NVIDIA", "s"),
    ("gpu.driver_s.ARM", "s"),
    ("gpu.driver_s.Qualcomm", "s"),
    ("gpu.driver_s.RADV", "s"),
    ("gpu.driver_s.Apple", "s"),
    ("gpu.driver_calls", "count"),
    ("gpu.driver_repeat_ratio", "ratio"),
    ("gpu.spirv_parse_s", "s"),
    ("gpu.msl_to_glsl_s", "s"),
    ("gpu.cost_s", "s"),
    ("gpu.static_s", "s"),
    ("harness.measure_s", "s"),
    ("harness.frames", "count"),
    ("ir.ir_clones", "count"),
    ("ir.fingerprints_computed", "count"),
    ("analyze.requests", "count"),
    ("analyze.static_analyses", "count"),
    ("analyze.memo_hits", "count"),
    ("search.tune_calls", "count"),
    ("search.measurements", "count"),
    ("search.compiles", "count"),
    ("search.pruned", "count"),
    ("serve.rps", "1/s"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("serve.tune_p50_ms", "ms"),
    ("serve.hit_p50_us", "us"),
    ("serve.miss_p50_us", "us"),
    ("serve.miss_p99_us", "us"),
    ("serve.memo_served_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.zero_copy_ratio", "ratio"),
    ("serve.front_hits", "count"),
    ("serve.work_units", "count"),
    ("serve.compile_s", "s"),
    ("serve.analyze_s", "s"),
    ("serve.tune_s", "s"),
    ("serve.failed", "count"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Named metric values; `PER_LAYER` and `END_TO_END` fix the printed order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload run produced: counts, check failures, the timed set-ups
/// and passes, and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Wall-clock of each timed set-up and each timed pass.
    setups: Vec<f64>,
    passes: Vec<f64>,
    /// Per pass: the host's steal share over the pass and the time of a fixed
    /// calibration loop just before it, to tell host noise from the program's.
    host: Vec<(f64, f64)>,
    /// The largest peak resident memory of a pass, in MB.
    peak_mb: f64,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    /// Runs `setup` `reps` times, records each duration, and returns the
    /// last result. Workloads take set-up samples before every pass as well,
    /// so `setup_s` sees the host over the same stretch of time as `pass_s`.
    pub fn set_up<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup());
            self.setups.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one repetition")
    }

    /// Whether to time another pass: at least `MIN_PASSES`, and until
    /// `args.seconds` have passed since `start`.
    pub fn more_passes(&self, args: &Args, start: Instant) -> bool {
        self.passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds
    }

    /// Runs one timed pass of `work` and records its wall-clock and its peak
    /// resident memory, counted from a reset just before it so that set-up
    /// does not count.
    pub fn pass<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let calibration_ms = calibrate_ms();
        reset_peak_rss();
        let before = host_jiffies();
        let t = Instant::now();
        let result = work();
        self.passes.push(t.elapsed().as_secs_f64());
        let (steal, total) = host_jiffies().since(before);
        self.host
            .push((steal as f64 / total.max(1) as f64, calibration_ms));
        self.peak_mb = self.peak_mb.max(peak_rss_mb());
        result
    }

    /// Records the end-to-end metrics every workload reports, from the timed
    /// set-ups and passes.
    pub fn finish(&mut self) {
        let mut setups = self.setups.clone();
        setups.sort_by(|a, b| a.total_cmp(b));
        eprintln!(
            "{} set-ups (s): min {:.4}, median {:.4}, max {:.4}",
            setups.len(),
            setups[0],
            median(&setups),
            setups[setups.len() - 1]
        );
        let shown: Vec<String> = self.passes.iter().map(|p| format!("{p:.3}")).collect();
        eprintln!("{} passes (s): {}", self.passes.len(), shown.join(" "));
        let steal: Vec<String> = self.host.iter().map(|h| format!("{:.3}", h.0)).collect();
        eprintln!("host steal share per pass: {}", steal.join(" "));
        let calib: Vec<String> = self.host.iter().map(|h| format!("{:.2}", h.1)).collect();
        eprintln!("calibration loop per pass (ms): {}", calib.join(" "));
        let success = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        let m = &mut self.end_to_end;
        m.set("setup_s", median(&setups));
        m.set("pass_s", median(&self.passes));
        m.set("peak_rss_mb", self.peak_mb);
        m.set("success_ratio", success);
    }
}

/// Timed passes every untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Host CPU time from `/proc/stat`, in jiffies: (steal, total).
#[derive(Clone, Copy)]
struct Jiffies(u64, u64);

impl Jiffies {
    fn since(self, before: Jiffies) -> (u64, u64) {
        (
            self.0.saturating_sub(before.0),
            self.1.saturating_sub(before.1),
        )
    }
}

fn host_jiffies() -> Jiffies {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest times are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Jiffies(fields.get(7).copied().unwrap_or(0), total)
}

/// Milliseconds a fixed single-thread integer loop takes: a reading of how
/// fast the host runs this process right now, independent of prism.
fn calibrate_ms() -> f64 {
    let mut rng = Rng::new(1);
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..2_000_000 {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Worker threads: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the process's peak resident memory to its current size: writing 5
/// to `clear_refs` resets `VmHWM`.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("could not reset the peak resident memory: {e}");
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the seeded generator behind every drawn input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The benchmark's output directory, inside its own package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    let mode = if args.smoke { "smoke-" } else { "" };
    out_dir().join(format!(
        "trace-{mode}{}-seed{}.json",
        args.workload, args.seed
    ))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let (list, metrics): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER, &out.per_layer)
    } else {
        (&END_TO_END, &out.end_to_end)
    };
    let fields: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = metrics.0.get(*name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = out_dir().join(format!("work-{}", std::process::id()));
    let outcome = match args.workload.as_str() {
        "study_cold" => study::study_cold(&args),
        "study_warm" => study::study_warm(&args, &work),
        "serve_stream" => serve::serve_stream(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, unit) in list {
        if let Some(value) = metrics.0.get(*name) {
            eprintln!("{name:>32} {value:>16.6} {unit}");
        }
    }
    for failure in &outcome.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", result_line(&outcome, args.trace));
    if !outcome.failures.is_empty() {
        std::process::exit(1);
    }
}
