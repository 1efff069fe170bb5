//! Metric names, the result line and the run's metadata.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports, as listed in
/// `BENCHMARK.json`. Each workload maps its own headline metrics onto
/// them (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, as listed in `BENCHMARK.json`. A
/// workload that bypasses a layer reports 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    // hf-sync: deque, injector, notifier.
    ("steal_success_rate", "ratio"),
    ("sleeps_per_ktask", "count"),
    ("wakeups_per_ktask", "count"),
    ("injector_batches_per_run", "count"),
    ("notify_coalesced_per_run", "count"),
    // hf-core.sched: worker loop, successor release.
    ("release_to_start_us_p50", "us"),
    ("release_to_start_us_p99", "us"),
    ("settle_us", "us"),
    ("tasks_per_run", "count"),
    // hf-core.plan: freeze, placement, fusion cache.
    ("build_us", "us"),
    ("submit_hit_us", "us"),
    ("submit_miss_us", "us"),
    ("topo_cache_hit_ratio", "ratio"),
    ("fused_per_run", "count"),
    ("placement_imbalance", "ratio"),
    // hf-gpu: copies, pool, kernels.
    ("h2d_bytes_per_epoch", "B"),
    ("d2h_bytes_per_epoch", "B"),
    ("transfers_elided_ratio", "ratio"),
    ("pool_magazine_hit_ratio", "ratio"),
    ("h2d_wait_us", "us"),
    ("kernel_us", "us"),
    ("d2h_wait_us", "us"),
    ("device_busy_modeled_ms", "ms"),
    // hf-core.stream: epoch gate, residency ring.
    ("admit_us", "us"),
    ("kernel_lane_gap_us", "us"),
    ("copy_kernel_overlap_frac", "ratio"),
    // hf-core.fleet: admission.
    ("fleet_submit_us", "us"),
    ("admission_wait_ms_interactive", "ms"),
    ("admission_wait_ms_batch", "ms"),
    ("fleet_queue_depth", "count"),
    ("fleet_rejections", "count"),
    // hf-telemetry.
    ("events_per_job", "count"),
    ("events_dropped", "count"),
    ("pump_us", "us"),
    ("scrape_us", "us"),
    // hf-timing / hf-place applications.
    ("corr_build_us", "us"),
    ("place_job_ms", "ms"),
    // Self time per layer, as a share of end-to-end time.
    ("self_frac.hf-core.plan", "ratio"),
    ("self_frac.hf-core.sched", "ratio"),
    ("self_frac.hf-core.stream", "ratio"),
    ("self_frac.hf-core.fleet", "ratio"),
    ("self_frac.apps", "ratio"),
    ("self_frac.body", "ratio"),
    // The benchmark itself.
    ("gen_late_ms_p99", "ms"),
    ("trace_overhead_ratio", "ratio"),
    ("unexplained_frac", "ratio"),
];

/// One named value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or mean, when there is one.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n: None,
        }
    }

    pub fn with_n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }
}

/// Formats a number for JSON: finite values with all their digits.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for JSON.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object of metrics by name: `{"value", "unit"}` each, plus the
/// sample count `n` where known and `with_n` is set.
pub fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let n = match m.n {
                Some(n) if with_n => format!(", \"n\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics, false)
    )
}

/// What makes two results comparable.
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Fixed workload parameters (sizes, rates, limits), in order.
    pub params: Vec<(&'static str, String)>,
}

impl Meta {
    pub fn to_json(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), string(v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"git_rev\": {}, \"source_digest\": {}, \"build_profile\": {}, \"params\": {{{}}}}}",
            string(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            nproc(),
            string(&git_rev()),
            string(&source_digest()),
            string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
            params.join(", ")
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, or `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a digest of the runtime crates' sources, so two results can be
/// matched to the same code even outside a git checkout.
fn source_digest() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let mut files = Vec::new();
    collect_files(&root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// The metric lists here and in `BENCHMARK.json` must not drift.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let squeezed: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squeezed.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = squeezed.matches("{\"name\":").count();
        let workloads = squeezed.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
