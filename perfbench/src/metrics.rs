//! Metric names, units and the end-to-end metric each per-layer metric
//! should move. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

/// Label of the full-size Table I DCGAN generator.
pub const DCGAN_FULL: &str = "DCGAN";
/// Label of the DCGAN generator reduced to 256 channels (the burst model).
pub const DCGAN_BURST: &str = "DCGAN-c256";
/// The six Table I generators, in Zipf rank order (most popular first) of the
/// `zoo-mix` workload. Each is served reduced to [`ZOO_CHANNELS`] channels.
pub const ZOO: [&str; 6] = ["DCGAN", "GP-GAN", "3D-GAN", "DiscoGAN", "MAGAN", "ArtGAN"];
/// Channel cap of the `zoo-mix` generators.
pub const ZOO_CHANNELS: usize = 16;
/// The layers of the full-size DCGAN generator.
pub const DCGAN_LAYERS: [&str; 5] = ["project", "tconv1", "tconv2", "tconv3", "tconv4"];
/// Span names of the traced run.
pub const SPANS: [&str; 6] = [
    "iteration",
    "request",
    "probe",
    "compile",
    "execute",
    "execute_batch",
];

/// Metric label of a zoo generator.
pub fn zoo_label(name: &str) -> String {
    format!("{name}-c{ZOO_CHANNELS}")
}

/// Every model the per-layer probe compiles and executes.
pub fn probe_labels() -> Vec<String> {
    let mut labels = vec![DCGAN_FULL.to_string(), DCGAN_BURST.to_string()];
    labels.extend(ZOO.iter().map(|m| zoo_label(m)));
    labels
}

/// The end-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("sim_busy_cycles", "cycles"),
];

/// One per-layer metric: name, unit, and the end-to-end metrics (on named
/// workloads) a change to it should move.
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub moves: &'static str,
}

const SERVE_MOVES: &str =
    "latency_p50_ms, latency_tail_ms and throughput_rps on zoo-mix; throughput_rps on dcgan-burst-verify";
const SIM_MOVES: &str = "latency_p50_ms and throughput_rps on dcgan-full";

/// The per-layer metrics, in report order.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, moves: &'static str| {
        out.push(LayerMetric { name, unit, moves });
    };
    for (name, unit) in [
        ("serve.queue_ms.p50", "ms"),
        ("serve.queue_ms.p90", "ms"),
        ("serve.exec_ms.p50", "ms"),
        ("serve.overhead_ms.p50", "ms"),
        ("serve.plan_ms.total", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.mean_wave", "requests"),
        ("serve.batched_frac", "ratio"),
        ("serve.retries", "count"),
        ("serve.rejected", "count"),
    ] {
        add(name.into(), unit, SERVE_MOVES);
    }
    for label in probe_labels() {
        add(
            format!("engine.compile_ms.{label}"),
            "ms",
            "setup_s on the workload serving that model; latency_tail_ms on zoo-mix (recompiles)",
        );
        add(
            format!("engine.compile_rss_mb.{label}"),
            "MB",
            "peak_rss_mb on the workload serving that model",
        );
        add(
            format!("engine.execute_ms.{label}"),
            "ms",
            "latency_p50_ms on the workload serving that model",
        );
    }
    add(
        "engine.execute_batch_ms_per_elem".into(),
        "ms",
        "throughput_rps on dcgan-burst-verify",
    );
    for name in ["engine.respawns", "engine.requeued_shards"] {
        add(name.into(), "count", "ok_frac on every workload");
    }
    for (name, unit) in [
        ("engine.integrity_checks_per_inf", "count"),
        ("engine.integrity_violations", "count"),
        ("engine.rows_healed", "count"),
        ("engine.integrity_undetected", "count"),
        ("engine.verify_tax", "ratio"),
    ] {
        add(
            name.into(),
            unit,
            "latency_p50_ms and throughput_rps on dcgan-burst-verify",
        );
    }
    for layer in DCGAN_LAYERS {
        for (field, unit) in [
            ("wall_ms", "ms"),
            ("busy_cycles", "cycles"),
            ("cycles_per_s", "cycles/s"),
            ("balance", "ratio"),
            ("uop_fetches", "count"),
            ("alu_ops", "count"),
        ] {
            add(format!("sim.{layer}.{field}"), unit, SIM_MOVES);
        }
    }
    for model in ZOO {
        add(
            format!("sim.{}.cycles_per_s", zoo_label(model)),
            "cycles/s",
            "latency_p50_ms and throughput_rps on zoo-mix",
        );
    }
    add(
        "trace.latency_p50_ms.traced".into(),
        "ms",
        "none: the traced half of the traced run",
    );
    add(
        "trace.latency_p50_ms.untraced".into(),
        "ms",
        "none: the untraced half of the traced run",
    );
    add(
        "trace.overhead_ms".into(),
        "ms",
        "latency_p50_ms of the traced run on every workload",
    );
    for span in SPANS {
        add(
            format!("trace.self_ms.{span}"),
            "ms",
            "latency_p50_ms on the workload whose run recorded the span",
        );
    }
    out
}

/// Whether a name is a valid metric name: a letter or digit first, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The measured values of one run, keyed by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// The entries of `spec` (name and unit), in that order. Panics on a
    /// name that was never measured or was measured in another unit: that is
    /// a broken benchmark, not a broken program.
    pub fn ordered<'a>(
        &'a self,
        spec: &[(String, &'static str)],
    ) -> Vec<(&'a str, f64, &'static str)> {
        spec.iter()
            .map(|(name, unit)| {
                assert!(valid_name(name), "invalid metric name `{name}`");
                let (key, &(value, measured)) = self
                    .values
                    .get_key_value(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                assert_eq!(measured, *unit, "metric `{name}` measured in another unit");
                (key.as_str(), value, measured)
            })
            .collect()
    }
}

/// A JSON number with all its digits (non-finite values become `null`).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "invalid metric name `{name}`");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("-lead"));
        assert!(!valid_name("sp ace"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        for name in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks `{name}`"
            );
        }
        let listed = spec.matches("\"name\":").count();
        let workloads = crate::workloads::WORKLOADS.len();
        assert_eq!(
            listed,
            names.len() + workloads,
            "BENCHMARK.json lists other metrics"
        );
    }
}
