//! Metric names, units and the result line.

/// End-to-end metrics (untraced run), name and unit, in print order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("session_p50_ms", "ms"),
    ("served_fraction", "ratio"),
    ("sustained_vms_per_s", "1/s"),
    ("swap_p50_ms", "ms"),
    ("samples_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), name and unit, in print order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sim.streams_s", "s"),
    ("core.pipeline.train_s", "s"),
    ("core.pipeline.classify_ns_per_sample", "ns"),
    ("core.preprocess.ns_per_row", "ns"),
    ("core.pca.ns_per_row", "ns"),
    ("core.knn.ns_per_row.w1", "ns"),
    ("core.knn.ns_per_row.w32", "ns"),
    ("core.knn.ns_per_row.pool", "ns"),
    ("core.online.push_ns_per_frame", "ns"),
    ("core.online.push_batch_ns_per_frame", "ns"),
    ("core.online.vote_self_ns_per_frame", "ns"),
    ("metrics.repair.admit_ns", "ns"),
    ("metrics.repair.usable_ratio", "ratio"),
    ("metrics.wire.encode_ns_per_frame", "ns"),
    ("metrics.wire.decode_ns_per_frame", "ns"),
    ("metrics.wire.bytes_per_frame", "bytes"),
    ("metrics.filter.extract_ns_per_snapshot", "ns"),
    ("serve.client.connect_us.p50", "us"),
    ("serve.client.connect_us.p99", "us"),
    ("serve.client.call_us.p50", "us"),
    ("serve.client.call_us.p99", "us"),
    ("serve.client.classify_us.p50", "us"),
    ("serve.client.session_ms.p99", "ms"),
    ("serve.client.busy", "count"),
    ("serve.client.rejected", "count"),
    ("serve.client.errors", "count"),
    ("serve.server.cpu_us_per_frame", "us"),
    ("serve.server.cpu_us_per_session", "us"),
    ("serve.server.ctx_switches_per_frame", "count"),
    ("serve.server.layer_sum_us_per_frame", "us"),
    ("serve.server.unattributed_us_per_frame", "us"),
    ("serve.server.classify_us.p50", "us"),
    ("serve.server.classify_us.p99", "us"),
    ("serve.server.swap_us.p50", "us"),
    ("serve.server.frames_in", "count"),
    ("serve.server.sessions_started", "count"),
    ("serve.server.shed", "count"),
    ("serve.server.rejected", "count"),
    ("serve.server.swaps", "count"),
    ("bench.gen.lag_ms.p99", "ms"),
    ("bench.gen.backlog_max", "count"),
    ("bench.gen.threads", "count"),
    ("bench.gen.connections", "count"),
    ("bench.trace.overhead_pct", "%"),
];

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics in `names` order. Fails on a missing or
/// non-finite value rather than printing a number that was not measured.
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &std::collections::BTreeMap<&str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let v = *values.get(name).ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(entries) => {
                &entries.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no `{key}`")).1
            }
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> String {
        match v {
            Value::String(s) => s.clone(),
            other => panic!("not a string: {other:?}"),
        }
    }

    fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
        match field(spec, key) {
            Value::Array(items) => {
                items.iter().map(|m| (text(field(m, "name")), text(field(m, "unit")))).collect()
            }
            _ => panic!("`{key}` is not a list"),
        }
    }

    fn spec() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        serde_json::from_str(&json).expect("BENCHMARK.json parses")
    }

    fn own(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let spec = spec();
        assert_eq!(listed(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&spec, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let names: Vec<String> = match field(&spec(), "workloads") {
            Value::Array(items) => items.iter().map(|w| text(field(w, "name"))).collect(),
            _ => panic!("`workloads` is not a list"),
        };
        let ours: Vec<String> = crate::Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values = END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(10, 0, &END_TO_END, &values).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(entries) = &v else { panic!("not an object") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(metrics) = field(&v, "metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let mut missing = values.clone();
        missing.remove("setup_s");
        assert!(result_line(10, 0, &END_TO_END, &missing).is_err());
        let mut nan = values;
        nan.insert("setup_s", f64::NAN);
        assert!(result_line(10, 0, &END_TO_END, &nan).is_err());
    }
}
