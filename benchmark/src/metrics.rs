//! The metric tables: every name the benchmark reports, with its unit
//! and direction, in one place. `BENCHMARK.json` at the repo root lists
//! the same names (a self-test compares the two), `run` emits exactly
//! these, and `compare` judges with these bounds.

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a count or ratio).
    pub samples: usize,
}

impl Metric {
    /// `{"value": v, "unit": u}`, the shape the contract fixes.
    pub fn json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ])
    }
}

/// A metric's definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// On the box the benchmark was built on, a quiet hour gave run-to-run
/// spreads (quartile distance over median, ten seeds) of 0.01–0.04 for
/// the times and rates. A busy neighbour slows whole stretches of
/// seconds by half; the best-slice rule holds the spread to 0.01–0.16
/// while a window keeps one undisturbed second, and nothing holds it
/// when a window has none. The contract wants a spread under a third of
/// its bound, so the times and rates get its maximum, 0.25. Tail
/// latencies are not here: their spread (up to 0.49 of the median for
/// the p99 of `serve-mixed`, even in the quiet hour) is wider than any
/// bound could be, so they are per-layer readings (`loadgen.*_p99_us`).
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ingest_mupd_s", "Mupd/s", true, 0.25),
    e2e("read_kqps", "kq/s", true, 0.25),
    e2e("write_p50_us", "us", false, 0.25),
    e2e("read_p50_us", "us", false, 0.25),
    e2e("envelope_width_rel", "ratio", false, 0.10),
    e2e("peak_rss_mb", "MiB", false, 0.20),
];

/// One layer each, measured from outside. No bounds: they explain an
/// end-to-end change, they do not gate one.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("sketch.hash_ns_per_item", "ns", false),
    layer("sketch.cm_update_ns_per_item", "ns", false),
    layer("concurrent.lease_ns", "ns", false),
    layer("concurrent.prepare_ns_per_item", "ns", false),
    layer("concurrent.apply_batch_ns_per_item", "ns", false),
    layer("concurrent.coalesce_ratio", "ratio", false),
    layer("concurrent.estimate_ns", "ns", false),
    layer("concurrent.dirty_spans_ns", "ns", false),
    layer("concurrent.cells_snapshot_ns", "ns", false),
    layer("service.protocol.req_encode_ns", "ns", false),
    layer("service.protocol.batch_decode_ns_per_item", "ns", false),
    layer("service.protocol.resp_encode_ns", "ns", false),
    layer("service.protocol.resp_decode_ns", "ns", false),
    layer("service.protocol.bytes_per_item", "B", false),
    layer("service.objects.route_apply_ns_per_frame", "ns", false),
    layer("service.objects.query_ns", "ns", false),
    layer("service.objects.snapshot_since_ns", "ns", false),
    layer("service.server.rtt_floor_us", "us", false),
    layer("service.server.frame_overhead_us", "us", false),
    layer("service.server.frames", "count", true),
    layer("service.server.frames_per_wakeup", "ratio", true),
    layer("service.server.ready_peak", "count", false),
    layer("service.server.busy_rejections", "count", false),
    layer("service.client.roundtrip_us", "us", false),
    layer("service.client.bytes_out_per_op", "B", false),
    layer("service.client.bytes_in_per_op", "B", false),
    layer("merge.encode_ns_per_kib", "ns", false),
    layer("merge.decode_ns_per_kib", "ns", false),
    layer("merge.apply_change_ns", "ns", false),
    layer("merge.merge_states_ns", "ns", false),
    layer("replica.route_ns_per_item", "ns", false),
    layer("replica.batch_us", "us", false),
    layer("replica.query_us", "us", false),
    layer("replica.fanout_overhead_us", "us", false),
    layer("replica.unchanged_rate", "ratio", true),
    layer("replica.delta_rate", "ratio", false),
    layer("replica.full_rate", "ratio", false),
    layer("replica.bytes_in_per_read", "B", false),
    layer("replica.bytes_out_per_read", "B", false),
    layer("replica.catchup_pushed", "count", false),
    layer("spec.check_ns_per_op", "ns", false),
    layer("loadgen.sched_lag_p99_us", "us", false),
    layer("loadgen.late_share", "ratio", false),
    layer("loadgen.write_p99_us", "us", false),
    layer("loadgen.read_p99_us", "us", false),
    layer("loadgen.trace_overhead_pct", "%", false),
    layer("loadgen.slice_cv", "ratio", false),
];

/// Layer readings the set prints but `BENCHMARK.json` leaves out: the
/// server's own latency histograms are log2-bucketed, so each reads as
/// a power of two and repeats exactly from run to run.
pub const INFORMATIONAL: [MetricDef; 2] = [
    layer("service.server.update_p50_ns", "ns", false),
    layer("service.server.query_p50_ns", "ns", false),
];

/// Checks that `metrics` are exactly `defs`, in order, all finite.
pub fn check_complete(metrics: &[Metric], defs: &[MetricDef]) -> Result<(), String> {
    if metrics.len() != defs.len() {
        return Err(format!(
            "{} metrics for {} definitions",
            metrics.len(),
            defs.len()
        ));
    }
    for (m, d) in metrics.iter().zip(defs) {
        if m.name != d.name || m.unit != d.unit {
            return Err(format!(
                "metric {} [{}] where {} [{}] belongs",
                m.name, m.unit, d.name, d.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a number (no samples?)", m.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and these tables say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::report::DEFAULT_SECONDS as f64)
        );
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.map(|(n, _)| n.to_string())
        );
        assert_eq!(
            names("workloads", "why"),
            WORKLOADS.map(|(_, w)| w.to_string())
        );
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    /// `ledger.json` predicts a row for every per-layer metric, names a
    /// no-change workload for each, and claims nothing.
    #[test]
    fn ledger_json_predicts_every_layer_metric() {
        let text = include_str!("../ledger.json");
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
        let doc = parse(text).expect("ledger.json parses");
        let rows = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        let listed: Vec<&str> = rows
            .iter()
            .map(|r| r.get("metric").and_then(Json::as_str).unwrap())
            .collect();
        let wanted: Vec<&str> = PER_LAYER
            .iter()
            .chain(&INFORMATIONAL)
            .map(|d| d.name)
            .collect();
        let mut sorted = (listed.clone(), wanted.clone());
        sorted.0.sort_unstable();
        sorted.1.sort_unstable();
        assert_eq!(sorted.0, sorted.1);
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        for row in rows {
            let metric = row.get("metric").and_then(Json::as_str).unwrap();
            let quiet = row.get("no_change_on").and_then(Json::as_arr).unwrap();
            assert!(!quiet.is_empty(), "{metric} names no no-change workload");
            for w in quiet {
                assert!(workloads.contains(&w.as_str().unwrap()), "{metric}");
            }
            for mv in row.get("moves").and_then(Json::as_arr).unwrap() {
                let target = mv.get("end_to_end").and_then(Json::as_str).unwrap();
                assert!(
                    END_TO_END.iter().any(|d| d.name == target),
                    "{metric} -> {target}"
                );
                for w in mv.get("on").and_then(Json::as_arr).unwrap() {
                    assert!(workloads.contains(&w.as_str().unwrap()), "{metric}");
                }
            }
        }
    }

    #[test]
    fn completeness_check_names_the_gap() {
        let ok: Vec<Metric> = END_TO_END
            .iter()
            .map(|d| Metric {
                name: d.name,
                value: 1.0,
                unit: d.unit,
                samples: 1,
            })
            .collect();
        assert!(check_complete(&ok, &END_TO_END).is_ok());
        let mut nan = ok.clone();
        nan[3].value = f64::NAN;
        assert!(check_complete(&nan, &END_TO_END)
            .unwrap_err()
            .contains(END_TO_END[3].name));
        assert!(check_complete(&ok[1..], &END_TO_END).is_err());
    }
}
