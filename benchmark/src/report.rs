//! Metric names, units and the two output forms: the lines and final JSON
//! object a single run prints, and the record a run leaves for the suite.
//!
//! The tables here are the harness's half of the schema; `BENCHMARK.json`
//! is the other half and `run.sh --smoke` checks they agree.

use graphite_bench::json::Json;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// all of them; an op is one algorithm run / one query / one update batch.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run (layer = crate name). A workload
/// that does not reach a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("tgraph.build_ms", "ms"),
    ("tgraph.structure_digest_ms", "ms"),
    ("tgraph.bytes_per_edge", "B"),
    ("tgraph.delta_apply_freeze_ms", "ms"),
    ("tgraph.compact_ms", "ms"),
    ("tgraph.compactions", "count"),
    ("datagen.generate_ms", "ms"),
    ("datagen.update_stream_ms", "ms"),
    ("part.build_ms", "ms"),
    ("part.cut_fraction_milli", "milli"),
    ("part.interval_balance_milli", "milli"),
    ("bsp.supersteps", "count"),
    ("bsp.messages_sent", "count"),
    ("bsp.remote_messages", "count"),
    ("bsp.bytes_sent", "B"),
    ("bsp.routing_growths", "count"),
    ("bsp.compute_plus_ms", "ms"),
    ("bsp.messaging_ms", "ms"),
    ("bsp.barrier_ms", "ms"),
    ("bsp.run_overhead_ms", "ms"),
    ("bsp.codec_ns_per_msg", "ns"),
    ("icm.compute_calls", "count"),
    ("icm.scatter_calls", "count"),
    ("icm.warp_invocations", "count"),
    ("icm.warp_suppressions", "count"),
    ("icm.warp_tuples", "count"),
    ("icm.warp_group_msgs", "count"),
    ("icm.warp_ns", "ns"),
    ("icm.warp_kernel_ns_per_msg", "ns"),
    ("icm.sharing_ratio_milli", "milli"),
    ("algorithms.bfs_p50_ms", "ms"),
    ("algorithms.eat_p50_ms", "ms"),
    ("algorithms.rh_p50_ms", "ms"),
    ("algorithms.sssp_p50_ms", "ms"),
    ("algorithms.wcc_p50_ms", "ms"),
    ("algorithms.digest_ms", "ms"),
    ("baselines.msb_bfs_ms", "ms"),
    ("baselines.gof_sssp_ms", "ms"),
    ("serve.engine_new_ms", "ms"),
    ("serve.install_graph_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.hit_us_p50", "us"),
    ("serve.cache_hit_share_milli", "milli"),
    ("serve.accepted", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.recovered", "count"),
    ("serve.failed", "count"),
    ("stream.register_ms", "ms"),
    ("stream.ingest_ms_p50", "ms"),
    ("stream.ingest_ms_p90", "ms"),
    ("stream.dirty_ms", "ms"),
    ("stream.dirty_vertices", "count"),
    ("stream.warm_supersteps", "count"),
    ("stream.inc_compute_calls", "count"),
    ("stream.inc_work_ratio_milli", "milli"),
    ("stream.update_ops_per_s", "1/s"),
    ("trace.overhead_share_milli", "milli"),
];

/// Per-layer metrics that are counts of work done and must repeat exactly
/// between two runs of one seed on one commit.
pub const EXACT: [&str; 15] = [
    "bsp.supersteps",
    "bsp.messages_sent",
    "bsp.remote_messages",
    "bsp.bytes_sent",
    "icm.compute_calls",
    "icm.scatter_calls",
    "icm.warp_invocations",
    "icm.warp_suppressions",
    "icm.warp_tuples",
    "icm.warp_group_msgs",
    "part.cut_fraction_milli",
    "part.interval_balance_milli",
    "stream.dirty_vertices",
    "stream.warm_supersteps",
    "stream.inc_compute_calls",
];

/// What one run measured, in the order of the table it reports.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per-round (per-repetition for `setup_s`) values behind each
    /// end-to-end metric; what `compare` derives spreads from.
    pub per_round: Vec<(&'static str, Vec<f64>)>,
    pub hygiene: Vec<(&'static str, String)>,
}

impl Report {
    /// Every metric by name with its unit, then the hygiene lines, then —
    /// last — the one JSON object the contract asks for.
    pub fn print(&self) {
        println!(
            "# {} seed={} seconds={} trace={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced)
        );
        for (name, unit, value) in &self.metrics {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        for (key, value) in &self.hygiene {
            println!("# {key}: {value}");
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let comma = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }

    /// The record the suite collects from each child run.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let entry = vec![
                    ("value".to_owned(), Json::Num(*value)),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ];
                ((*name).to_owned(), Json::Obj(entry))
            })
            .collect();
        let per_round = self
            .per_round
            .iter()
            .map(|(name, values)| {
                (
                    (*name).to_owned(),
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                )
            })
            .collect();
        let hygiene = self
            .hygiene
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::Str(v.clone())))
            .collect();
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            ("seconds".to_owned(), Json::Num(self.seconds as f64)),
            (
                "trace".to_owned(),
                Json::Num(f64::from(u8::from(self.traced))),
            ),
            ("smoke".to_owned(), Json::Bool(self.smoke)),
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
            ("per_round".to_owned(), Json::Obj(per_round)),
            ("hygiene".to_owned(), Json::Obj(hygiene)),
        ])
    }
}
