//! The metric vocabulary and the result line.
//!
//! Every workload reports every metric of its table, so the two tables
//! below are the single source of the names and units `BENCHMARK.json`
//! declares (a test keeps them in step). A per-layer metric of a layer a
//! workload does not exercise reads 0.

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("item_geomean_ms", "ms"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics and per-instance rows, reported by traced runs
/// (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Front end: scenario -> wp -> reduce.
    ("codes.build_ms", "ms"),
    ("scenario.build_ms", "ms"),
    ("wp.qec_wp_ms", "ms"),
    ("wp.pre_conjuncts", "count"),
    ("vcgen.reduce_ms", "ms"),
    ("vcgen.targets", "count"),
    // Encoding.
    ("vcgen.encode_ms", "ms"),
    ("vcgen.queries", "count"),
    ("smt.sat_vars", "count"),
    ("smt.clauses", "count"),
    // CDCL solver.
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.mean_lbd", "lbd"),
    ("sat.learned", "count"),
    ("sat.arena_mb", "MiB"),
    // Batch engine.
    ("engine.run_ms", "ms"),
    ("engine.busy_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.idle_frac", "frac"),
    ("engine.subtasks", "count"),
    ("engine.work_ratio", "ratio"),
    ("engine.conflict_ratio", "ratio"),
    ("engine.work_ratio.d7_proof", "ratio"),
    ("engine.work_ratio.d7_cex", "ratio"),
    ("engine.work_ratio.d9_proof", "ratio"),
    ("engine.work_ratio.d9_cex", "ratio"),
    ("engine.conflict_ratio.d7_proof", "ratio"),
    ("engine.conflict_ratio.d7_cex", "ratio"),
    ("engine.conflict_ratio.d9_proof", "ratio"),
    ("engine.conflict_ratio.d9_cex", "ratio"),
    // Decision diagrams.
    ("dd.compile_ms", "ms"),
    ("dd.count_ms", "ms"),
    ("dd.peak_nodes", "count"),
    ("dd.nodes", "count"),
    ("dd.final_nodes", "count"),
    ("dd.cache_hit_rate", "frac"),
    ("dd.gc_runs", "count"),
    ("dd.reorder_swaps", "count"),
    // Daemon.
    ("serve.requests", "count"),
    ("serve.stream_s", "s"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.p99_tail_samples", "count"),
    ("serve.cache_share", "frac"),
    ("serve.warm_share", "frac"),
    ("serve.cold_share", "frac"),
    ("serve.cache_p50_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.first_reply_ms", "ms"),
    // The benchmark itself.
    ("bench.coverage_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.fail_frac", "frac"),
    ("bench.peak_rss_mb", "MiB"),
    // surface-correction instances (untraced).
    ("surface.proof_seq_s", "s"),
    ("surface.cex_seq_s", "s"),
    ("surface.proof_engine_s", "s"),
    ("surface.cex_engine_s", "s"),
    ("inst.seq.d7_proof_s", "s"),
    ("inst.seq.d7_cex_s", "s"),
    ("inst.seq.d9_proof_s", "s"),
    ("inst.seq.d9_cex_s", "s"),
    ("inst.engine.d7_proof_s", "s"),
    ("inst.engine.d7_cex_s", "s"),
    ("inst.engine.d9_proof_s", "s"),
    ("inst.engine.d9_cex_s", "s"),
    // code-analysis batches and jobs (untraced; job rows are busy time).
    ("analysis.distance_s", "s"),
    ("analysis.frontier_s", "s"),
    ("analysis.count_s", "s"),
    ("inst.distance.surface_11_ms", "ms"),
    ("inst.distance.toric_7_ms", "ms"),
    ("inst.distance.surface_9_ms", "ms"),
    ("inst.distance.xzzx_9_ms", "ms"),
    ("inst.distance.xzzx_7_ms", "ms"),
    ("inst.distance.toric_5_ms", "ms"),
    ("inst.distance.hgp_hamming_ms", "ms"),
    ("inst.distance.carbon_ms", "ms"),
    ("inst.distance.reed_muller_5_ms", "ms"),
    ("inst.frontier.surface_5_r5_ms", "ms"),
    ("inst.frontier.surface_5_r3_ms", "ms"),
    ("inst.frontier.surface_5_r1_ms", "ms"),
    ("inst.frontier.surface_3_r3_ms", "ms"),
    ("inst.frontier.steane_r3_ms", "ms"),
    ("inst.count.toric_3_ms", "ms"),
    ("inst.count.carbon_ms", "ms"),
    ("inst.count.repetition_127_ms", "ms"),
    ("inst.count.surface_5_ms", "ms"),
    ("inst.count.xzzx_5_ms", "ms"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs or requests attempted.
    pub attempted: u64,
    /// Of those, ended inconclusive, cancelled, shed or errored.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub rows: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

impl Outcome {
    /// Records a metric (last write wins) and prints it as a row.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.rows.push(format!("metric {name} = {value} {unit}"));
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// [`Outcome::set`] for a name built at run time (per-instance rows).
    pub fn set_named(&mut self, name: &str, value: f64) -> Result<(), String> {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .ok_or_else(|| format!("undeclared metric {name}"))?;
        self.set(name, value);
        Ok(())
    }

    /// Records `bench.coverage_frac`, printing the unaccounted share when
    /// calls into the program cover less than 95 % of the traced time.
    pub fn coverage(&mut self, frac: f64) {
        self.set("bench.coverage_frac", frac);
        if frac < 0.95 {
            self.row(format!(
                "warning: {:.1} % of the traced calling-thread time is outside calls into the program",
                (1.0 - frac) * 100.0
            ));
        }
    }

    /// Adds a human-readable row.
    pub fn row(&mut self, line: String) {
        self.rows.push(line);
    }

    /// Records the end-to-end metrics from per-pass figures: wall time
    /// (s), item geometric mean (ms) and peak heap (MiB) as medians over
    /// passes, and the median set-up time (s).
    pub fn end_to_end(&mut self, wall: &[f64], item_ms: &[f64], heap_mb: &[f64], setup: f64) {
        self.set("wall_s", crate::stats::median(wall));
        self.set("item_geomean_ms", crate::stats::median(item_ms));
        self.set("setup_s", setup);
        self.set("peak_heap_mb", crate::stats::median(heap_mb));
    }

    /// Records the traced run's closing figures: the failed share of
    /// everything attempted and the process's peak resident memory.
    pub fn close_traced(&mut self) {
        self.set(
            "bench.fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        self.set("bench.peak_rss_mb", crate::stats::peak_rss_mb());
    }

    /// Records the solver layer's counters, with `solve_ms` the time
    /// spent solving.
    pub fn solver_metrics(&mut self, s: &veriqec_sat::SolverStats, solve_ms: f64) {
        self.set("sat.conflicts", s.conflicts as f64);
        self.set("sat.decisions", s.decisions as f64);
        self.set("sat.propagations", s.propagations as f64);
        if solve_ms > 0.0 {
            self.set("sat.props_per_s", s.propagations as f64 / (solve_ms / 1e3));
        }
        self.set("sat.mean_lbd", s.mean_learnt_lbd());
        self.set("sat.learned", s.learned as f64);
        self.set("sat.arena_mb", s.arena_bytes as f64 / (1024.0 * 1024.0));
    }

    /// Records the decision-diagram layer: `stats` summed over the
    /// compiled codes, `peak` the largest single-code peak, `final_nodes`
    /// the live nodes held after compilation.
    pub fn dd_metrics(&mut self, stats: &veriqec_dd::DdStats, peak: u64, final_nodes: u64) {
        self.set("dd.peak_nodes", peak as f64);
        self.set("dd.nodes", stats.nodes as f64);
        self.set("dd.final_nodes", final_nodes as f64);
        self.set("dd.cache_hit_rate", stats.cache_hit_rate());
        self.set("dd.gc_runs", stats.gc_runs as f64);
        self.set("dd.reorder_swaps", stats.reorder_swaps as f64);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: every metric of the end-to-end table (untraced
    /// run) or the per-layer table (traced run). Per-layer metrics a
    /// workload never set read 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was never set (a benchmark bug).
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc = veriqec_serve::json::Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|s| s.as_arr())
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_of_its_table() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = out.to_json(false);
        let doc = veriqec_serve::json::Json::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
            assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit));
        }
        let traced = veriqec_serve::json::Json::parse(&out.to_json(true)).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("sat.conflicts")
            .is_some());
    }
}
