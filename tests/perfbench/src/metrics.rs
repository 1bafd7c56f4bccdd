//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit and
//! the direction that counts as better. The
//! catalogue mirrors `BENCHMARK.json` (a test holds them together), and
//! [`Report::result_line`] refuses to print a result that is missing a
//! declared metric or carries an undeclared or non-finite one.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (latency, cost).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed; `sim_*` units are simulated time.
    pub unit: &'static str,
    /// Direction. Per-layer metrics carry one too, but no bound.
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// Printed by the untraced run (`--trace 0`), on every workload. Host
/// times are in reference time (`setup_s` too, in reference seconds).
pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s", Better::Lower),
    metric("peak_rss_mb", "MiB", Better::Lower),
    metric("sim_s_per_ref_s", "sim_s/ref_s", Better::Higher),
    metric("ops_per_ref_s", "1/ref_s", Better::Higher),
    metric("op_ref_ms.p50", "ref_ms", Better::Lower),
];

/// Printed by the traced run (`--trace 1`), on every workload; a layer
/// a workload never calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    metric("op_ref_ms.p90", "ref_ms", Better::Lower),
    metric("m68vm.insn_per_s", "1/s", Better::Higher),
    metric("m68vm.sb_units", "count", Better::Higher),
    metric("m68vm.sb_units_per_s", "1/s", Better::Higher),
    metric("m68vm.assemble_ms", "ms", Better::Lower),
    metric("ukernel.run_s", "s", Better::Lower),
    metric("ukernel.slices", "count", Better::Lower),
    metric("ukernel.us_per_slice", "us", Better::Lower),
    metric("ukernel.setup_ms", "ms", Better::Lower),
    metric("ukernel.syscalls", "count", Better::Lower),
    metric("ukernel.syscalls_per_op", "count", Better::Lower),
    metric("ukernel.syscalls.open", "count", Better::Lower),
    metric("ukernel.syscalls.close", "count", Better::Lower),
    metric("ukernel.syscalls.read", "count", Better::Lower),
    metric("ukernel.syscalls.write", "count", Better::Lower),
    metric("ukernel.syscalls.unlink", "count", Better::Lower),
    metric("ukernel.syscalls.creat", "count", Better::Lower),
    metric("ukernel.syscalls.sleep", "count", Better::Lower),
    metric("ukernel.sim_us.sleep", "sim_us", Better::Lower),
    metric("ukernel.sim_us.open", "sim_us", Better::Lower),
    metric("ukernel.sim_us.unlink", "sim_us", Better::Lower),
    metric("ukernel.sim_us.read", "sim_us", Better::Lower),
    metric("ukernel.ctx_switches", "count", Better::Lower),
    metric("ukernel.signals", "count", Better::Lower),
    metric("ukernel.dumps", "count", Better::Lower),
    metric("ukernel.restores", "count", Better::Lower),
    metric("ukernel.execs", "count", Better::Lower),
    metric("ukernel.pages_fetched", "count", Better::Lower),
    metric("ukernel.self_s", "s", Better::Lower),
    metric("pmig.proto_ms.eager", "ms", Better::Lower),
    metric("pmig.proto_ms.precopy", "ms", Better::Lower),
    metric("pmig.proto_ms.demand", "ms", Better::Lower),
    metric("pmig.rounds", "count", Better::Lower),
    metric("pmig.pages_precopied", "count", Better::Lower),
    metric("pmig.pages_fetched", "count", Better::Lower),
    metric("pmig.bytes_sent", "count", Better::Lower),
    metric("pmig.precopy_useful_ratio", "ratio", Better::Higher),
    metric("pmig.downtime_ms.eager", "sim_ms", Better::Lower),
    metric("pmig.downtime_ms.precopy", "sim_ms", Better::Lower),
    metric("pmig.downtime_ms.demand", "sim_ms", Better::Lower),
    metric("pmig.total_ms.eager", "sim_ms", Better::Lower),
    metric("pmig.total_ms.precopy", "sim_ms", Better::Lower),
    metric("pmig.total_ms.demand", "sim_ms", Better::Lower),
    metric("pmig.migrate_sim_ms.p50", "sim_ms", Better::Lower),
    metric("pmig.migrate_sim_ms.p90", "sim_ms", Better::Lower),
    metric("pmig.self_s", "s", Better::Lower),
    metric("apps.step_ms", "ms", Better::Lower),
    metric("apps.decide_us", "us", Better::Lower),
    metric("apps.attempts", "count", Better::Higher),
    metric("apps.completed", "count", Better::Higher),
    metric("apps.evicted", "count", Better::Lower),
    metric("apps.success_ratio", "ratio", Better::Higher),
    metric("apps.self_s", "s", Better::Lower),
    metric("simnet.nfs_rpcs", "count", Better::Lower),
    metric("simnet.ether_bytes", "count", Better::Lower),
    metric("simnet.ether_messages", "count", Better::Lower),
    metric("bench.self_s", "s", Better::Lower),
    metric("bench.samples", "count", Better::Higher),
    metric("bench.trace_overhead_pct", "%", Better::Lower),
    metric("bench.host_setup_s", "s", Better::Lower),
    metric("bench.host_sim_s_per_s", "sim_s/s", Better::Higher),
    metric("bench.host_ops_per_s", "1/s", Better::Higher),
    metric("bench.host_op_ms.p50", "ms", Better::Lower),
    metric("bench.yardstick_ms", "ms", Better::Lower),
];

/// True for a legal metric name: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Measured values, by metric name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A human-readable line per metric: value, unit, direction.
    pub fn table(&self, catalogue: &[Metric]) -> Vec<String> {
        catalogue
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(f64::NAN);
                format!(
                    "{:<28} {:>18.6} {:<8} {}",
                    m.name,
                    v,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect()
    }

    /// The benchmark's last line: `correct`, `attempted`, `failed` and
    /// every metric of `catalogue` as `{"value", "unit"}`. Errors when a
    /// metric is missing, undeclared, badly named or not a finite number.
    pub fn result_line(
        &self,
        catalogue: &[Metric],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|m| m.name == **k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut fields = Vec::new();
        for m in catalogue {
            if !valid_name(m.name) {
                return Err(format!("metric name {:?} is not [A-Za-z0-9_.-]+", m.name));
            }
            let v = *self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", m.name));
            }
            fields.push(format!(
                r#""{}": {{"value": {v}, "unit": "{}"}}"#,
                m.name, m.unit
            ));
        }
        Ok(format!(
            r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_rule() {
        assert!(valid_name("op_host_ms.p50"));
        assert!(valid_name("ukernel.syscalls.open"));
        assert!(valid_name("9lives-ok_v1.2"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn catalogue_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(all.iter().all(|n| valid_name(n)));
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../../BENCHMARK.json");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let rec = format!(
                r#""name": "{}", "unit": "{}", "better": "{}""#,
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(spec.contains(&rec), "BENCHMARK.json lacks {rec}");
        }
        let declared = spec.matches(r#""name": "#).count();
        let workloads = spec.matches(r#""why": "#).count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_carries_value_and_unit() {
        let cat = &END_TO_END[..2];
        let mut r = Report::default();
        r.set("setup_s", 0.8127);
        r.set("peak_rss_mb", 41.5);
        let line = r.result_line(cat, true, 1000, 0).unwrap();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "peak_rss_mb": {"value": 41.5, "unit": "MiB"}}}"#
        );
        assert!(r.table(cat)[0].ends_with("lower"));
    }

    #[test]
    fn result_line_rejects_missing_extra_and_nonfinite() {
        let cat = &END_TO_END[..2];
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        assert!(r.result_line(cat, true, 1, 0).is_err(), "missing metric");
        r.set("peak_rss_mb", f64::NAN);
        assert!(r.result_line(cat, true, 1, 0).is_err(), "NaN value");
        r.set("peak_rss_mb", 1.0);
        r.set("ops_per_ref_s", 1.0);
        assert!(r.result_line(cat, true, 1, 0).is_err(), "undeclared metric");
    }
}
