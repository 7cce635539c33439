//! Spans recorded by the harness around each call into a layer of the
//! program under test — the program itself carries no instrumentation yet.
//! Spans stay in pre-sized memory until the run ends and are then written
//! as Chrome-trace JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::quote;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<module>.<call>` for calls into the program; `harness.*`
    /// for the benchmark's own work (refill, verify) inside an op.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Index of the op this span belongs to; spans of one op share it.
    /// `None` for a layer probe, which serves no op.
    pub op: Option<u32>,
    /// Display lane: ops in flight together get different lanes.
    pub lane: u32,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Room for `capacity` spans is allocated up front so that recording
    /// inside the measured loop does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 if `t` is earlier).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: Option<u32>,
        lane: u32,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let end_ns = self.ns(end).max(start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            lane,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` as a root span of its own (used by the layer probes).
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, None, None, 0);
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Self time per span: its duration minus what its children cover.
    /// `Err` names the first span that is not inside its parent.
    pub fn self_times_ns(&self) -> Result<Vec<u64>, String> {
        let mut selfs: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            let parent = self
                .spans
                .get(p as usize)
                .ok_or_else(|| format!("span {i}: no parent {p}"))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            let own = s.end_ns - s.start_ns;
            selfs[p as usize] = selfs[p as usize]
                .checked_sub(own)
                .ok_or_else(|| format!("children of span {p} ({}) overlap", parent.name))?;
        }
        Ok(selfs)
    }

    /// Total self time per span name, in name order.
    pub fn self_time_by_name_ns(&self) -> Result<BTreeMap<&'static str, u64>, String> {
        let selfs = self.self_times_ns()?;
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            *by_name.entry(span.name).or_insert(0) += own;
        }
        Ok(by_name)
    }

    /// Chrome-trace JSON: one complete ("X") event per span, microsecond
    /// timestamps, the op index and parent id in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let or_null = |id: Option<u32>| id.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {i}, \"parent\": {}, \"op\": {}}}}}{}\n",
                quote(s.name),
                quote(workload),
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                or_null(s.parent),
                or_null(s.op),
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_rejects_escapes() {
        let mut t = Tracer::with_capacity(8);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let op = t.record("op", at(0), at(100), None, Some(0), 0);
        t.record("a", at(10), at(40), Some(op), Some(0), 0);
        t.record("b", at(40), at(90), Some(op), Some(0), 0);
        let selfs = t.self_times_ns().unwrap();
        assert_eq!(selfs, vec![20_000, 30_000, 50_000]);
        assert_eq!(t.self_time_by_name_ns().unwrap()["op"], 20_000);
        assert!(crate::json::parse(&t.chrome_json("w")).is_ok());

        t.record("escapes", at(90), at(110), Some(op), Some(0), 0);
        assert!(t.self_times_ns().is_err());
    }
}
