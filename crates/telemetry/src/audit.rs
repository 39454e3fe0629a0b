//! Per-query leakage audit records.
//!
//! JODES-style leakage accounting: alongside its result, every executed
//! query deposits a record of **exactly what the execution revealed** — the
//! public input sizes, the padded output bound, operation counts of the
//! data-independent pipeline, carry widths and the trace digest.
//! Everything in a record is a function of public parameters; there are no
//! timestamps and no data values, so the audit stream itself is
//! content-independent (and the test suites compare exports across runs
//! that differ only in data).
//!
//! Records land in a capped ring buffer ([`LeakageAudit`]): the newest
//! `capacity` records are retained and a drop counter records how many were
//! aged out.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use obliv_trace::OpCounters;

/// What one query execution revealed; public parameters only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Request label (`tenant/qN`); the representative request for a
    /// deduplicated batch slot.
    pub label: String,
    /// Canonical plan text (the plan shape is public).
    pub plan: String,
    /// Revealed input sizes: `(table, rows)` per referenced table.
    pub inputs: Vec<(String, u64)>,
    /// Rows in the (padded) output.
    pub output_rows: u64,
    /// Words per output row.
    pub output_row_width: u64,
    /// Carry words materialised through the join.
    pub carry_words: u64,
    /// Trace events recorded by the hashing sink.
    pub trace_events: u64,
    /// Semantic operation counts of the oblivious pipeline.
    pub counters: OpCounters,
    /// Chained SHA-256 digest of the public access trace.
    pub digest: String,
}

impl AuditRecord {
    /// Render the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"label\":\"{}\"", escape_json(&self.label));
        let _ = write!(out, ",\"plan\":\"{}\"", escape_json(&self.plan));
        out.push_str(",\"inputs\":[");
        for (i, (table, rows)) in self.inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"table\":\"{}\",\"rows\":{rows}}}",
                escape_json(table)
            );
        }
        out.push(']');
        let _ = write!(out, ",\"output_rows\":{}", self.output_rows);
        let _ = write!(out, ",\"output_row_width\":{}", self.output_row_width);
        let _ = write!(out, ",\"carry_words\":{}", self.carry_words);
        let _ = write!(out, ",\"trace_events\":{}", self.trace_events);
        let _ = write!(
            out,
            ",\"ops\":{{\"comparisons\":{},\"compare_exchanges\":{},\"routing_hops\":{},\"linear_steps\":{}}}",
            self.counters.comparisons,
            self.counters.compare_exchanges,
            self.counters.routing_hops,
            self.counters.linear_steps
        );
        let _ = write!(out, ",\"digest\":\"{}\"", escape_json(&self.digest));
        out.push('}');
        out
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<AuditRecord>,
    total: u64,
    dropped: u64,
}

/// Capped ring buffer of [`AuditRecord`]s.
///
/// Pushes take a short mutex (one per executed query, far off the metric
/// hot path).  A capacity of zero disables retention but still counts.
#[derive(Debug)]
pub struct LeakageAudit {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl LeakageAudit {
    /// Ring retaining the newest `capacity` records.
    pub fn new(capacity: usize) -> Self {
        LeakageAudit {
            capacity,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Configured retention capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a record, aging out the oldest when full.
    pub fn push(&self, record: AuditRecord) {
        let mut ring = self.ring.lock().unwrap();
        ring.total += 1;
        if self.capacity == 0 {
            ring.dropped += 1;
            return;
        }
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.ring.lock().unwrap().records.iter().cloned().collect()
    }

    /// Records ever pushed (including aged-out ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().unwrap().total
    }

    /// Records aged out of the ring.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Structured export: one JSON object per line, oldest first.
    pub fn export_json(&self) -> String {
        let ring = self.ring.lock().unwrap();
        let mut out = String::new();
        for record in &ring.records {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(label: &str) -> AuditRecord {
        AuditRecord {
            label: label.to_string(),
            plan: "Join { left: Scan(\"a\"), right: Scan(\"b\") }".to_string(),
            inputs: vec![("a".to_string(), 8), ("b".to_string(), 16)],
            output_rows: 32,
            output_row_width: 3,
            carry_words: 1,
            trace_events: 100,
            counters: OpCounters {
                comparisons: 10,
                compare_exchanges: 10,
                routing_hops: 5,
                linear_steps: 20,
            },
            digest: "abc123".to_string(),
        }
    }

    #[test]
    fn ring_caps_and_counts() {
        let audit = LeakageAudit::new(2);
        audit.push(record("t/q0"));
        audit.push(record("t/q1"));
        audit.push(record("t/q2"));
        let records = audit.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "t/q1");
        assert_eq!(records[1].label, "t/q2");
        assert_eq!(audit.total_recorded(), 3);
        assert_eq!(audit.dropped(), 1);
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let audit = LeakageAudit::new(0);
        audit.push(record("t/q0"));
        assert!(audit.records().is_empty());
        assert_eq!(audit.total_recorded(), 1);
    }

    #[test]
    fn json_export_is_one_object_per_line() {
        let audit = LeakageAudit::new(4);
        audit.push(record("t/q0"));
        audit.push(record("t/q1"));
        let export = audit.export_json();
        let lines: Vec<&str> = export.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"label\":\"t/q0\""));
        assert!(lines[0]
            .contains("\"inputs\":[{\"table\":\"a\",\"rows\":8},{\"table\":\"b\",\"rows\":16}]"));
        assert!(lines[0].contains("\"ops\":{\"comparisons\":10"));
        assert!(lines[0].ends_with("\"digest\":\"abc123\"}"));
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let mut r = record("t/q0");
        r.plan = "Scan(\"a\\b\")".to_string();
        assert!(r.to_json().contains("\"plan\":\"Scan(\\\"a\\\\b\\\")\""));
    }
}
