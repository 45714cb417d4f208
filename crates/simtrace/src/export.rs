//! Trace export: JSONL for machine consumption, Chrome `trace_event` JSON
//! for chrome://tracing (or Perfetto) visualisation.

use serde::{Serialize, Value};

use crate::event::EventKind;
use crate::tracer::Trace;

impl Trace {
    /// One JSON object per line, in emit order. Field order is fixed by the
    /// type definitions, so for a deterministic simulation the bytes are a
    /// pure function of the seed.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let line = serde_json::to_string(event).expect("trace events always serialize");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The stream in Chrome `trace_event` format (JSON object form), ready
    /// to load into chrome://tracing.
    ///
    /// OS API entry/exit pairs become `B`/`E` duration slices; everything
    /// else is an instant (`i`) event. Timestamps are virtual microseconds;
    /// `pid` distinguishes slots when several traces are merged, and all
    /// events share tid 0 (each slot is single-threaded by construction).
    pub fn to_chrome(&self, pid: u64) -> String {
        let events = self
            .events
            .iter()
            .map(|event| {
                let (ph, name, args) = chrome_parts(&event.kind);
                let mut fields = object([
                    ("name", Value::Str(name)),
                    ("ph", Value::Str(ph.to_string())),
                    ("ts", event.at.as_micros().to_value()),
                    ("pid", pid.to_value()),
                    ("tid", 0u64.to_value()),
                ]);
                if ph == 'i' {
                    // Instant events need a scope; "t" = thread-scoped tick.
                    fields.push(("s".to_string(), "t".to_value()));
                }
                if !args.is_empty() {
                    fields.push(("args".to_string(), Value::Object(args)));
                }
                Value::Object(fields)
            })
            .collect();
        let chrome = Value::Object(object([
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", "ms".to_value()),
            (
                "otherData",
                Value::Object(object([("dropped", self.dropped.to_value())])),
            ),
        ]));
        serde_json::to_string(&chrome).expect("trace values hold no floats")
    }
}

/// The fields of a JSON object, in the given order.
fn object<const N: usize>(pairs: [(&str, Value); N]) -> Vec<(String, Value)> {
    pairs
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

/// Chrome phase, event name and `args` fields for one event.
fn chrome_parts(kind: &EventKind) -> (char, String, Vec<(String, Value)>) {
    match kind {
        EventKind::ApiEnter { api } => ('B', (*api).to_string(), Vec::new()),
        EventKind::ApiExit { api, ok, cost } => (
            'E',
            (*api).to_string(),
            object([("ok", ok.to_value()), ("cost", cost.to_value())]),
        ),
        EventKind::Watchpoint { pc, hits } => (
            'i',
            "watchpoint".to_string(),
            object([("pc", pc.to_value()), ("hits", hits.to_value())]),
        ),
        EventKind::DeviceIo { cost } => (
            'i',
            "device_io".to_string(),
            object([("cost", cost.to_value())]),
        ),
        EventKind::Reboot { count } => (
            'i',
            "reboot".to_string(),
            object([("count", count.to_value())]),
        ),
        EventKind::RequestStart { seq } => (
            'i',
            "request_start".to_string(),
            object([("seq", seq.to_value())]),
        ),
        EventKind::RequestDone { seq, ok, cost } => (
            'i',
            "request_done".to_string(),
            object([
                ("seq", seq.to_value()),
                ("ok", ok.to_value()),
                ("cost", cost.to_value()),
            ]),
        ),
        EventKind::RequestFailed {
            seq,
            phase,
            failure,
        } => (
            'i',
            format!("request_failed:{failure}"),
            object([("seq", seq.to_value()), ("phase", phase.to_value())]),
        ),
        EventKind::Watchdog { action, class, ok } => (
            'i',
            format!("watchdog:{action}"),
            object([("class", class.to_value()), ("ok", ok.to_value())]),
        ),
        EventKind::Kill { reason } => (
            'i',
            "kill".to_string(),
            object([("reason", reason.to_value())]),
        ),
        EventKind::Phase { name } => ('i', format!("phase:{name}"), Vec::new()),
        EventKind::InjectApply { fault_id, site } => (
            'i',
            "inject_apply".to_string(),
            object([("fault_id", fault_id.to_value()), ("site", site.to_value())]),
        ),
        EventKind::InjectUndo { fault_id } => (
            'i',
            "inject_undo".to_string(),
            object([("fault_id", fault_id.to_value())]),
        ),
        EventKind::HarnessFault { op, kind } => (
            'i',
            format!("harness_fault:{kind}"),
            object([("op", op.to_value())]),
        ),
        EventKind::Retry {
            op,
            attempt,
            backoff_us,
        } => (
            'i',
            "retry".to_string(),
            object([
                ("op", op.to_value()),
                ("attempt", attempt.to_value()),
                ("backoff_us", backoff_us.to_value()),
            ]),
        ),
        EventKind::Degraded { reason } => (
            'i',
            "degraded".to_string(),
            object([("reason", reason.to_value())]),
        ),
        EventKind::SlotTimeout { slot, budget_ms } => (
            'i',
            "slot_timeout".to_string(),
            object([
                ("slot", slot.to_value()),
                ("budget_ms", budget_ms.to_value()),
            ]),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;
    use simkit::SimTime;

    fn sample() -> Trace {
        let t = Tracer::enabled(16);
        t.set_now(SimTime::from_micros(10));
        t.emit(EventKind::Phase { name: "measure" });
        t.emit(EventKind::ApiEnter { api: "os_alloc" });
        t.emit(EventKind::Watchpoint { pc: 99, hits: 3 });
        t.emit(EventKind::ApiExit {
            api: "os_alloc",
            ok: true,
            cost: 120,
        });
        t.set_now(SimTime::from_micros(40));
        t.emit(EventKind::InjectApply {
            fault_id: "MIFS@f+1".to_string(),
            site: 99,
        });
        t.snapshot()
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let jsonl = sample().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"Watchpoint\""));
        assert!(jsonl.contains("MIFS@f+1"));
    }

    #[test]
    fn jsonl_bytes_are_reproducible() {
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
    }

    #[test]
    fn chrome_export_pairs_api_enter_exit() {
        let chrome = sample().to_chrome(7);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\""), "{chrome}");
        assert!(chrome.contains("\"ph\":\"E\""), "{chrome}");
        assert!(chrome.contains("\"pid\":7"));
        assert!(chrome.contains("\"ts\":10"));
        assert!(chrome.contains("\"dropped\":0"));
    }

    #[test]
    fn chrome_export_escapes_names() {
        let t = Tracer::enabled(4);
        t.emit(EventKind::Kill {
            reason: "restart \"storm\"",
        });
        let chrome = t.snapshot().to_chrome(0);
        assert!(chrome.contains("restart \\\"storm\\\""), "{chrome}");
    }
}
