//! Trace export: JSONL for machine consumption, Chrome `trace_event` JSON
//! for chrome://tracing (or Perfetto) visualisation.

use std::borrow::Cow;

use serde::{SerError, Serialize, Token, Write};

use crate::event::{EventKind, TraceEvent};
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
        serde_json::to_string(&Chrome { trace: self, pid }).expect("trace values hold no floats")
    }
}

/// A trace in Chrome `trace_event` form, written event by event.
struct Chrome<'a> {
    trace: &'a Trace,
    pid: u64,
}

impl Serialize for Chrome<'_> {
    fn serialize<W: Write>(&self, w: &mut W) -> Result<(), SerError> {
        w.value(Token::Object)?;
        w.key("traceEvents");
        w.value(Token::Array)?;
        for event in &self.trace.events {
            w.element();
            write_event(w, event, self.pid)?;
        }
        w.close();
        entry(w, "displayTimeUnit", "ms")?;
        w.key("otherData");
        w.value(Token::Object)?;
        entry(w, "dropped", &self.trace.dropped)?;
        w.close();
        w.close();
        Ok(())
    }
}

/// Writes one object entry: `key`, then `value`.
fn entry<W: Write, T: Serialize + ?Sized>(w: &mut W, key: &str, value: &T) -> Result<(), SerError> {
    w.key(key);
    value.serialize(w)
}

/// Writes one Chrome event object.
fn write_event<W: Write>(w: &mut W, event: &TraceEvent, pid: u64) -> Result<(), SerError> {
    let (ph, name) = chrome_parts(&event.kind);
    w.value(Token::Object)?;
    entry(w, "name", &*name)?;
    entry(w, "ph", ph)?;
    entry(w, "ts", &event.at.as_micros())?;
    entry(w, "pid", &pid)?;
    entry(w, "tid", &0u64)?;
    if ph == "i" {
        // Instant events need a scope; "t" = thread-scoped tick.
        entry(w, "s", "t")?;
    }
    write_args(w, &event.kind)?;
    w.close();
    Ok(())
}

/// Chrome phase and event name for one event.
fn chrome_parts(kind: &EventKind) -> (&'static str, Cow<'static, str>) {
    match kind {
        EventKind::ApiEnter { api } => ("B", Cow::Borrowed(api)),
        EventKind::ApiExit { api, .. } => ("E", Cow::Borrowed(api)),
        EventKind::RequestFailed { failure, .. } => {
            ("i", format!("request_failed:{failure}").into())
        }
        EventKind::Watchdog { action, .. } => ("i", format!("watchdog:{action}").into()),
        EventKind::Phase { name } => ("i", format!("phase:{name}").into()),
        other => ("i", Cow::Borrowed(other.label())),
    }
}

/// Writes the event's `args` entry, unless it has no arguments.
fn write_args<W: Write>(w: &mut W, kind: &EventKind) -> Result<(), SerError> {
    if let EventKind::ApiEnter { .. } | EventKind::Phase { .. } = kind {
        return Ok(());
    }
    w.key("args");
    w.value(Token::Object)?;
    match kind {
        EventKind::ApiEnter { .. } | EventKind::Phase { .. } => {}
        EventKind::ApiExit { ok, cost, .. } => {
            entry(w, "ok", ok)?;
            entry(w, "cost", cost)?;
        }
        EventKind::Watchpoint { pc, hits } => {
            entry(w, "pc", pc)?;
            entry(w, "hits", hits)?;
        }
        EventKind::DeviceIo { cost } => entry(w, "cost", cost)?,
        EventKind::Reboot { count } => entry(w, "count", count)?,
        EventKind::RequestStart { seq } => entry(w, "seq", seq)?,
        EventKind::RequestDone { seq, ok, cost } => {
            entry(w, "seq", seq)?;
            entry(w, "ok", ok)?;
            entry(w, "cost", cost)?;
        }
        EventKind::RequestFailed { seq, phase, .. } => {
            entry(w, "seq", seq)?;
            entry(w, "phase", phase)?;
        }
        EventKind::Watchdog { class, ok, .. } => {
            entry(w, "class", class)?;
            entry(w, "ok", ok)?;
        }
        EventKind::Kill { reason } => entry(w, "reason", reason)?,
        EventKind::InjectApply { fault_id, site } => {
            entry(w, "fault_id", fault_id)?;
            entry(w, "site", site)?;
        }
        EventKind::InjectUndo { fault_id } => entry(w, "fault_id", fault_id)?,
        EventKind::SlotTimeout { slot, budget_ms } => {
            entry(w, "slot", slot)?;
            entry(w, "budget_ms", budget_ms)?;
        }
    }
    w.close();
    Ok(())
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
    fn jsonl_of_the_sample_is_pinned() {
        assert_eq!(
            sample().to_jsonl(),
            concat!(
                r#"{"seq":0,"at":10,"kind":{"Phase":{"name":"measure"}}}"#,
                "\n",
                r#"{"seq":1,"at":10,"kind":{"ApiEnter":{"api":"os_alloc"}}}"#,
                "\n",
                r#"{"seq":2,"at":10,"kind":{"Watchpoint":{"pc":99,"hits":3}}}"#,
                "\n",
                r#"{"seq":3,"at":10,"kind":{"ApiExit":{"api":"os_alloc","ok":true,"cost":120}}}"#,
                "\n",
                r#"{"seq":4,"at":40,"kind":{"InjectApply":{"fault_id":"MIFS@f+1","site":99}}}"#,
                "\n",
            )
        );
    }

    #[test]
    fn chrome_of_the_sample_is_pinned() {
        assert_eq!(
            sample().to_chrome(7),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"phase:measure","ph":"i","ts":10,"pid":7,"tid":0,"s":"t"},"#,
                r#"{"name":"os_alloc","ph":"B","ts":10,"pid":7,"tid":0},"#,
                r#"{"name":"watchpoint","ph":"i","ts":10,"pid":7,"tid":0,"s":"t","args":{"pc":99,"hits":3}},"#,
                r#"{"name":"os_alloc","ph":"E","ts":10,"pid":7,"tid":0,"args":{"ok":true,"cost":120}},"#,
                r#"{"name":"inject_apply","ph":"i","ts":40,"pid":7,"tid":0,"s":"t","args":{"fault_id":"MIFS@f+1","site":99}}"#,
                r#"],"displayTimeUnit":"ms","otherData":{"dropped":0}}"#,
            )
        );
    }

    /// One event of every kind.
    fn every_kind() -> Trace {
        let t = Tracer::enabled(32);
        t.set_now(SimTime::from_micros(5));
        for kind in [
            EventKind::Watchpoint { pc: 1, hits: 2 },
            EventKind::ApiEnter { api: "os_read" },
            EventKind::ApiExit {
                api: "os_read",
                ok: false,
                cost: 3,
            },
            EventKind::DeviceIo { cost: 4 },
            EventKind::Reboot { count: 5 },
            EventKind::RequestStart { seq: 6 },
            EventKind::RequestDone {
                seq: 7,
                ok: true,
                cost: 8,
            },
            EventKind::RequestFailed {
                seq: 9,
                phase: "worker",
                failure: "hang",
            },
            EventKind::Watchdog {
                action: "restart",
                class: "crash",
                ok: true,
            },
            EventKind::Kill { reason: "storm" },
            EventKind::Phase { name: "warmup" },
            EventKind::InjectApply {
                fault_id: "MFC@g+2".to_string(),
                site: 10,
            },
            EventKind::InjectUndo {
                fault_id: "MFC@g+2".to_string(),
            },
            EventKind::SlotTimeout {
                slot: 12,
                budget_ms: 13,
            },
        ] {
            t.emit(kind);
        }
        t.snapshot()
    }

    #[test]
    fn every_kind_exports_as_pinned() {
        let events = [
            r#"{"name":"watchpoint","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"pc":1,"hits":2}}"#,
            r#"{"name":"os_read","ph":"B","ts":5,"pid":3,"tid":0}"#,
            r#"{"name":"os_read","ph":"E","ts":5,"pid":3,"tid":0,"args":{"ok":false,"cost":3}}"#,
            r#"{"name":"device_io","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"cost":4}}"#,
            r#"{"name":"reboot","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"count":5}}"#,
            r#"{"name":"request_start","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"seq":6}}"#,
            r#"{"name":"request_done","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"seq":7,"ok":true,"cost":8}}"#,
            r#"{"name":"request_failed:hang","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"seq":9,"phase":"worker"}}"#,
            r#"{"name":"watchdog:restart","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"class":"crash","ok":true}}"#,
            r#"{"name":"kill","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"reason":"storm"}}"#,
            r#"{"name":"phase:warmup","ph":"i","ts":5,"pid":3,"tid":0,"s":"t"}"#,
            r#"{"name":"inject_apply","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"fault_id":"MFC@g+2","site":10}}"#,
            r#"{"name":"inject_undo","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"fault_id":"MFC@g+2"}}"#,
            r#"{"name":"slot_timeout","ph":"i","ts":5,"pid":3,"tid":0,"s":"t","args":{"slot":12,"budget_ms":13}}"#,
        ];
        assert_eq!(
            every_kind().to_chrome(3),
            format!(
                r#"{{"traceEvents":[{}],"displayTimeUnit":"ms","otherData":{{"dropped":0}}}}"#,
                events.join(",")
            )
        );
        let lines = [
            r#"{"seq":0,"at":5,"kind":{"Watchpoint":{"pc":1,"hits":2}}}"#,
            r#"{"seq":1,"at":5,"kind":{"ApiEnter":{"api":"os_read"}}}"#,
            r#"{"seq":2,"at":5,"kind":{"ApiExit":{"api":"os_read","ok":false,"cost":3}}}"#,
            r#"{"seq":3,"at":5,"kind":{"DeviceIo":{"cost":4}}}"#,
            r#"{"seq":4,"at":5,"kind":{"Reboot":{"count":5}}}"#,
            r#"{"seq":5,"at":5,"kind":{"RequestStart":{"seq":6}}}"#,
            r#"{"seq":6,"at":5,"kind":{"RequestDone":{"seq":7,"ok":true,"cost":8}}}"#,
            r#"{"seq":7,"at":5,"kind":{"RequestFailed":{"seq":9,"phase":"worker","failure":"hang"}}}"#,
            r#"{"seq":8,"at":5,"kind":{"Watchdog":{"action":"restart","class":"crash","ok":true}}}"#,
            r#"{"seq":9,"at":5,"kind":{"Kill":{"reason":"storm"}}}"#,
            r#"{"seq":10,"at":5,"kind":{"Phase":{"name":"warmup"}}}"#,
            r#"{"seq":11,"at":5,"kind":{"InjectApply":{"fault_id":"MFC@g+2","site":10}}}"#,
            r#"{"seq":12,"at":5,"kind":{"InjectUndo":{"fault_id":"MFC@g+2"}}}"#,
            r#"{"seq":13,"at":5,"kind":{"SlotTimeout":{"slot":12,"budget_ms":13}}}"#,
        ];
        assert_eq!(
            every_kind().to_jsonl(),
            lines.map(|l| format!("{l}\n")).concat()
        );
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
