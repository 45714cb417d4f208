//! The event taxonomy: everything the flight recorder knows how to record.

use serde::Serialize;
use simkit::SimTime;

/// One recorded event: a payload stamped with virtual time and a sequence
/// number.
///
/// `seq` is assigned by the recorder in emit order and survives ring
/// wraparound (the first retained event of a saturated ring has
/// `seq == dropped`), so consumers can tell exactly how much history was
/// lost. `at` is the simulation clock as of the emit — deterministic by
/// construction, since only the event loop advances it.
///
/// Serializes with `Serialize` only: events carry `&'static str` labels so
/// that emitting never allocates on the hot path.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Emit-order sequence number, 0-based, monotonic across the whole slot.
    pub seq: u64,
    /// Virtual time of the emit (microseconds since slot interval start).
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// The typed event vocabulary.
///
/// Labels are `&'static str` (API symbols, phase names, action names) so
/// emitting an event costs a ring-buffer write and no heap traffic; only the
/// two injection events carry an owned fault id, and those fire twice per
/// slot.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum EventKind {
    /// The armed mutation-site watchpoint executed `hits` more times since
    /// the previous observation (observed at OS-call granularity).
    Watchpoint {
        /// Code address being watched (the fault's key instruction).
        pc: u32,
        /// New executions of that address since the last `Watchpoint` event.
        hits: u64,
    },
    /// An OS API call entered.
    ApiEnter {
        /// The API symbol, e.g. `"os_alloc"`.
        api: &'static str,
    },
    /// An OS API call returned.
    ApiExit {
        /// The API symbol, matching the preceding `ApiEnter`.
        api: &'static str,
        /// `false` when the call trapped (crash/hang inside the FIT).
        ok: bool,
        /// Simulated cost (instructions + device time) charged to the call.
        cost: u64,
    },
    /// A device performed work on behalf of the last API call.
    DeviceIo {
        /// Simulated device cost in instruction-equivalents.
        cost: u64,
    },
    /// The OS was rebooted (recovery escalation).
    Reboot {
        /// Cumulative reboot count for this OS instance.
        count: u64,
    },
    /// The server started handling a request.
    RequestStart {
        /// Per-slot request sequence number.
        seq: u64,
    },
    /// The server finished a request without an uncontained failure.
    RequestDone {
        /// Per-slot request sequence number.
        seq: u64,
        /// `true` when the reply was well-formed (client-visible success).
        ok: bool,
        /// Simulated cost of serving the request.
        cost: u64,
    },
    /// The server failed uncontained while handling a request.
    RequestFailed {
        /// Per-slot request sequence number.
        seq: u64,
        /// Which server phase failed: `"master"` or `"worker"`.
        phase: &'static str,
        /// Failure class: `"crash"` or `"hang"`.
        failure: &'static str,
    },
    /// The watchdog executed a recovery action against a failed server.
    Watchdog {
        /// Action name: `"restart"`, `"reboot+restart"` or `"failover"`.
        action: &'static str,
        /// Failure class being repaired: `"crash"` or `"hang"`.
        class: &'static str,
        /// Whether the action brought a server back up.
        ok: bool,
    },
    /// The watchdog killed the slot (e.g. a KCP restart storm).
    Kill {
        /// Why the slot was killed.
        reason: &'static str,
    },
    /// A campaign phase boundary.
    Phase {
        /// Phase name: `"warmup"` or `"measure"`.
        name: &'static str,
    },
    /// A fault's patches were written into the OS image.
    InjectApply {
        /// The fault's stable identifier, e.g. `"MIFS@rtl_alloc_heap+17"`.
        fault_id: String,
        /// Address of the fault's key instruction (the watchpoint PC).
        site: u32,
    },
    /// The fault's original words were restored.
    InjectUndo {
        /// The fault's stable identifier.
        fault_id: String,
    },
    /// The executor's watchdog killed a slot that exceeded its wall-clock
    /// budget; the slot is quarantined as `SlotError::TimedOut`.
    SlotTimeout {
        /// The slot that hung.
        slot: u64,
        /// The wall-clock budget it exceeded, in milliseconds.
        budget_ms: u64,
    },
}

impl EventKind {
    /// A short stable name for the event, used as the Chrome trace event
    /// name for instant events and in human-readable dumps.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Watchpoint { .. } => "watchpoint",
            EventKind::ApiEnter { .. } => "api_enter",
            EventKind::ApiExit { .. } => "api_exit",
            EventKind::DeviceIo { .. } => "device_io",
            EventKind::Reboot { .. } => "reboot",
            EventKind::RequestStart { .. } => "request_start",
            EventKind::RequestDone { .. } => "request_done",
            EventKind::RequestFailed { .. } => "request_failed",
            EventKind::Watchdog { .. } => "watchdog",
            EventKind::Kill { .. } => "kill",
            EventKind::Phase { .. } => "phase",
            EventKind::InjectApply { .. } => "inject_apply",
            EventKind::InjectUndo { .. } => "inject_undo",
            EventKind::SlotTimeout { .. } => "slot_timeout",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_stable_field_order() {
        let e = TraceEvent {
            seq: 3,
            at: SimTime::from_micros(1500),
            kind: EventKind::ApiExit {
                api: "os_alloc",
                ok: true,
                cost: 42,
            },
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            json,
            r#"{"seq":3,"at":1500,"kind":{"ApiExit":{"api":"os_alloc","ok":true,"cost":42}}}"#
        );
    }

    #[test]
    fn every_event_has_a_label() {
        let kinds = [
            EventKind::Watchpoint { pc: 1, hits: 2 },
            EventKind::ApiEnter { api: "x" },
            EventKind::ApiExit {
                api: "x",
                ok: false,
                cost: 0,
            },
            EventKind::DeviceIo { cost: 9 },
            EventKind::Reboot { count: 1 },
            EventKind::RequestStart { seq: 0 },
            EventKind::RequestDone {
                seq: 0,
                ok: true,
                cost: 5,
            },
            EventKind::RequestFailed {
                seq: 0,
                phase: "master",
                failure: "crash",
            },
            EventKind::Watchdog {
                action: "restart",
                class: "crash",
                ok: true,
            },
            EventKind::Kill {
                reason: "restart storm",
            },
            EventKind::Phase { name: "warmup" },
            EventKind::InjectApply {
                fault_id: "f".into(),
                site: 7,
            },
            EventKind::InjectUndo {
                fault_id: "f".into(),
            },
            EventKind::SlotTimeout {
                slot: 3,
                budget_ms: 5000,
            },
        ];
        let mut labels: Vec<&str> = kinds.iter().map(EventKind::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len(), "labels must be distinct");
    }
}
