//! Wall-clock spans recorded from outside the program, around calls into
//! each layer's public functions.
//!
//! Spans stay in memory while the benchmark runs and are written out once,
//! at exit. A span may fold many calls of one kind (every `serve` of one
//! interval, say) into a single record: `calls` counts them and `busy_ns`
//! sums their durations, so a folded span's self time and its parent's are
//! still exact while the file stays small.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifies the campaign slot a span belongs to — the identifier every
/// span of one slot shares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotKey {
    /// Campaign iteration.
    pub iteration: u64,
    /// Slot index in the faultload.
    pub slot: usize,
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `simos.restore`.
    pub name: &'static str,
    /// The slot this span belongs to (`None` for set-up and pass-level work).
    pub slot: Option<SlotKey>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
    /// Summed duration of the folded calls (`end_ns - start_ns` for an
    /// ordinary span).
    pub busy_ns: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`; spans opened inside `f` become its
    /// children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        slot: Option<SlotKey>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            slot,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - start_ns;
        out
    }

    /// Records calls that were timed elsewhere as one folded child of the
    /// currently open span.
    pub fn fold(&mut self, name: &'static str, slot: Option<SlotKey>, calls: &Calls) {
        if calls.count == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            slot,
            parent: self.open.last().copied(),
            start_ns: calls.first_start_ns,
            end_ns: calls.last_end_ns,
            calls: calls.count,
            busy_ns: calls.busy_ns,
        });
    }

    /// All spans, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total busy time of spans named `name`, in nanoseconds.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.busy_ns).sum()
    }

    /// Total folded calls of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    /// Each span's self time: its busy time minus the busy time of its
    /// direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.busy_ns.saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error text when the file cannot be written.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(out, "{{\"id\":{i},\"name\":\"{}\"", s.name);
            if let Some(key) = s.slot {
                let _ = write!(
                    out,
                    ",\"iteration\":{},\"slot\":{}",
                    key.iteration, key.slot
                );
            }
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Calls of one kind timed outside the recorder (inside a callee that only
/// lends us a trait object), folded into one span afterwards.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    /// Number of calls.
    pub count: u64,
    /// Summed duration.
    pub busy_ns: u64,
    /// Start of the first call.
    pub first_start_ns: u64,
    /// End of the last call.
    pub last_end_ns: u64,
}

impl Calls {
    /// Adds one call that ran from `start_ns` to `end_ns`.
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.count == 0 {
            self.first_start_ns = start_ns;
        }
        self.count += 1;
        self.busy_ns += end_ns - start_ns;
        self.last_end_ns = end_ns;
    }
}
