//! Fault-model packs: mutation operators as declarative, loadable data.
//!
//! The paper's 12 operators (Table 1) were born as hard-coded scan routines;
//! this module turns the operator *library* into a content problem. A
//! [`FaultPack`] is a serde-loadable document — each entry names a fault
//! type, a **search pattern** over the decoded instruction stream and a
//! **low-level mutation** (exactly the two components §2.2 demands of an
//! operator), plus applicability constraints and a note template. The
//! interpreter compiles a pack into [`CompiledOperator`]s that run on the
//! same [`FuncView`] analyses the hard-coded operators used, so a pack
//! expressing the classic 12 produces *byte-identical* faultloads (the
//! bundled [`classic`] pack is golden-tested against the faultloads the
//! hard-coded operators produced).
//!
//! Packs are validated eagerly: unknown fields, incompatible
//! pattern/mutation pairings, out-of-range parameters and malformed note
//! templates are all [`PackError`]s at load/compile time, never panics
//! during a scan. The serde impls are derived: `deny_unknown_fields` on
//! every pack type rejects a typo'd key instead of silently ignoring it — a
//! pack that parses scans exactly what it says — and `rename_all` and
//! per-field `default`s spell the grammar below. A pattern or mutation
//! is a bare tag (`"unused-call"`) or a single-key object, whose payload
//! may also be `null` or `{}`; an all-default payload is written back as
//! the bare tag.
//!
//! # Pack grammar (see DESIGN.md §10 for the full reference)
//!
//! ```json
//! {
//!   "name": "odc-classic",
//!   "version": "1.0.0",
//!   "description": "The 12 ODC operators of Table 1",
//!   "operators": [
//!     {
//!       "id": "MIFS",
//!       "fault-type": "MIFS",
//!       "pattern": { "if-construct": { "max-body": 24 } },
//!       "mutation": { "nop": { "region": "match" } },
//!       "note": "remove if-construct: cond+branch+body ({n} instrs)"
//!     }
//!   ]
//! }
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mvm::{Instr, Opcode, Patch, Reg};
use serde::{Deserialize, Serialize};

use crate::funcview::FuncView;
use crate::operators::{self, Mutation, MAX_IF_BODY, MLPC_MIN_RUN, MLPC_WINDOW};
use crate::taxonomy::FaultType;

/// The bundled `odc-classic` pack: the 12 operators of Table 1 as data.
pub const ODC_CLASSIC_JSON: &str = include_str!("../../../packs/odc-classic.json");

/// Why a pack could not be loaded or compiled.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PackError {
    /// The pack file could not be read.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        message: String,
    },
    /// The pack document does not parse (bad JSON, unknown field or
    /// variant, wrong type).
    Parse(String),
    /// The pack parsed but an operator's content is invalid.
    Validation {
        /// Name of the offending pack.
        pack: String,
        /// Id of the offending operator (empty for pack-level problems).
        operator: String,
        /// What is wrong.
        message: String,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io { path, message } => {
                write!(f, "cannot read pack {}: {message}", path.display())
            }
            PackError::Parse(m) => write!(f, "pack does not parse: {m}"),
            PackError::Validation {
                pack,
                operator,
                message,
            } => {
                if operator.is_empty() {
                    write!(f, "pack `{pack}`: {message}")
                } else {
                    write!(f, "pack `{pack}`, operator `{operator}`: {message}")
                }
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Which part of a function a [`Pattern::LiteralAssignment`] may match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum AssignRegion {
    /// Only the declaration region (prologue to first control flow) — MVI.
    Decl,
    /// Only past the declaration region — MVAV.
    Body,
    /// The whole function — WVAV.
    Anywhere,
}

/// Which instructions a [`MutationSpec::Nop`] overwrites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum NopRegion {
    /// The whole matched region.
    Match,
    /// Only the guard part of an `if`-construct (condition evaluation and
    /// branch) — the MIA shape. Requires [`Pattern::IfConstruct`].
    Guard,
}

/// A search pattern over one function's decoded instruction stream.
///
/// Each variant parameterizes one of the scanner's code-shape analyses; the
/// classic operators are specific instantiations (e.g. MIFS is
/// `if-construct` with the default body bound). In pack files a pattern is
/// either a bare string (`"comparison-branch"`) or a single-key object
/// carrying parameters (`{"if-construct": {"max-body": 24}}`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    rename_all = "kebab-case",
    rename_all_fields = "kebab-case",
    deny_unknown_fields
)]
#[non_exhaustive]
pub enum Pattern {
    /// An `if (cond) { body }` without `else` (&& chains folded into one
    /// site).
    IfConstruct {
        /// Largest body (instructions) still considered "small and
        /// localized" (`max-body`, default 24).
        #[serde(default = "default_max_body")]
        max_body: usize,
    },
    /// A trailing `&& EXPR` clause in a chain of branches to one target.
    AndChainClause,
    /// A `call` whose return value is unused.
    UnusedCall {
        /// When set (`tail-window`), only calls within the last so-many
        /// instructions of the function match — the "forgot the cleanup
        /// before returning" shape.
        #[serde(skip_serializing_if = "is_default")]
        tail_window: Option<usize>,
    },
    /// A `ldi; st` literal-assignment pair.
    LiteralAssignment {
        /// Which part of the function may match (`region`, required).
        region: AssignRegion,
    },
    /// A store fed by a contiguous multi-instruction expression slice.
    ExpressionAssignment {
        /// Minimum expression-slice length in instructions, excluding the
        /// store (`min-expr`, default 2) — below this it is a bare
        /// literal/copy, not an expression.
        #[serde(default = "two")]
        min_expr: usize,
    },
    /// A window in the middle of a long straight-line run.
    StraightRun {
        /// Window length in instructions to mutate (`window`, default 3).
        #[serde(default = "default_window")]
        window: usize,
        /// Minimum run length hosting a window (`min-run`, default 6).
        #[serde(default = "default_min_run")]
        min_run: usize,
    },
    /// A conditional branch fed directly by an explicit comparison.
    ComparisonBranch,
    /// An arithmetic instruction computing a call argument.
    ArgArithmetic,
    /// A frame-slot load feeding a call argument.
    ArgFrameLoad {
        /// Minimum frame size in slots (`min-frame`, default 2) — with
        /// fewer slots there is no wrong variable to confuse the right one
        /// with.
        #[serde(default = "two")]
        min_frame: u32,
    },
}

/// A low-level mutation applied at a pattern match.
///
/// In pack files: a bare string for parameterless mutations
/// (`"flip-comparison"`) or a single-key object
/// (`{"nop": {"region": "match"}}`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(
    rename_all = "kebab-case",
    rename_all_fields = "kebab-case",
    deny_unknown_fields
)]
#[non_exhaustive]
pub enum MutationSpec {
    /// Overwrite a region with `nop`s (the *missing construct* natures).
    Nop {
        /// Which part of the match to erase (`region`, required).
        region: NopRegion,
    },
    /// Add `delta` (default 1, must be non-zero) to the immediate of the
    /// matched `ldi`.
    PerturbImmediate {
        /// Signed offset applied to the literal.
        #[serde(default = "default_delta")]
        delta: i32,
    },
    /// Flip the comparison feeding the matched branch (`==`↔`!=`,
    /// `<`↔`<=`).
    FlipComparison,
    /// Swap the matched arithmetic operation for a near-miss one.
    SwapArithmetic,
    /// Redirect the matched frame-slot load to a different slot.
    RedirectFrameSlot,
}

/// Applicability constraints narrowing where an operator fires.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct Constraints {
    /// When set, only these functions are scanned by this operator.
    #[serde(skip_serializing_if = "is_default")]
    pub functions: Option<Vec<String>>,
    /// Merge every match in a function into a single multi-patch fault —
    /// the "the same mistake everywhere" chain shape. Only meaningful with
    /// [`MutationSpec::Nop`].
    #[serde(skip_serializing_if = "is_default")]
    pub chain: bool,
    /// Keep at most this many matches per function, in scan order
    /// (`max-per-func`).
    #[serde(skip_serializing_if = "is_default")]
    pub max_per_func: Option<usize>,
    /// Skip functions shorter than this many instructions
    /// (`min-func-len`).
    #[serde(skip_serializing_if = "is_default")]
    pub min_func_len: usize,
}

/// One operator definition inside a pack.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", deny_unknown_fields)]
pub struct PackOperator {
    /// Stable operator id — the fault-id prefix (`<id>@func+off`). Must be
    /// non-empty `[A-Za-z0-9_-]+`.
    pub id: String,
    /// The emulated fault type (`fault-type`; accepts the paper acronyms in
    /// any case, e.g. `"MIFS"` or `"Mifs"`).
    pub fault_type: FaultType,
    /// What the operator emulates, for `operators show`.
    #[serde(skip_serializing_if = "is_default")]
    pub description: String,
    /// The search pattern.
    pub pattern: Pattern,
    /// The low-level mutation.
    pub mutation: MutationSpec,
    /// Applicability constraints.
    #[serde(skip_serializing_if = "is_default")]
    pub constraints: Constraints,
    /// Note template for generated faults. Placeholders in `{…}`: `{n}`
    /// (patched instruction count) always; `{target}` for `unused-call`;
    /// `{imm}`/`{new_imm}` for `perturb-immediate`; `{old_op}`/`{new_op}`
    /// for `flip-comparison`/`swap-arithmetic`; `{old_slot}`/`{new_slot}`
    /// for `redirect-frame-slot`.
    pub note: String,
}

/// A loadable fault-model pack: named, versioned operator content.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPack {
    /// Pack name (used in provenance stamps and journal identities).
    pub name: String,
    /// Content version, bumped by pack authors on any change.
    pub version: String,
    /// What the pack models.
    #[serde(skip_serializing_if = "is_default")]
    pub description: String,
    /// The operator definitions, in scan order.
    pub operators: Vec<PackOperator>,
}

/// Provenance of one pack: what a faultload / campaign config records
/// about the operator content that produced it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackRef {
    /// Pack name.
    pub name: String,
    /// Pack version string.
    pub version: String,
    /// [`FaultPack::content_hash`] of the pack document.
    pub content_hash: u64,
}

impl fmt::Display for PackRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}#{:016x}",
            self.name, self.version, self.content_hash
        )
    }
}

/// Stable hash of a set of pack provenance stamps, in order. Used by the
/// faultstore's journal staleness check: two operator sets agree exactly
/// when every pack's name, version *and content* agree.
pub fn pack_set_hash(packs: &[PackRef]) -> u64 {
    let strs: Vec<String> = packs.iter().map(|p| p.to_string()).collect();
    simkit::hash::fnv1a_strs(&strs)
}

// The field defaults and skip predicate the pack types' `#[serde]`
// attributes name.

/// `skip_serializing_if` predicate: the value is its type's default.
fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

fn default_max_body() -> usize {
    MAX_IF_BODY
}

fn default_window() -> usize {
    MLPC_WINDOW
}

fn default_min_run() -> usize {
    MLPC_MIN_RUN
}

/// `min-expr` and `min-frame`: the smallest meaningful value.
fn two<T: From<u8>>() -> T {
    T::from(2)
}

fn default_delta() -> i32 {
    1
}

impl FaultPack {
    /// Parses a pack from JSON. Unknown fields and variants are rejected —
    /// a typo'd key silently ignored would change what the pack scans.
    ///
    /// # Errors
    ///
    /// [`PackError::Parse`] for malformed documents; [`PackError::Validation`]
    /// when the parsed content is invalid (see [`FaultPack::validate`]).
    pub fn from_json(json: &str) -> Result<FaultPack, PackError> {
        let pack: FaultPack =
            serde_json::from_str(json).map_err(|e| PackError::Parse(e.to_string()))?;
        pack.validate()?;
        Ok(pack)
    }

    /// Loads and validates a pack file.
    ///
    /// # Errors
    ///
    /// [`PackError::Io`] when the file cannot be read, otherwise as
    /// [`FaultPack::from_json`].
    pub fn load(path: impl AsRef<Path>) -> Result<FaultPack, PackError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| PackError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        FaultPack::from_json(&json).map_err(|e| match e {
            PackError::Parse(m) => PackError::Parse(format!("{}: {m}", path.display())),
            other => other,
        })
    }

    /// Serializes the pack back to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (practically impossible).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Content hash of the pack: FNV-1a over the canonical (compact JSON)
    /// serialization. Any change to any operator — a parameter, a note, the
    /// order — changes the hash, which is what journal staleness checks
    /// key on.
    pub fn content_hash(&self) -> u64 {
        let json = serde_json::to_string(self).expect("FaultPack serializes (plain data)");
        simkit::hash::fnv1a(json.as_bytes())
    }

    /// The provenance stamp for this pack.
    pub fn pack_ref(&self) -> PackRef {
        PackRef {
            name: self.name.clone(),
            version: self.version.clone(),
            content_hash: self.content_hash(),
        }
    }

    /// Validates pack-level and per-operator content (ids, parameter
    /// ranges, pattern/mutation compatibility, note placeholders).
    ///
    /// # Errors
    ///
    /// [`PackError::Validation`] naming the pack, operator and problem.
    pub fn validate(&self) -> Result<(), PackError> {
        let fail = |operator: &str, message: String| {
            Err(PackError::Validation {
                pack: self.name.clone(),
                operator: operator.to_string(),
                message,
            })
        };
        if self.name.is_empty() {
            return fail("", "pack name must not be empty".into());
        }
        if self.version.is_empty() {
            return fail("", "pack version must not be empty".into());
        }
        if self.operators.is_empty() {
            return fail("", "pack defines no operators".into());
        }
        let mut seen: Vec<&str> = Vec::new();
        for op in &self.operators {
            let id_ok = !op.id.is_empty()
                && op
                    .id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'));
            if !id_ok {
                return fail(
                    &op.id,
                    format!("operator id {:?} must be non-empty [A-Za-z0-9_-]+", op.id),
                );
            }
            if seen.contains(&op.id.as_str()) {
                return fail(&op.id, "duplicate operator id".into());
            }
            seen.push(&op.id);
            validate_operator(op).map_err(|message| PackError::Validation {
                pack: self.name.clone(),
                operator: op.id.clone(),
                message,
            })?;
        }
        Ok(())
    }

    /// Compiles the pack into runnable operators (validating first).
    ///
    /// # Errors
    ///
    /// As [`FaultPack::validate`].
    pub fn compile(&self) -> Result<Vec<CompiledOperator>, PackError> {
        self.validate()?;
        Ok(self
            .operators
            .iter()
            .map(|op| CompiledOperator { def: op.clone() })
            .collect())
    }
}

/// Per-operator content validation; returns a message on failure.
fn validate_operator(op: &PackOperator) -> Result<(), String> {
    match &op.pattern {
        Pattern::IfConstruct { max_body } => {
            if *max_body == 0 {
                return Err("if-construct max-body must be at least 1".into());
            }
        }
        Pattern::UnusedCall { tail_window } => {
            if tail_window == &Some(0) {
                return Err("unused-call tail-window must be at least 1".into());
            }
        }
        Pattern::ExpressionAssignment { min_expr } => {
            if *min_expr < 2 {
                return Err(
                    "expression-assignment min-expr must be at least 2 (below that it is a \
                     literal-assignment)"
                        .into(),
                );
            }
        }
        Pattern::StraightRun { window, min_run } => {
            if *window == 0 {
                return Err("straight-run window must be at least 1".into());
            }
            if min_run < window {
                return Err(format!(
                    "straight-run min-run ({min_run}) must be at least the window ({window})"
                ));
            }
        }
        Pattern::ArgFrameLoad { min_frame } => {
            if *min_frame < 2 {
                return Err(
                    "arg-frame-load min-frame must be at least 2 (one slot leaves nothing to \
                     confuse)"
                        .into(),
                );
            }
        }
        Pattern::AndChainClause
        | Pattern::LiteralAssignment { .. }
        | Pattern::ComparisonBranch
        | Pattern::ArgArithmetic => {}
    }
    let compatible = match &op.mutation {
        MutationSpec::Nop {
            region: NopRegion::Match,
        } => true,
        MutationSpec::Nop {
            region: NopRegion::Guard,
        } => matches!(op.pattern, Pattern::IfConstruct { .. }),
        MutationSpec::PerturbImmediate { delta } => {
            if *delta == 0 {
                return Err(
                    "perturb-immediate delta must not be 0 (a no-op is not a fault)".into(),
                );
            }
            matches!(op.pattern, Pattern::LiteralAssignment { .. })
        }
        MutationSpec::FlipComparison => matches!(op.pattern, Pattern::ComparisonBranch),
        MutationSpec::SwapArithmetic => matches!(op.pattern, Pattern::ArgArithmetic),
        MutationSpec::RedirectFrameSlot => matches!(op.pattern, Pattern::ArgFrameLoad { .. }),
    };
    if !compatible {
        return Err(format!(
            "mutation {} cannot apply to pattern {}",
            mutation_name(&op.mutation),
            pattern_name(&op.pattern)
        ));
    }
    if op.constraints.chain
        && !matches!(
            op.mutation,
            MutationSpec::Nop {
                region: NopRegion::Match
            }
        )
    {
        return Err("chain constraint requires the nop/match mutation".into());
    }
    for key in template_keys(&op.note) {
        let key = key?;
        let allowed = key == "n"
            || match (&op.pattern, &op.mutation) {
                _ if op.constraints.chain => false, // chained notes: only {n}
                (Pattern::UnusedCall { .. }, _) if key == "target" => true,
                (_, MutationSpec::PerturbImmediate { .. }) => key == "imm" || key == "new_imm",
                (_, MutationSpec::FlipComparison) | (_, MutationSpec::SwapArithmetic) => {
                    key == "old_op" || key == "new_op"
                }
                (_, MutationSpec::RedirectFrameSlot) => key == "old_slot" || key == "new_slot",
                _ => false,
            };
        if !allowed {
            return Err(format!(
                "note template references unknown placeholder {{{key}}}"
            ));
        }
    }
    Ok(())
}

fn pattern_name(p: &Pattern) -> &'static str {
    match p {
        Pattern::IfConstruct { .. } => "if-construct",
        Pattern::AndChainClause => "and-chain-clause",
        Pattern::UnusedCall { .. } => "unused-call",
        Pattern::LiteralAssignment { .. } => "literal-assignment",
        Pattern::ExpressionAssignment { .. } => "expression-assignment",
        Pattern::StraightRun { .. } => "straight-run",
        Pattern::ComparisonBranch => "comparison-branch",
        Pattern::ArgArithmetic => "arg-arithmetic",
        Pattern::ArgFrameLoad { .. } => "arg-frame-load",
    }
}

fn mutation_name(m: &MutationSpec) -> &'static str {
    match m {
        MutationSpec::Nop {
            region: NopRegion::Match,
        } => "nop/match",
        MutationSpec::Nop {
            region: NopRegion::Guard,
        } => "nop/guard",
        MutationSpec::PerturbImmediate { .. } => "perturb-immediate",
        MutationSpec::FlipComparison => "flip-comparison",
        MutationSpec::SwapArithmetic => "swap-arithmetic",
        MutationSpec::RedirectFrameSlot => "redirect-frame-slot",
    }
}

/// Iterates `{key}` placeholders of a template; yields an error for an
/// unterminated brace.
fn template_keys(template: &str) -> impl Iterator<Item = Result<&str, String>> {
    let mut rest = template;
    std::iter::from_fn(move || {
        let open = rest.find('{')?;
        let after = &rest[open + 1..];
        match after.find('}') {
            Some(close) => {
                let key = &after[..close];
                rest = &after[close + 1..];
                Some(Ok(key))
            }
            None => {
                rest = "";
                Some(Err("note template has an unterminated '{'".to_string()))
            }
        }
    })
}

/// Renders a note template by substituting `{key}` placeholders.
fn render_note(template: &str, subs: &[(&'static str, String)]) -> String {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(open) = rest.find('{') {
        out.push_str(&rest[..open]);
        let after = &rest[open + 1..];
        match after.find('}') {
            Some(close) => {
                let key = &after[..close];
                match subs.iter().find(|(k, _)| *k == key) {
                    Some((_, v)) => out.push_str(v),
                    None => {
                        // Validated keys always have a value; keep unknown
                        // text verbatim as a safety net.
                        out.push('{');
                        out.push_str(key);
                        out.push('}');
                    }
                }
                rest = &after[close + 1..];
            }
            None => {
                out.push_str(&rest[open..]);
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out
}

// --------------------------------------------------------------------------
// the interpreter
// --------------------------------------------------------------------------

/// One pattern match inside a function, in the interpreter's intermediate
/// form: the key-instruction site, the matched region, the guard split (for
/// `if`-constructs) and any note substitutions the pattern contributes.
struct PatMatch {
    /// Relative index of the key instruction.
    site: usize,
    /// Matched region `[start, end)`, relative.
    region: (usize, usize),
    /// One past the guard (condition + branch) for `if`-construct matches.
    guard_end: Option<usize>,
    /// Note substitutions contributed by the pattern.
    subs: Vec<(&'static str, String)>,
}

fn find_matches(pattern: &Pattern, func: &FuncView) -> Vec<PatMatch> {
    match pattern {
        Pattern::IfConstruct { max_body } => operators::if_sites(func, *max_body)
            .into_iter()
            .map(|s| PatMatch {
                site: s.branch,
                region: (s.cond_start, s.end),
                guard_end: Some(s.branch + 1),
                subs: Vec::new(),
            })
            .collect(),
        Pattern::AndChainClause => operators::and_chain_clauses(func)
            .into_iter()
            .map(|(b1, b2)| PatMatch {
                site: b2,
                region: (b1 + 1, b2 + 1),
                guard_end: None,
                subs: Vec::new(),
            })
            .collect(),
        Pattern::UnusedCall { tail_window } => func
            .instrs
            .iter()
            .enumerate()
            .filter(|(i, instr)| {
                instr.op == Opcode::Call
                    && tail_window.is_none_or(|w| *i >= func.len().saturating_sub(w))
                    && operators::call_result_unused(func, *i)
            })
            .map(|(i, instr)| PatMatch {
                site: i,
                region: (i, i + 1),
                guard_end: None,
                subs: vec![("target", instr.target().unwrap_or(0).to_string())],
            })
            .collect(),
        Pattern::LiteralAssignment { region } => {
            let decl_start = func.after_prologue();
            let decl_end = operators::decl_region_end(func);
            operators::literal_assignments(func)
                .into_iter()
                .filter(|&(i, j)| match region {
                    AssignRegion::Decl => i >= decl_start && j < decl_end,
                    AssignRegion::Body => i >= decl_end,
                    AssignRegion::Anywhere => true,
                })
                .map(|(i, j)| PatMatch {
                    site: i,
                    region: (i, j + 1),
                    guard_end: None,
                    subs: Vec::new(),
                })
                .collect()
        }
        Pattern::ExpressionAssignment { min_expr } => {
            let mut out = Vec::new();
            for (j, instr) in func.instrs.iter().enumerate() {
                let is_var_store = instr.op == Opcode::St
                    && operators::is_temp(instr.rs2)
                    && (instr.rs1 == Reg::FP || instr.rs1 == Reg::ZERO);
                if !is_var_store {
                    continue;
                }
                let Some(s) = func.eval_slice(instr.rs2, j) else {
                    continue;
                };
                if j - s < *min_expr || !func.is_straight_line(s, j + 1) {
                    continue;
                }
                out.push(PatMatch {
                    site: j,
                    region: (s, j + 1),
                    guard_end: None,
                    subs: Vec::new(),
                });
            }
            out
        }
        Pattern::StraightRun { window, min_run } => {
            operators::straight_runs(func, *window, *min_run)
                .into_iter()
                .map(|w| PatMatch {
                    site: w,
                    region: (w, w + window),
                    guard_end: None,
                    subs: Vec::new(),
                })
                .collect()
        }
        Pattern::ComparisonBranch => {
            let mut out = Vec::new();
            for (i, instr) in func.instrs.iter().enumerate() {
                if !matches!(instr.op, Opcode::Beqz | Opcode::Bnez) || i == 0 {
                    continue;
                }
                let prev = func.instrs[i - 1];
                if prev.writes() != Some(instr.rs1) {
                    continue;
                }
                out.push(PatMatch {
                    site: i - 1,
                    region: (i - 1, i),
                    guard_end: None,
                    subs: Vec::new(),
                });
            }
            out
        }
        Pattern::ArgArithmetic => arg_feeding_defs(func, |_| true),
        Pattern::ArgFrameLoad { min_frame } => {
            let Some(frame) = func.frame_size().filter(|&n| n >= *min_frame) else {
                return Vec::new();
            };
            arg_feeding_defs(func, |def| {
                def.op == Opcode::Ld
                    && def.rs1 == Reg::FP
                    && def.imm < 0
                    && (-def.imm) as u32 <= frame
            })
        }
    }
}

/// The shared WAEP/WPFV walk: for every call, for every argument-marshalling
/// move, the defining instruction of the moved value — filtered by `keep`.
fn arg_feeding_defs(func: &FuncView, keep: impl Fn(&Instr) -> bool) -> Vec<PatMatch> {
    let mut out = Vec::new();
    for (c, instr) in func.instrs.iter().enumerate() {
        if instr.op != Opcode::Call {
            continue;
        }
        let (first_marshal, moves) = operators::arg_marshal(func, c);
        for (_, _, src) in moves {
            let Some(d) = operators::def_of(func, src, first_marshal) else {
                continue;
            };
            if !keep(&func.instrs[d]) {
                continue;
            }
            out.push(PatMatch {
                site: d,
                region: (d, d + 1),
                guard_end: None,
                subs: Vec::new(),
            });
        }
    }
    out
}

/// Note-template substitutions accumulated while applying a mutation.
type NoteSubs = Vec<(&'static str, String)>;

/// The patches of one applied mutation plus the substitutions it supplies.
type AppliedMutation = (Vec<Patch>, NoteSubs);

/// Applies a mutation spec to one match; `None` when the matched
/// instruction's shape is outside the spec's table (e.g. an arithmetic op
/// with no near-miss swap) — the match is then simply skipped, mirroring
/// the conservative hard-coded operators.
fn apply_mutation(spec: &MutationSpec, func: &FuncView, m: &PatMatch) -> Option<AppliedMutation> {
    match spec {
        MutationSpec::Nop { region } => {
            let (start, end) = match region {
                NopRegion::Match => m.region,
                NopRegion::Guard => (m.region.0, m.guard_end?),
            };
            Some((operators::nop_range(func, start, end), Vec::new()))
        }
        MutationSpec::PerturbImmediate { delta } => {
            let ldi = func.instrs[m.site];
            if ldi.op != Opcode::Ldi {
                return None;
            }
            let new_imm = ldi.imm.wrapping_add(*delta);
            let wrong = Instr::ldi(ldi.rd, new_imm);
            Some((
                vec![Patch {
                    addr: func.abs(m.site),
                    new_word: wrong.encode(),
                }],
                vec![
                    ("imm", ldi.imm.to_string()),
                    ("new_imm", new_imm.to_string()),
                ],
            ))
        }
        MutationSpec::FlipComparison => {
            let prev = func.instrs[m.site];
            let flipped = match prev.op {
                Opcode::Cmpeq => Opcode::Cmpne,
                Opcode::Cmpne => Opcode::Cmpeq,
                Opcode::Cmplt => Opcode::Cmple,
                Opcode::Cmple => Opcode::Cmplt,
                _ => return None,
            };
            let wrong = Instr::alu3(flipped, prev.rd, prev.rs1, prev.rs2);
            Some((
                vec![Patch {
                    addr: func.abs(m.site),
                    new_word: wrong.encode(),
                }],
                vec![
                    ("old_op", prev.op.mnemonic().to_string()),
                    ("new_op", flipped.mnemonic().to_string()),
                ],
            ))
        }
        MutationSpec::SwapArithmetic => {
            let def = func.instrs[m.site];
            let wrong = match def.op {
                Opcode::Add => Instr::alu3(Opcode::Sub, def.rd, def.rs1, def.rs2),
                Opcode::Sub => Instr::alu3(Opcode::Add, def.rd, def.rs1, def.rs2),
                Opcode::Mul => Instr::alu3(Opcode::Add, def.rd, def.rs1, def.rs2),
                Opcode::Div => Instr::alu3(Opcode::Mul, def.rd, def.rs1, def.rs2),
                Opcode::Mod => Instr::alu3(Opcode::Div, def.rd, def.rs1, def.rs2),
                Opcode::Addi => Instr::addi(def.rd, def.rs1, def.imm.wrapping_add(1)),
                Opcode::Muli => Instr::muli(def.rd, def.rs1, def.imm.wrapping_add(1)),
                _ => return None,
            };
            Some((
                vec![Patch {
                    addr: func.abs(m.site),
                    new_word: wrong.encode(),
                }],
                vec![
                    ("old_op", def.op.mnemonic().to_string()),
                    ("new_op", wrong.op.mnemonic().to_string()),
                ],
            ))
        }
        MutationSpec::RedirectFrameSlot => {
            let def = func.instrs[m.site];
            let frame = func.frame_size()?;
            if def.op != Opcode::Ld || def.rs1 != Reg::FP || def.imm >= 0 {
                return None;
            }
            let k = (-def.imm) as u32;
            if k > frame {
                return None;
            }
            let wrong_k = if k == frame { 1 } else { k + 1 };
            let wrong = Instr::ld(def.rd, Reg::FP, -(wrong_k as i32));
            Some((
                vec![Patch {
                    addr: func.abs(m.site),
                    new_word: wrong.encode(),
                }],
                vec![
                    ("old_slot", k.to_string()),
                    ("new_slot", wrong_k.to_string()),
                ],
            ))
        }
    }
}

/// A pack operator compiled into the scan/mutate machinery: the search
/// pattern and low-level mutation for one fault type (§2.2), interpreting
/// its declarative definition.
#[derive(Clone, Debug)]
pub struct CompiledOperator {
    def: PackOperator,
}

impl CompiledOperator {
    /// The emulated fault type.
    pub fn fault_type(&self) -> FaultType {
        self.def.fault_type
    }

    /// Stable operator id: the prefix of every fault id this operator
    /// generates (`<id>@func+off`).
    pub fn id(&self) -> &str {
        &self.def.id
    }

    /// Scans one function and returns every location where the fault can be
    /// emulated.
    pub fn scan(&self, func: &FuncView) -> Vec<Mutation> {
        let c = &self.def.constraints;
        if func.len() < c.min_func_len {
            return Vec::new();
        }
        if let Some(allowed) = &c.functions {
            if !allowed.contains(&func.name) {
                return Vec::new();
            }
        }
        let mut matches = find_matches(&self.def.pattern, func);
        if let Some(cap) = c.max_per_func {
            matches.truncate(cap);
        }
        let mut applied: Vec<(usize, Vec<Patch>, NoteSubs)> = matches
            .into_iter()
            .filter_map(|m| {
                let (patches, mut subs) = apply_mutation(&self.def.mutation, func, &m)?;
                subs.extend(m.subs);
                subs.push(("n", patches.len().to_string()));
                Some((m.site, patches, subs))
            })
            .collect();
        if c.chain && applied.len() > 1 {
            let site = applied[0].0;
            let patches: Vec<Patch> = applied.drain(..).flat_map(|(_, p, _)| p).collect();
            let subs = vec![("n", patches.len().to_string())];
            applied.push((site, patches, subs));
        }
        applied
            .into_iter()
            .map(|(site, patches, subs)| Mutation {
                site: func.abs(site),
                patches,
                note: render_note(&self.def.note, &subs),
            })
            .collect()
    }
}

// --------------------------------------------------------------------------
// the bundled classic pack
// --------------------------------------------------------------------------

/// The bundled `odc-classic` pack, parsed and validated once.
///
/// # Panics
///
/// Never in a correctly built binary: the embedded document is golden- and
/// unit-tested.
pub fn classic() -> &'static FaultPack {
    static PACK: OnceLock<FaultPack> = OnceLock::new();
    PACK.get_or_init(|| {
        FaultPack::from_json(ODC_CLASSIC_JSON).expect("bundled odc-classic pack is valid")
    })
}

/// One compiled classic operator by id (e.g. `"MIFS"`), for unit tests
/// that exercise a single operator.
#[cfg(test)]
pub(crate) fn classic_op(id: &str) -> CompiledOperator {
    classic()
        .compile()
        .expect("bundled odc-classic compiles")
        .into_iter()
        .find(|op| op.id() == id)
        .unwrap_or_else(|| panic!("odc-classic has operator {id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::compile;

    fn pack_json(ops: &str) -> String {
        format!(r#"{{"name":"t","version":"1","operators":[{ops}]}}"#)
    }

    fn one_op_pack(op: &str) -> Result<FaultPack, PackError> {
        FaultPack::from_json(&pack_json(op))
    }

    /// A one-operator pack whose operator has the given pattern/mutation
    /// entries and fault type.
    fn one_op_json(entries: &str, fault_type: &str) -> String {
        pack_json(&format!(
            r#"{{"id":"X","fault-type":"{fault_type}",{entries},"note":"x"}}"#
        ))
    }

    #[test]
    fn classic_pack_parses_and_has_twelve_operators() {
        let pack = classic();
        assert_eq!(pack.name, "odc-classic");
        assert_eq!(pack.operators.len(), 12);
        let types: std::collections::BTreeSet<FaultType> =
            pack.operators.iter().map(|o| o.fault_type).collect();
        assert_eq!(types.len(), 12, "all 12 fault types covered");
        // Library order is Table 1 order.
        let ids: Vec<&str> = pack.operators.iter().map(|o| o.id.as_str()).collect();
        let expected: Vec<&str> = FaultType::ALL.iter().map(|t| t.acronym()).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn pack_roundtrips_through_json() {
        let pack = classic().clone();
        let json = pack.to_json().unwrap();
        let back = FaultPack::from_json(&json).unwrap();
        assert_eq!(back, pack);
        assert_eq!(back.content_hash(), pack.content_hash());
    }

    #[test]
    fn bundled_pack_content_hashes_are_pinned() {
        // These hashes key journal staleness checks: a serializer change
        // that moves them makes every stored journal stale.
        assert_eq!(classic().content_hash(), 0x736b37ba94cfd090);
        let chain = FaultPack::load(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../packs/chain-cleanup.json"),
        )
        .unwrap();
        assert_eq!(chain.content_hash(), 0x22deff005bd557ea);
    }

    /// Parses `json` as a `T` and re-serializes it compactly.
    fn canonical<T: Serialize + Deserialize>(json: &str) -> Result<String, String> {
        let v: T = serde_json::from_str(json).map_err(|e| e.to_string())?;
        serde_json::to_string(&v).map_err(|e| e.to_string())
    }

    #[test]
    fn accepted_spellings_reserialize_canonically() {
        type Canon = fn(&str) -> Result<String, String>;
        let pattern: Canon = canonical::<Pattern>;
        let mutation: Canon = canonical::<MutationSpec>;
        let fault_type: Canon = canonical::<FaultType>;
        let constraints: Canon = canonical::<Constraints>;
        for (parse, input, expected) in [
            (pattern, r#""and-chain-clause""#, r#""and-chain-clause""#),
            (
                pattern,
                r#"{"and-chain-clause":{}}"#,
                r#""and-chain-clause""#,
            ),
            (
                pattern,
                r#"{"and-chain-clause":null}"#,
                r#""and-chain-clause""#,
            ),
            (pattern, r#""unused-call""#, r#""unused-call""#),
            (pattern, r#"{"unused-call":{}}"#, r#""unused-call""#),
            (pattern, r#"{"unused-call":null}"#, r#""unused-call""#),
            (
                pattern,
                r#"{"unused-call":{"tail-window":3}}"#,
                r#"{"unused-call":{"tail-window":3}}"#,
            ),
            (
                pattern,
                r#""if-construct""#,
                r#"{"if-construct":{"max-body":24}}"#,
            ),
            (
                pattern,
                r#"{"straight-run":null}"#,
                r#"{"straight-run":{"window":3,"min-run":6}}"#,
            ),
            (mutation, r#""flip-comparison""#, r#""flip-comparison""#),
            (
                mutation,
                r#"{"flip-comparison":{}}"#,
                r#""flip-comparison""#,
            ),
            (
                mutation,
                r#"{"flip-comparison":null}"#,
                r#""flip-comparison""#,
            ),
            (
                mutation,
                r#"{"perturb-immediate":{}}"#,
                r#"{"perturb-immediate":{"delta":1}}"#,
            ),
            (fault_type, r#""MIFS""#, r#""Mifs""#),
            (fault_type, r#""Mifs""#, r#""Mifs""#),
            (fault_type, r#""mifs""#, r#""Mifs""#),
            (constraints, r#"{}"#, r#"{}"#),
            (constraints, r#"{"chain":false,"min-func-len":0}"#, r#"{}"#),
        ] {
            assert_eq!(parse(input).as_deref(), Ok(expected), "input {input}");
        }
        // A struct variant with a required field still needs it when spelt
        // as a bare tag or with a null payload.
        for pattern in [r#""literal-assignment""#, r#"{"literal-assignment":null}"#] {
            let err = one_op_pack(&format!(
                r#"{{"id":"X","fault-type":"WVAV","pattern":{pattern},
                    "mutation":{{"perturb-immediate":{{}}}},"note":"x"}}"#
            ))
            .unwrap_err();
            assert!(
                matches!(&err, PackError::Parse(m) if m.contains("missing field `region`")),
                "{pattern}: got {err}"
            );
        }
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        const OP: &str = r#"{"id":"X","fault-type":"MIFS",
            "pattern":{"if-construct":{}},
            "mutation":{"nop":{"region":"match"}},"note":"x"}"#;
        // Top level.
        let err = FaultPack::from_json(&format!(
            r#"{{"name":"t","version":"1","surprise":1,"operators":[{OP}]}}"#
        ))
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Parse(m) if m.contains("surprise")),
            "got {err}"
        );
        // Operator level.
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"MIFS","extra":true,
                "pattern":{"if-construct":{}},
                "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Parse(m) if m.contains("extra")),
            "got {err}"
        );
        // Pattern parameter level.
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"MIFS",
                "pattern":{"if-construct":{"typo":3}},
                "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Parse(m) if m.contains("typo")),
            "got {err}"
        );
        // Constraints level (a typo'd constraint silently ignored would
        // silently widen the operator's reach).
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"MIFS",
                "pattern":{"if-construct":{}},
                "mutation":{"nop":{"region":"match"}},
                "constraints":{"max-par-func":3},"note":"x"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Parse(m) if m.contains("max-par-func")),
            "got {err}"
        );
    }

    #[test]
    fn parse_errors_stay_short_for_huge_or_deep_documents() {
        let nest = |n: usize, inner: &str| format!("{}{inner}{}", "[".repeat(n), "]".repeat(n));
        let long = "x".repeat(100_000);
        for json in [
            // Past the parser's nesting limit.
            pack_json(&nest(20_000, "")),
            // Within it, but a wide array where an operator belongs.
            pack_json(&nest(100, &vec!["\"x\""; 10_000].join(","))),
            // A huge string where a variant tag, a key or a fault type
            // belongs.
            one_op_json(&format!(r#""pattern":"{long}","mutation":"nop""#), "MIFS"),
            one_op_json(
                &format!(r#""pattern":{{"if-construct":{{"{long}":1}}}},"mutation":"nop""#),
                "MIFS",
            ),
            one_op_json(r#""pattern":"unused-call","mutation":"nop""#, &long),
        ] {
            let err = FaultPack::from_json(&json).unwrap_err();
            assert!(matches!(err, PackError::Parse(_)), "{err}");
            assert!(
                err.to_string().len() < 1024,
                "{} bytes",
                err.to_string().len()
            );
        }
    }

    #[test]
    fn unknown_pattern_and_mutation_variants_are_parse_errors() {
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"MIFS",
                "pattern":{"telepathy":{}},
                "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Parse(m) if m.contains("telepathy")),
            "got {err}"
        );
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"MIFS",
                "pattern":{"if-construct":{}},
                "mutation":"transmute","note":"x"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Parse(m) if m.contains("transmute")),
            "got {err}"
        );
    }

    #[test]
    fn fault_type_accepts_acronym_and_variant_spellings() {
        let v: FaultType = serde_json::from_str("\"MIFS\"").unwrap();
        assert_eq!(v, FaultType::Mifs);
        let v: FaultType = serde_json::from_str("\"Mifs\"").unwrap();
        assert_eq!(v, FaultType::Mifs);
        assert!(serde_json::from_str::<FaultType>("\"MBFS\"").is_err());
    }

    #[test]
    fn incompatible_mutation_pattern_pairs_are_validation_errors() {
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"WVAV",
                "pattern":"comparison-branch",
                "mutation":{"perturb-immediate":{"delta":1}},"note":"x"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Validation { message, .. } if message.contains("cannot apply")),
            "got {err}"
        );
    }

    #[test]
    fn parameter_ranges_are_validated() {
        for (op, needle) in [
            (
                r#"{"id":"A","fault-type":"MIFS",
                    "pattern":{"if-construct":{"max-body":0}},
                    "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
                "max-body",
            ),
            (
                r#"{"id":"B","fault-type":"MLPC",
                    "pattern":{"straight-run":{"window":4,"min-run":3}},
                    "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
                "min-run",
            ),
            (
                r#"{"id":"C","fault-type":"WVAV",
                    "pattern":{"literal-assignment":{"region":"anywhere"}},
                    "mutation":{"perturb-immediate":{"delta":0}},"note":"x"}"#,
                "delta",
            ),
            (
                r#"{"id":"D","fault-type":"MVAE",
                    "pattern":{"expression-assignment":{"min-expr":1}},
                    "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
                "min-expr",
            ),
            (
                r#"{"id":"E","fault-type":"WPFV",
                    "pattern":{"arg-frame-load":{"min-frame":1}},
                    "mutation":"redirect-frame-slot","note":"x"}"#,
                "min-frame",
            ),
        ] {
            let err = one_op_pack(op).unwrap_err();
            match &err {
                PackError::Validation { message, .. } => {
                    assert!(message.contains(needle), "{needle}: got {message}")
                }
                other => panic!("{needle}: got {other}"),
            }
        }
    }

    #[test]
    fn duplicate_and_malformed_ids_are_rejected() {
        const OP: &str = r#"{"id":"X","fault-type":"MIFS",
            "pattern":{"if-construct":{}},
            "mutation":{"nop":{"region":"match"}},"note":"x"}"#;
        let err = FaultPack::from_json(&pack_json(&format!("{OP},{OP}"))).unwrap_err();
        assert!(
            matches!(&err, PackError::Validation { message, .. } if message.contains("duplicate")),
            "got {err}"
        );
        let err = one_op_pack(
            r#"{"id":"has@sign","fault-type":"MIFS",
                "pattern":{"if-construct":{}},
                "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
        )
        .unwrap_err();
        assert!(matches!(err, PackError::Validation { .. }), "got {err}");
    }

    #[test]
    fn unknown_note_placeholders_are_rejected() {
        let err = one_op_pack(
            r#"{"id":"X","fault-type":"MFC",
                "pattern":"unused-call",
                "mutation":{"nop":{"region":"match"}},"note":"remove {wat}"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, PackError::Validation { message, .. } if message.contains("{wat}")),
            "got {err}"
        );
        // {target} is fine for unused-call…
        assert!(one_op_pack(
            r#"{"id":"X","fault-type":"MFC",
                "pattern":"unused-call",
                "mutation":{"nop":{"region":"match"}},
                "note":"remove call to {target}"}"#,
        )
        .is_ok());
        // …but not for an if-construct.
        assert!(one_op_pack(
            r#"{"id":"X","fault-type":"MIFS",
                "pattern":{"if-construct":{}},
                "mutation":{"nop":{"region":"match"}},
                "note":"remove {target}"}"#,
        )
        .is_err());
    }

    #[test]
    fn empty_pack_is_rejected() {
        let err = FaultPack::from_json(r#"{"name":"t","version":"1","operators":[]}"#).unwrap_err();
        assert!(
            matches!(&err, PackError::Validation { message, .. } if message.contains("no operators")),
            "got {err}"
        );
    }

    #[test]
    fn content_hash_tracks_every_edit() {
        let base = classic().content_hash();
        let mut edited = classic().clone();
        edited.operators[0].note.push('!');
        assert_ne!(edited.content_hash(), base, "note edit changes the hash");
        let mut edited = classic().clone();
        edited.version = "1.0.1".into();
        assert_ne!(edited.content_hash(), base, "version bump changes the hash");
        let mut edited = classic().clone();
        edited.operators.swap(0, 1);
        assert_ne!(edited.content_hash(), base, "reorder changes the hash");
        assert_eq!(classic().content_hash(), base, "hash is deterministic");
    }

    #[test]
    fn pack_ref_display_is_stable() {
        let r = PackRef {
            name: "p".into(),
            version: "2".into(),
            content_hash: 0xabc,
        };
        assert_eq!(r.to_string(), "p@2#0000000000000abc");
        assert_ne!(pack_set_hash(std::slice::from_ref(&r)), pack_set_hash(&[]));
    }

    #[test]
    fn chain_constraint_merges_matches_into_one_fault() {
        let pack = one_op_pack(
            r#"{"id":"MCLN-CHAIN","fault-type":"MFC",
                "pattern":"unused-call",
                "mutation":{"nop":{"region":"match"}},
                "constraints":{"chain":true},
                "note":"remove {n} cleanup calls"}"#,
        )
        .unwrap();
        let src = r#"
            fn release(x) { return x; }
            fn f(a) {
                release(a);
                release(a);
                return 0;
            }
        "#;
        let p = compile("t", src).unwrap();
        let views = FuncView::all_of(p.image());
        let v = views.iter().find(|v| v.name == "f").unwrap();
        let ops = pack.compile().unwrap();
        let ms = ops[0].scan(v);
        assert_eq!(ms.len(), 1, "both calls merged into one fault");
        assert_eq!(ms[0].patches.len(), 2);
        assert_eq!(ms[0].note, "remove 2 cleanup calls");
    }

    #[test]
    fn max_per_func_and_function_filter_constraints() {
        let src = r#"
            fn f() {
                var a = 1;
                var b = 2;
                var c = 3;
                return a + b + c;
            }
        "#;
        let p = compile("t", src).unwrap();
        let views = FuncView::all_of(p.image());
        let v = views.iter().find(|v| v.name == "f").unwrap();
        let capped = one_op_pack(
            r#"{"id":"W","fault-type":"WVAV",
                "pattern":{"literal-assignment":{"region":"anywhere"}},
                "mutation":{"perturb-immediate":{}},
                "constraints":{"max-per-func":2},
                "note":"assign {new_imm} instead of {imm}"}"#,
        )
        .unwrap();
        assert_eq!(capped.compile().unwrap()[0].scan(v).len(), 2);
        let gated = one_op_pack(
            r#"{"id":"W","fault-type":"WVAV",
                "pattern":{"literal-assignment":{"region":"anywhere"}},
                "mutation":{"perturb-immediate":{}},
                "constraints":{"min-func-len":10000},"note":"x"}"#,
        )
        .unwrap();
        assert!(gated.compile().unwrap()[0].scan(v).is_empty());
        let filtered = one_op_pack(
            r#"{"id":"W","fault-type":"WVAV",
                "pattern":{"literal-assignment":{"region":"anywhere"}},
                "mutation":{"perturb-immediate":{}},
                "constraints":{"functions":["other"]},"note":"x"}"#,
        )
        .unwrap();
        assert!(filtered.compile().unwrap()[0].scan(v).is_empty());
    }

    #[test]
    fn perturb_immediate_delta_is_honored() {
        let pack = one_op_pack(
            r#"{"id":"WVAV-NEG","fault-type":"WVAV",
                "pattern":{"literal-assignment":{"region":"anywhere"}},
                "mutation":{"perturb-immediate":{"delta":-1}},
                "note":"assign {new_imm} instead of {imm}"}"#,
        )
        .unwrap();
        let p = compile("t", "fn f() { var x = 41; return x; }").unwrap();
        let views = FuncView::all_of(p.image());
        let v = views.iter().find(|v| v.name == "f").unwrap();
        let ms = pack.compile().unwrap()[0].scan(v);
        assert_eq!(ms.len(), 1);
        let patched = Instr::decode(ms[0].patches[0].new_word).unwrap();
        assert_eq!(patched.imm, 40);
        assert_eq!(ms[0].note, "assign 40 instead of 41");
    }

    #[test]
    fn tail_window_restricts_unused_calls_to_the_function_tail() {
        let src = r#"
            fn release(x) { return x; }
            fn f(a) {
                release(a);
                var r = a + 1;
                var s = r * 2;
                var t = s + r;
                var u = t - a;
                release(u);
                return 0;
            }
        "#;
        let p = compile("t", src).unwrap();
        let views = FuncView::all_of(p.image());
        let v = views.iter().find(|v| v.name == "f").unwrap();
        let all = one_op_pack(
            r#"{"id":"M","fault-type":"MFC","pattern":"unused-call",
                "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
        )
        .unwrap();
        assert_eq!(all.compile().unwrap()[0].scan(v).len(), 2);
        let tail = one_op_pack(
            r#"{"id":"M","fault-type":"MFC",
                "pattern":{"unused-call":{"tail-window":10}},
                "mutation":{"nop":{"region":"match"}},"note":"x"}"#,
        )
        .unwrap();
        let ms = tail.compile().unwrap()[0].scan(v);
        assert_eq!(ms.len(), 1, "only the final call is in the tail window");
        assert!(ms[0].site > v.abs(v.len() / 2));
    }

    #[test]
    fn bundled_example_pack_is_valid() {
        let pack = FaultPack::load(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../packs/chain-cleanup.json"),
        )
        .unwrap();
        assert_eq!(pack.name, "chain-cleanup");
        assert_eq!(pack.compile().unwrap().len(), 3);
    }

    #[test]
    fn load_reports_io_errors_with_the_path() {
        let err = FaultPack::load("/nonexistent/pack.json").unwrap_err();
        assert!(matches!(&err, PackError::Io { path, .. } if path.ends_with("pack.json")));
        assert!(err.to_string().contains("/nonexistent/pack.json"));
    }
}
