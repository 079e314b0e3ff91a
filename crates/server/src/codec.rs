//! The line-oriented wire codec for the [`FlowService`] protocol.
//!
//! Every message is one `\n`-terminated line of ASCII text with
//! space-separated fields, in the same hand-rolled style as
//! [`FunctionSummary::encode`] (the build has no serialization crates). One
//! request line yields exactly one response line, so pipelining is trivial:
//! responses come back in request order.
//!
//! # Requests (client → server)
//!
//! ```text
//! summary <func>                      QueryRequest::Summary
//! results <func>                      QueryRequest::Results
//! slice <func> <var>                  QueryRequest::BackwardSlice
//! slice-at <func> <place> <blk> <st>  QueryRequest::BackwardSliceAt
//! policy <lattice> <default> <fns> <params> <locals> <sinks> <declassify>
//!                                     QueryRequest::CheckPolicy
//! lint <func>                         QueryRequest::Lint
//! stats                               QueryRequest::Stats
//! metrics                             QueryRequest::Metrics
//! auth <esc-token>                    connection-preamble authentication
//! update <nbytes>                     (then exactly <nbytes> source bytes + '\n')
//! shutdown                            stop the whole server
//! ```
//!
//! When the server (or router) is configured with an auth token, `auth`
//! must be the first command on a connection: it answers `authed` on
//! success, and until it succeeds every other command answers a structured
//! `error`. Servers without a configured token acknowledge `auth`
//! unconditionally, so clients can send the preamble either way.
//!
//! # Responses (server → client)
//!
//! Query responses are [`QueryEnvelope`]s: the tag mirrors the request, the
//! second field is always the serving snapshot's epoch. `update` answers
//! `updated <epoch>` once the new snapshot serves — and it is a sync point
//! for its connection: requests pipelined after an `update` are served from
//! the acknowledged epoch or later (other connections are unaffected).
//! `shutdown` answers `bye`, and any malformed or unserveable request
//! answers `error <epoch> <message>` — the connection keeps serving either
//! way.
//!
//! # Field grammar
//!
//! * **strings** (variable names, error messages, …) are percent-escaped:
//!   bytes outside `[A-Za-z0-9_]` become `%XX`; the empty string encodes as
//!   a lone `%` (unambiguous, since a real escape is always `%XX`).
//! * **place**: root local digits + projection path, `*` for a deref and
//!   `.N` for a field — `1*.0` is `(*_1).0`.
//! * **location**: `<block>.<statement>` — `2.1` is `bb2[1]`.
//! * **dependency**: `a<local>` (argument) or `i<block>.<stmt>`
//!   (instruction).
//! * list fields that can be empty use `-` as the empty marker.
//! * **results**: nine fields, `<func> <boundary> <iterations> <places>
//!   <deps> <rows> <entry> <after> <exit>`, sent straight from the indexed
//!   states ([`InfoFlowResults::indexed`]) with no per-location Θ text:
//!   - `places` and `deps` are the tables every index below refers to,
//!     `,`-joined places and dependencies;
//!   - `rows` lists each distinct non-empty dependency set once,
//!     `,`-joined, as strictly increasing `deps` indices joined with `+`.
//!     Row ids count from 0 in order of first use in the states that
//!     follow, so a row's first reference is always the next unused id;
//!   - a **state** is `,`-joined entries in place order: `<place>:<row>` for
//!     a present place and its row, `<place>` for a present place with no
//!     dependencies; the empty state is `~`;
//!   - `entry` is one state per basic block, joined with `|`; `exit` is one
//!     state;
//!   - `after` holds, per block (joined with `^`), the state after each
//!     statement and after the terminator (joined with `|`), each a
//!     **delta** against the state before it in its block: the entries that
//!     changed or appeared, then `!<place>` for each place that left, each
//!     in place order; `~` when nothing changed. These are the stored
//!     [`flowistry_core::Deltas`], written out as they are.
//!
//!   The decoder rebuilds the entry and exit states and the deltas with one
//!   shared row per row id, and checks every place, dependency and row id
//!   against its table. A delta must be canonical: one that names a place
//!   twice, restates a place's current row, removes an absent place or
//!   breaks the order is rejected, never stored.
//! * **lattice**: a built-in name (`two_point`, `multi_level`,
//!   `conf_integrity`) or `linear:<level>:<level>:...` with escaped level
//!   names, least restrictive first.
//! * **policy lists**: `,`-joined tuples of escaped names, `:`-separated
//!   within a tuple — pairs for function labels / sink clearances /
//!   declassification points, triples for parameter and local labels.
//! * **diagnostic**: `,`-separated fields (function, sink, location, line,
//!   incoming label, clearance, sources, witness); sources are escaped
//!   strings joined with `+`, witness steps are `location:line` joined
//!   with `+`, diagnostics join with `|`.
//! * **lint finding**: `,`-separated fields (pass name, function, message,
//!   line, witness); the witness uses the same `location:line` steps as a
//!   diagnostic, findings join with `|`, the empty list is `-`.
//!
//! # Trailing attributes (backward-compatible extension point)
//!
//! Request and response lines may carry trailing `key=value` tokens after
//! their payload, where `key` matches `[a-z][a-z0-9_]*` and `value` is a
//! percent-escaped string. Decoders strip them from the right before the
//! arity check, recognize the keys they know, and ignore the rest — so new
//! attributes never break old peers, and lines without any decode exactly
//! as before. No payload token can be mistaken for an attribute, because
//! no payload token contains a bare `=`: escaped strings escape it to
//! `%3D`, and no other field grammar uses it — a `results` payload, for
//! one, is digits, place and dependency syntax, and the separators
//! `, + : | ^ ! ~ -`.
//!
//! The one attribute currently defined is `tid=<escaped trace id>`: a
//! client stamps it on a request, and the server echoes it verbatim on
//! that request's response envelope (see [`QueryEnvelope::trace_id`]).

use flowistry_core::{
    BitSet, DeltaEntry, Deltas, FunctionSummary, IndexedStates, IndexedTheta, InfoFlowResults,
};
use flowistry_engine::{QueryEnvelope, QueryRequest, QueryResponse, RunStats, ServiceStats};
use flowistry_ifc::{IfcDiagnostic, LatticeSpec, Policy, WitnessStep};
use flowistry_lang::mir::{BasicBlock, Local, Location, Place};
use flowistry_lang::types::FuncId;
use flowistry_lint::{LintFinding, LintPass};
use flowistry_slicer::Slice;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write;
use std::sync::Arc;

#[cfg(doc)]
use flowistry_engine::FlowService;

/// One decoded request line: a service query, an update (whose source
/// bytes follow the line), or a server shutdown.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A [`QueryRequest`] to forward to the service.
    Query {
        /// The decoded request.
        request: QueryRequest,
        /// The request's `tid=` attribute, if the client sent one — to be
        /// echoed on the response envelope.
        trace_id: Option<String>,
        /// The request's `deadline=<ms>` attribute, if the client sent
        /// one: the total budget, measured from decode, after which the
        /// client no longer wants the answer. The service sheds expired
        /// jobs at dequeue; the router stops failover retries once the
        /// budget is spent.
        deadline_ms: Option<u64>,
    },
    /// `update <nbytes>`: the next `nbytes` bytes on the stream are the
    /// new program source, followed by one `\n`.
    Update {
        /// Length of the source text in bytes.
        bytes: usize,
        /// The `epoch=<n>` attribute, if present: the fleet epoch this
        /// update must land on. A respawned replica is warm-started with
        /// the *latest* program only (not the full history), so its epoch
        /// counter is fast-forwarded to match the fleet's.
        epoch: Option<u64>,
    },
    /// `auth <esc-token>`: the connection-preamble authentication.
    Auth {
        /// The presented token, unescaped.
        token: String,
    },
    /// `shutdown`: gracefully stop the whole server.
    Shutdown,
}

// ---------------------------------------------------------------------------
// Escaped strings

/// Percent-escapes an arbitrary string into one space-free token.
fn esc(s: &str) -> String {
    if s.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverts [`esc`].
fn unesc(s: &str) -> Result<String, String> {
    if s == "%" {
        return Ok(String::new());
    }
    let mut bytes = Vec::with_capacity(s.len());
    let mut iter = s.bytes();
    while let Some(b) = iter.next() {
        if b == b'%' {
            let hi = iter.next().ok_or("truncated %-escape")?;
            let lo = iter.next().ok_or("truncated %-escape")?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).map_err(|_| "bad %-escape")?;
            bytes.push(u8::from_str_radix(hex, 16).map_err(|_| format!("bad %-escape %{hex}"))?);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).map_err(|_| "escaped string is not UTF-8".to_string())
}

// ---------------------------------------------------------------------------
// Trailing attributes

/// Whether `key` is a valid attribute key (`[a-z][a-z0-9_]*`) — the shape
/// no payload token's prefix-before-`=` can take (see the module docs).
fn is_attr_key(key: &str) -> bool {
    let mut chars = key.chars();
    matches!(chars.next(), Some('a'..='z'))
        && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
}

/// Splits trailing `key=value` attribute tokens off a field list, from the
/// right, stopping at the first token that is not one. Returns the payload
/// prefix and the attributes in line order.
fn split_attrs<'a>(fields: &'a [&'a str]) -> (&'a [&'a str], Vec<(&'a str, &'a str)>) {
    let mut split = fields.len();
    while split > 0 {
        match fields[split - 1].split_once('=') {
            Some((key, _)) if is_attr_key(key) => split -= 1,
            _ => break,
        }
    }
    let attrs = fields[split..]
        .iter()
        .map(|token| token.split_once('=').expect("attr token has '='"))
        .collect();
    (&fields[..split], attrs)
}

/// Extracts the `tid` attribute (unescaped), ignoring unknown keys —
/// that's the forward-compatibility contract: attributes this peer does
/// not know about must not break decoding.
fn trace_id_from_attrs(attrs: &[(&str, &str)]) -> Result<Option<String>, String> {
    for (key, value) in attrs {
        if *key == "tid" {
            return unesc(value).map(Some);
        }
    }
    Ok(None)
}

/// Appends ` tid=<escaped>` to `line` when a trace id is present.
fn append_trace_id(mut line: String, trace_id: Option<&str>) -> String {
    if let Some(tid) = trace_id {
        line.push_str(" tid=");
        line.push_str(&esc(tid));
    }
    line
}

/// Extracts a numeric attribute (e.g. `deadline=250`, `epoch=3`),
/// ignoring unknown keys. A present-but-malformed value is an error: the
/// peer clearly meant to send the attribute, and silently dropping a
/// deadline would turn bounded waits into unbounded ones.
fn num_attr(attrs: &[(&str, &str)], name: &str) -> Result<Option<u64>, String> {
    for (key, value) in attrs {
        if *key == name {
            return value
                .parse()
                .map(Some)
                .map_err(|_| format!("bad {name} attribute {value:?}"));
        }
    }
    Ok(None)
}

/// Appends ` <name>=<value>` for a present numeric attribute.
fn append_num_attr(mut line: String, name: &str, value: Option<u64>) -> String {
    if let Some(value) = value {
        line.push_str(&format!(" {name}={value}"));
    }
    line
}

// ---------------------------------------------------------------------------
// Scalars, places, locations, dependency sets

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("bad {what} {s:?}"))
}

fn encode_place(place: &Place) -> String {
    // Local digits + the same projection grammar the summary codec uses
    // (shared with flowistry-core through `flowistry_lang::mir`).
    format!(
        "{}{}",
        place.local.0,
        flowistry_lang::mir::encode_projection(&place.projection)
    )
}

fn decode_place(s: &str) -> Result<Place, String> {
    let digits: String = s.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return Err(format!("bad place {s:?}: missing local"));
    }
    let local = Local(parse_num(&digits, "local")?);
    let projection = flowistry_lang::mir::parse_projection(&s[digits.len()..])
        .ok_or_else(|| format!("bad place {s:?}: malformed projection"))?;
    Ok(Place { local, projection })
}

fn encode_location(loc: Location) -> String {
    format!("{}.{}", loc.block.0, loc.statement_index)
}

fn decode_location(s: &str) -> Result<Location, String> {
    let (block, stmt) = s
        .split_once('.')
        .ok_or_else(|| format!("bad location {s:?}"))?;
    Ok(Location {
        block: BasicBlock(parse_num(block, "block")?),
        statement_index: parse_num(stmt, "statement index")?,
    })
}

fn encode_locations(locs: &BTreeSet<Location>) -> String {
    join_or_dash(locs, '+', |out, &l| out.push_str(&encode_location(l)))
}

fn decode_locations(s: &str) -> Result<BTreeSet<Location>, String> {
    split_list(s, '+').map(decode_location).collect()
}

fn encode_dep(dep: &flowistry_core::Dep) -> String {
    match dep {
        flowistry_core::Dep::Arg(l) => format!("a{}", l.0),
        flowistry_core::Dep::Instr(loc) => format!("i{}", encode_location(*loc)),
    }
}

fn decode_dep(s: &str) -> Result<flowistry_core::Dep, String> {
    match s.split_at_checked(1) {
        Some(("a", rest)) => Ok(flowistry_core::Dep::Arg(Local(parse_num(rest, "local")?))),
        Some(("i", rest)) => Ok(flowistry_core::Dep::Instr(decode_location(rest)?)),
        _ => Err(format!("bad dependency {s:?}")),
    }
}

// ---------------------------------------------------------------------------
// Full per-location results: tables, rows and states

/// Row ids of one `results` payload, deduplicated by allocation first and
/// by content second, numbered in order of first use.
#[derive(Default)]
struct RowIds<'a> {
    by_ptr: HashMap<*const BitSet, u32>,
    by_content: HashMap<&'a BitSet, u32>,
    rows: Vec<&'a BitSet>,
}

impl<'a> RowIds<'a> {
    /// The id of a non-empty row, assigning the next one on first use.
    fn id(&mut self, row: &'a BitSet) -> u32 {
        if let Some(&id) = self.by_ptr.get(&(row as *const BitSet)) {
            return id;
        }
        let next = self.rows.len() as u32;
        let id = *self.by_content.entry(row).or_insert(next);
        if id == next {
            self.rows.push(row);
        }
        self.by_ptr.insert(row, id);
        id
    }

    /// The id of a state's row for one place (`None`: no dependencies).
    fn of(&mut self, row: Option<&'a BitSet>) -> Option<u32> {
        row.filter(|r| !r.is_empty()).map(|r| self.id(r))
    }
}

/// Appends one state entry: `<place>` or `<place>:<row>`.
fn push_entry(out: &mut String, first: &mut bool, place: u32, row: Option<u32>) {
    if !std::mem::take(first) {
        out.push(',');
    }
    let _ = write!(out, "{place}");
    if let Some(row) = row {
        let _ = write!(out, ":{row}");
    }
}

/// Appends a full state: every present place, in place order; `~` if
/// there are none.
fn push_state<'a>(out: &mut String, rows: &mut RowIds<'a>, state: &'a IndexedTheta) {
    let mut first = true;
    for (place, row) in state.entries() {
        push_entry(out, &mut first, place, rows.of(row));
    }
    if first {
        out.push('~');
    }
}

/// Appends one stored step delta: its sets as state entries, then
/// `!<place>` for each removal; `~` if the step changed nothing.
fn push_delta<'a>(out: &mut String, rows: &mut RowIds<'a>, delta: &'a [DeltaEntry]) {
    let mut first = true;
    for entry in delta {
        match entry {
            DeltaEntry::Set(place, row) => {
                push_entry(out, &mut first, *place, rows.of(row.as_deref()))
            }
            DeltaEntry::Remove(place) => {
                if !std::mem::take(&mut first) {
                    out.push(',');
                }
                let _ = write!(out, "!{place}");
            }
        }
    }
    if first {
        out.push('~');
    }
}

/// Joins encoded items with `sep`, or `-` for an empty list; every list
/// field of the grammar is written through this and read back through
/// [`split_list`].
fn join_or_dash<T>(
    items: impl IntoIterator<Item = T>,
    sep: char,
    mut encode: impl FnMut(&mut String, T),
) -> String {
    let mut items = items.into_iter().peekable();
    if items.peek().is_none() {
        return "-".to_string();
    }
    let mut out = String::new();
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(sep);
        }
        encode(&mut out, item);
    }
    out
}

/// Encodes full [`InfoFlowResults`] into the 9 space-separated fields of a
/// `results` response payload, straight from the indexed states.
fn encode_results(results: &InfoFlowResults) -> String {
    let view = results.indexed();
    let view: &IndexedStates = &view;
    let mut rows = RowIds::default();
    let entry = join_or_dash(view.entry(), '|', |out, state| {
        push_state(out, &mut rows, state)
    });
    // `IndexedStates` stores one entry state and at least one step delta
    // per block, in the canonical form the grammar ships.
    let deltas = view.deltas();
    let mut after = String::new();
    for block in 0..deltas.num_blocks() {
        if block > 0 {
            after.push('^');
        }
        for step in 0..deltas.num_steps(block) {
            if step > 0 {
                after.push('|');
            }
            push_delta(&mut after, &mut rows, deltas.step(block, step));
        }
    }
    if after.is_empty() {
        after.push('-');
    }
    let mut exit = String::new();
    push_state(&mut exit, &mut rows, view.exit());
    let places = join_or_dash(view.places(), ',', |out, place| {
        out.push_str(&encode_place(place))
    });
    let deps = join_or_dash(view.deps(), ',', |out, dep| out.push_str(&encode_dep(dep)));
    let row_table = join_or_dash(&rows.rows, ',', |out, row| {
        for (i, bit) in row.iter().enumerate() {
            let _ = write!(out, "{}{bit}", if i > 0 { "+" } else { "" });
        }
    });
    format!(
        "{} {} {} {places} {deps} {row_table} {entry} {after} {exit}",
        results.func().0,
        u8::from(results.hit_boundary()),
        results.iterations(),
    )
}

/// Splits a list field: `-` is the empty list.
fn split_list(s: &str, sep: char) -> impl Iterator<Item = &str> {
    (s != "-").then(|| s.split(sep)).into_iter().flatten()
}

/// Decodes the states of one `results` payload against its tables,
/// checking every place and row reference as it goes.
struct StateDecoder {
    rows: Vec<Arc<BitSet>>,
    /// The next row id a first use may introduce.
    next_row: usize,
    /// Size of the place table.
    places: usize,
}

impl StateDecoder {
    fn place(&self, s: &str) -> Result<u32, String> {
        let place: u32 = parse_num(s, "place id")?;
        if place as usize >= self.places {
            return Err(format!(
                "place id {place} is outside the {}-place table",
                self.places
            ));
        }
        Ok(place)
    }

    fn row(&mut self, s: &str) -> Result<Arc<BitSet>, String> {
        let row: u32 = parse_num(s, "row id")?;
        if row as usize >= self.rows.len() {
            return Err(format!(
                "row id {row} is outside the {}-row table",
                self.rows.len()
            ));
        }
        match (row as usize).cmp(&self.next_row) {
            std::cmp::Ordering::Greater => {
                return Err(format!(
                    "row {row} used before it is defined (next new row is {})",
                    self.next_row
                ))
            }
            std::cmp::Ordering::Equal => self.next_row += 1,
            std::cmp::Ordering::Less => {}
        }
        Ok(self.rows[row as usize].clone())
    }

    /// One state entry, `<place>` or `<place>:<row>`, sharing the row.
    fn entry(&mut self, s: &str) -> Result<(u32, Option<Arc<BitSet>>), String> {
        match s.split_once(':') {
            Some((place, row)) => Ok((self.place(place)?, Some(self.row(row)?))),
            None => Ok((self.place(s)?, None)),
        }
    }

    /// Decodes a full state.
    fn full(&mut self, s: &str) -> Result<IndexedTheta, String> {
        if s == "~" {
            return Ok(IndexedTheta::from_entries([]));
        }
        let entries = s
            .split(',')
            .map(|entry| self.entry(entry))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IndexedTheta::from_entries(entries))
    }

    /// Decodes one step delta into `out`, as the wire lists it;
    /// [`IndexedStates::new`] then checks that it is canonical.
    fn delta(&mut self, s: &str, out: &mut Vec<DeltaEntry>) -> Result<(), String> {
        out.clear();
        if s == "~" {
            return Ok(());
        }
        for entry in s.split(',') {
            out.push(match entry.strip_prefix('!') {
                Some(place) => DeltaEntry::Remove(self.place(place)?),
                None => {
                    let (place, row) = self.entry(entry)?;
                    DeltaEntry::Set(place, row)
                }
            });
        }
        Ok(())
    }
}

fn decode_results(fields: &[&str]) -> Result<InfoFlowResults, String> {
    let [func, hit, iters, places, deps, rows, entry, after, exit] = fields else {
        return Err(format!(
            "results payload has {} fields, want 9",
            fields.len()
        ));
    };
    let func = FuncId(parse_num(func, "function id")?);
    let hit_boundary = match *hit {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad boundary flag {other:?}")),
    };
    let iterations = parse_num(iters, "iteration count")?;
    let places = split_list(places, ',')
        .map(decode_place)
        .collect::<Result<Vec<_>, _>>()?;
    let deps = split_list(deps, ',')
        .map(decode_dep)
        .collect::<Result<Vec<_>, _>>()?;
    let rows = split_list(rows, ',')
        .map(|row| {
            let mut set = BitSet::new();
            let mut last = None;
            for bit in row.split('+') {
                let bit: u32 = parse_num(bit, "dependency id")?;
                if bit as usize >= deps.len() {
                    return Err(format!(
                        "dependency id {bit} is outside the {}-dependency table",
                        deps.len()
                    ));
                }
                if last.is_some_and(|last| bit <= last) {
                    return Err(format!("row {row:?} is not strictly increasing"));
                }
                last = Some(bit);
                set.insert(bit);
            }
            Ok(Arc::new(set))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut decoder = StateDecoder {
        rows,
        next_row: 0,
        places: places.len(),
    };
    let entry_fields: Vec<&str> = split_list(entry, '|').collect();
    let after_fields: Vec<&str> = split_list(after, '^').collect();
    if entry_fields.len() != after_fields.len() {
        return Err(format!(
            "{} entry states for {} blocks of after-states",
            entry_fields.len(),
            after_fields.len()
        ));
    }
    // Row ids are checked in line order: every entry state, then every
    // block's deltas, then the exit state.
    let entry_states = entry_fields
        .into_iter()
        .map(|entry| decoder.full(entry))
        .collect::<Result<Vec<_>, _>>()?;
    let mut deltas = Deltas::default();
    let mut step = Vec::new();
    for block in after_fields {
        for delta in block.split('|') {
            decoder.delta(delta, &mut step)?;
            deltas.push_step(step.drain(..));
        }
        deltas.end_block();
    }
    let exit = decoder.full(exit)?;
    if decoder.next_row != decoder.rows.len() {
        return Err(format!(
            "row table has {} rows, states use {}",
            decoder.rows.len(),
            decoder.next_row
        ));
    }
    let states = IndexedStates::new(places, deps, entry_states, deltas, exit)?;
    Ok(InfoFlowResults::from_indexed_states(
        func,
        states,
        hit_boundary,
        iterations,
    ))
}

// ---------------------------------------------------------------------------
// Slices, IFC policies and reports, stats

fn encode_lines(lines: &BTreeSet<usize>) -> String {
    join_or_dash(lines, ',', |out, l| {
        let _ = write!(out, "{l}");
    })
}

fn decode_lines(s: &str) -> Result<BTreeSet<usize>, String> {
    split_list(s, ',').map(|l| parse_num(l, "line")).collect()
}

/// Encodes a list of `(function, name)` pairs as `f:n`, `,`-joined.
fn encode_pairs(pairs: &[(String, String)]) -> String {
    join_or_dash(pairs, ',', |out, (f, n)| {
        let _ = write!(out, "{}:{}", esc(f), esc(n));
    })
}

fn decode_pairs(s: &str) -> Result<Vec<(String, String)>, String> {
    split_list(s, ',')
        .map(|pair| {
            let (f, n) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad name pair {pair:?}"))?;
            Ok((unesc(f)?, unesc(n)?))
        })
        .collect()
}

/// Encodes a [`LatticeSpec`]: the built-in name, or `linear:` followed by
/// the `:`-joined escaped level names.
fn encode_lattice_spec(spec: &LatticeSpec) -> String {
    match spec {
        LatticeSpec::Linear(levels) => {
            let mut out = "linear".to_string();
            for level in levels {
                out.push(':');
                out.push_str(&esc(level));
            }
            out
        }
        builtin => builtin.kind_name().to_string(),
    }
}

fn decode_lattice_spec(s: &str) -> Result<LatticeSpec, String> {
    if let Some(levels) = s.strip_prefix("linear:") {
        let levels: Vec<String> = levels.split(':').map(unesc).collect::<Result<_, _>>()?;
        return Ok(LatticeSpec::Linear(levels));
    }
    LatticeSpec::parse(s).ok_or_else(|| format!("unknown lattice spec {s:?}"))
}

/// Encodes an optional label: `-` for `None`, the escaped name otherwise
/// (a literal `-` escapes to `%2D`, so the marker is unambiguous).
fn encode_opt_name(name: Option<&str>) -> String {
    match name {
        None => "-".to_string(),
        Some(n) => esc(n),
    }
}

fn decode_opt_name(s: &str) -> Result<Option<String>, String> {
    if s == "-" {
        return Ok(None);
    }
    Ok(Some(unesc(s)?))
}

/// Encodes `(function, name, label)` triples as `f:n:l`, `,`-joined.
fn encode_triples(triples: &[(String, String, String)]) -> String {
    join_or_dash(triples, ',', |out, (f, n, l)| {
        let _ = write!(out, "{}:{}:{}", esc(f), esc(n), esc(l));
    })
}

fn decode_triples(s: &str) -> Result<Vec<(String, String, String)>, String> {
    split_list(s, ',')
        .map(|triple| {
            let fields: Vec<&str> = triple.split(':').collect();
            let [f, n, l] = fields[..] else {
                return Err(format!("bad name triple {triple:?}"));
            };
            Ok((unesc(f)?, unesc(n)?, unesc(l)?))
        })
        .collect()
}

fn decode_policy(fields: &[&str; 7]) -> Result<Policy, String> {
    let [lattice, default, fns, params, locals, sinks, declassify] = fields;
    Ok(Policy {
        lattice: decode_lattice_spec(lattice)?,
        default_label: decode_opt_name(default)?,
        fn_labels: decode_pairs(fns)?,
        param_labels: decode_triples(params)?,
        local_labels: decode_triples(locals)?,
        sink_clearances: decode_pairs(sinks)?,
        declassify: decode_pairs(declassify)?,
    })
}

/// Encodes a flow witness as `location:line` steps joined with `+` (`-`
/// when empty) — shared between IFC diagnostics and lint findings.
fn encode_witness(witness: &[WitnessStep]) -> String {
    join_or_dash(witness, '+', |out, w| {
        let _ = write!(out, "{}:{}", encode_location(w.location), w.line);
    })
}

fn decode_witness(s: &str) -> Result<Vec<WitnessStep>, String> {
    split_list(s, '+')
        .map(|step| {
            let (loc, line) = step
                .rsplit_once(':')
                .ok_or_else(|| format!("bad witness step {step:?}"))?;
            Ok(WitnessStep {
                location: decode_location(loc)?,
                line: parse_num(line, "witness line")?,
            })
        })
        .collect()
}

fn encode_diagnostics(diags: &[IfcDiagnostic]) -> String {
    join_or_dash(diags, '|', |out, d| {
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},{}",
            esc(&d.in_function),
            esc(&d.sink),
            encode_location(d.location),
            d.line,
            esc(&d.incoming_label),
            esc(&d.clearance),
            join_or_dash(&d.sources, '+', |out, s| out.push_str(&esc(s))),
            encode_witness(&d.witness)
        );
    })
}

fn decode_diagnostics(s: &str) -> Result<Vec<IfcDiagnostic>, String> {
    split_list(s, '|')
        .map(|diag| {
            let fields: Vec<&str> = diag.split(',').collect();
            let [in_function, sink, location, line, incoming, clearance, sources, witness] =
                fields[..]
            else {
                return Err(format!("diagnostic has {} fields, want 8", fields.len()));
            };
            let sources = split_list(sources, '+')
                .map(unesc)
                .collect::<Result<_, _>>()?;
            let witness = decode_witness(witness)?;
            Ok(IfcDiagnostic {
                in_function: unesc(in_function)?,
                sink: unesc(sink)?,
                location: decode_location(location)?,
                line: parse_num(line, "line")?,
                incoming_label: unesc(incoming)?,
                clearance: unesc(clearance)?,
                sources,
                witness,
            })
        })
        .collect()
}

fn encode_findings(findings: &[LintFinding]) -> String {
    join_or_dash(findings, '|', |out, f| {
        let _ = write!(
            out,
            "{},{},{},{},{}",
            f.pass.name(),
            esc(&f.function),
            esc(&f.message),
            f.line,
            encode_witness(&f.witness)
        );
    })
}

fn decode_findings(s: &str) -> Result<Vec<LintFinding>, String> {
    split_list(s, '|')
        .map(|finding| {
            let fields: Vec<&str> = finding.split(',').collect();
            let [pass, function, message, line, witness] = fields[..] else {
                return Err(format!("lint finding has {} fields, want 5", fields.len()));
            };
            Ok(LintFinding {
                pass: LintPass::parse(pass).ok_or_else(|| format!("unknown lint pass {pass:?}"))?,
                function: unesc(function)?,
                message: unesc(message)?,
                line: parse_num(line, "line")?,
                witness: decode_witness(witness)?,
            })
        })
        .collect()
}

fn encode_stats(stats: &ServiceStats) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {}",
        stats.epoch,
        stats.queue_depth,
        stats.workers,
        stats.served,
        stats.updates_applied,
        stats.updates_failed,
        stats.run.analyzed,
        stats.run.cache_hits,
        stats.run.levels,
        stats.run.threads,
        stats.run.steals,
    )
}

fn decode_stats(fields: &[&str]) -> Result<ServiceStats, String> {
    let [epoch, queue, workers, served, applied, failed, analyzed, hits, levels, threads, steals] =
        fields
    else {
        return Err(format!(
            "stats payload has {} fields, want 11",
            fields.len()
        ));
    };
    Ok(ServiceStats {
        epoch: parse_num(epoch, "epoch")?,
        queue_depth: parse_num(queue, "queue depth")?,
        workers: parse_num(workers, "worker count")?,
        served: parse_num(served, "served count")?,
        updates_applied: parse_num(applied, "updates applied")?,
        updates_failed: parse_num(failed, "updates failed")?,
        run: RunStats {
            analyzed: parse_num(analyzed, "analyzed count")?,
            cache_hits: parse_num(hits, "cache hit count")?,
            levels: parse_num(levels, "level count")?,
            threads: parse_num(threads, "thread count")?,
            steals: parse_num(steals, "steal count")?,
        },
    })
}

// ---------------------------------------------------------------------------
// Requests

/// Renders a [`QueryRequest`] as one request line (without the trailing
/// newline).
pub fn encode_request(request: &QueryRequest) -> String {
    match request {
        QueryRequest::Summary(func) => format!("summary {}", func.0),
        QueryRequest::Results(func) => format!("results {}", func.0),
        QueryRequest::BackwardSlice { func, var } => format!("slice {} {}", func.0, esc(var)),
        QueryRequest::BackwardSliceAt { func, place, loc } => format!(
            "slice-at {} {} {} {}",
            func.0,
            encode_place(place),
            loc.block.0,
            loc.statement_index
        ),
        QueryRequest::CheckPolicy(policy) => format!(
            "policy {} {} {} {} {} {} {}",
            encode_lattice_spec(&policy.lattice),
            encode_opt_name(policy.default_label.as_deref()),
            encode_pairs(&policy.fn_labels),
            encode_triples(&policy.param_labels),
            encode_triples(&policy.local_labels),
            encode_pairs(&policy.sink_clearances),
            encode_pairs(&policy.declassify),
        ),
        QueryRequest::Lint(func) => format!("lint {}", func.0),
        QueryRequest::Stats => "stats".to_string(),
        QueryRequest::Metrics => "metrics".to_string(),
    }
}

/// Like [`encode_request`], with a `tid=` attribute carrying `trace_id`
/// for the server to echo on the response envelope and a `deadline=<ms>`
/// attribute carrying the client's total latency budget for this request.
pub fn encode_request_with(
    request: &QueryRequest,
    trace_id: Option<&str>,
    deadline_ms: Option<u64>,
) -> String {
    append_num_attr(
        append_trace_id(encode_request(request), trace_id),
        "deadline",
        deadline_ms,
    )
}

/// Renders the `update` command line announcing `bytes` source bytes.
pub fn encode_update(bytes: usize) -> String {
    format!("update {bytes}")
}

/// Like [`encode_update`], with an `epoch=<n>` attribute pinning the
/// fleet epoch the update must land on (used to warm-start respawned
/// replicas from the compacted latest program without replaying history).
pub fn encode_update_at(bytes: usize, epoch: Option<u64>) -> String {
    append_num_attr(encode_update(bytes), "epoch", epoch)
}

/// The `shutdown` command line.
pub const SHUTDOWN_LINE: &str = "shutdown";

/// The acknowledgement line for a `shutdown` command.
pub const BYE_LINE: &str = "bye";

/// The acknowledgement line for a successful `auth` command.
pub const AUTHED_LINE: &str = "authed";

/// Renders the `auth` connection preamble carrying `token`.
pub fn encode_auth(token: &str) -> String {
    format!("auth {}", esc(token))
}

/// Renders the acknowledgement for an applied `update`.
pub fn encode_update_ack(epoch: u64) -> String {
    format!("updated {epoch}")
}

/// Parses an `updated <epoch>` acknowledgement.
pub fn decode_update_ack(line: &str) -> Result<u64, String> {
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        ["updated", epoch] => parse_num(epoch, "epoch"),
        _ => Err(format!("bad update acknowledgement {line:?}")),
    }
}

/// Parses one request line into a [`Command`]. Never panics: any malformed
/// input comes back as a descriptive `Err` for the server to answer with an
/// `error` response.
pub fn decode_command(line: &str) -> Result<Command, String> {
    let all_fields: Vec<&str> = line.split_whitespace().collect();
    let (fields, attrs) = split_attrs(&all_fields);
    let trace_id = trace_id_from_attrs(&attrs)?;
    let deadline_ms = num_attr(&attrs, "deadline")?;
    let request = match fields[..] {
        ["summary", func] => QueryRequest::Summary(FuncId(parse_num(func, "function id")?)),
        ["results", func] => QueryRequest::Results(FuncId(parse_num(func, "function id")?)),
        ["slice", func, var] => QueryRequest::BackwardSlice {
            func: FuncId(parse_num(func, "function id")?),
            var: unesc(var)?,
        },
        ["slice-at", func, place, block, stmt] => QueryRequest::BackwardSliceAt {
            func: FuncId(parse_num(func, "function id")?),
            place: decode_place(place)?,
            loc: Location {
                block: BasicBlock(parse_num(block, "block")?),
                statement_index: parse_num(stmt, "statement index")?,
            },
        },
        ["policy", lattice, default, fns, params, locals, sinks, declassify] => {
            QueryRequest::CheckPolicy(decode_policy(&[
                lattice, default, fns, params, locals, sinks, declassify,
            ])?)
        }
        ["lint", func] => QueryRequest::Lint(FuncId(parse_num(func, "function id")?)),
        ["stats"] => QueryRequest::Stats,
        ["metrics"] => QueryRequest::Metrics,
        ["update", bytes] => {
            return Ok(Command::Update {
                bytes: parse_num(bytes, "byte count")?,
                epoch: num_attr(&attrs, "epoch")?,
            })
        }
        ["auth", token] => {
            return Ok(Command::Auth {
                token: unesc(token)?,
            })
        }
        ["shutdown"] => return Ok(Command::Shutdown),
        [] => return Err("empty request line".to_string()),
        [verb, ..] => {
            // A known verb with the wrong arity deserves a better hint than
            // "unknown request" — it misdirects anyone debugging over `nc`.
            const VERBS: [&str; 11] = [
                "summary", "results", "slice", "slice-at", "policy", "lint", "stats", "metrics",
                "update", "auth", "shutdown",
            ];
            return Err(if VERBS.contains(&verb) {
                format!("wrong number of arguments for {verb:?}")
            } else {
                format!("unknown request {verb:?}")
            });
        }
    };
    Ok(Command::Query {
        request,
        trace_id,
        deadline_ms,
    })
}

// ---------------------------------------------------------------------------
// Envelopes

/// Renders an untraced `error` envelope stamped with `epoch`.
pub fn encode_error(epoch: u64, message: String) -> String {
    encode_envelope(&QueryEnvelope {
        epoch,
        response: QueryResponse::Error(message),
        trace_id: None,
    })
}

/// Renders a [`QueryEnvelope`] as one response line (without the trailing
/// newline).
pub fn encode_envelope(envelope: &QueryEnvelope) -> String {
    let epoch = envelope.epoch;
    let line = match &envelope.response {
        QueryResponse::Summary(None) => format!("summary {epoch} -"),
        QueryResponse::Summary(Some(summary)) => format!("summary {epoch} {}", summary.encode()),
        QueryResponse::Results(results) => format!("results {epoch} {}", encode_results(results)),
        QueryResponse::BackwardSlice(None) => format!("slice {epoch} -"),
        QueryResponse::BackwardSlice(Some(slice)) => format!(
            "slice {epoch} {} {} {}",
            esc(&slice.criterion),
            encode_locations(&slice.locations),
            encode_lines(&slice.lines)
        ),
        QueryResponse::BackwardSliceAt(locs) => {
            format!("slice-at {epoch} {}", encode_locations(locs))
        }
        QueryResponse::CheckPolicy(diags) => {
            format!("policy {epoch} {}", encode_diagnostics(diags))
        }
        QueryResponse::Lint(findings) => {
            format!("lint {epoch} {}", encode_findings(findings))
        }
        QueryResponse::Stats(stats) => format!("stats {epoch} {}", encode_stats(stats)),
        QueryResponse::Metrics(text) => format!("metrics {epoch} {}", esc(text)),
        QueryResponse::Error(msg) => format!("error {epoch} {}", esc(msg)),
    };
    append_trace_id(line, envelope.trace_id.as_deref())
}

/// Parses one response line back into a [`QueryEnvelope`]. The decoded
/// value compares equal to what the server encoded — the loopback stress
/// test leans on this to check served answers bit-for-bit against direct
/// analyses.
pub fn decode_envelope(line: &str) -> Result<QueryEnvelope, String> {
    let all_fields: Vec<&str> = line.split_whitespace().collect();
    let (fields, attrs) = split_attrs(&all_fields);
    let trace_id = trace_id_from_attrs(&attrs)?;
    let [tag, epoch, payload @ ..] = fields else {
        return Err(format!("bad response line {line:?}"));
    };
    let epoch: u64 = parse_num(epoch, "epoch")?;
    let one = || -> Result<&str, String> {
        match payload {
            [single] => Ok(*single),
            _ => Err(format!(
                "{tag} payload has {} fields, want 1",
                payload.len()
            )),
        }
    };
    let response = match *tag {
        "summary" => match one()? {
            "-" => QueryResponse::Summary(None),
            enc => QueryResponse::Summary(Some(
                FunctionSummary::decode(enc).ok_or_else(|| format!("bad summary {enc:?}"))?,
            )),
        },
        "results" => QueryResponse::Results(Arc::new(decode_results(payload)?)),
        "slice" => match payload {
            ["-"] => QueryResponse::BackwardSlice(None),
            [criterion, locations, lines] => QueryResponse::BackwardSlice(Some(Slice {
                criterion: unesc(criterion)?,
                locations: decode_locations(locations)?,
                lines: decode_lines(lines)?,
            })),
            _ => {
                return Err(format!(
                    "slice payload has {} fields, want 1 or 3",
                    payload.len()
                ))
            }
        },
        "slice-at" => QueryResponse::BackwardSliceAt(decode_locations(one()?)?),
        "policy" => QueryResponse::CheckPolicy(decode_diagnostics(one()?)?),
        "lint" => QueryResponse::Lint(decode_findings(one()?)?),
        "stats" => QueryResponse::Stats(decode_stats(payload)?),
        "metrics" => QueryResponse::Metrics(unesc(one()?)?),
        "error" => QueryResponse::Error(unesc(one()?)?),
        other => return Err(format!("unknown response tag {other:?}")),
    };
    Ok(QueryEnvelope {
        epoch,
        response,
        trace_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowistry_core::{analyze, AnalysisParams, Condition};
    use flowistry_ifc::PolicyChecker;
    use flowistry_lang::mir::PlaceElem;
    use flowistry_slicer::Slicer;

    fn roundtrip_request(request: QueryRequest) {
        let line = encode_request(&request);
        assert!(!line.contains('\n'), "request must be one line: {line:?}");
        match decode_command(&line) {
            Ok(Command::Query {
                request: decoded,
                trace_id: None,
                deadline_ms: None,
            }) => assert_eq!(decoded, request, "from {line:?}"),
            other => panic!("{line:?} decoded to {other:?}"),
        }
    }

    #[test]
    fn every_request_variant_roundtrips() {
        roundtrip_request(QueryRequest::Summary(FuncId(0)));
        roundtrip_request(QueryRequest::Results(FuncId(42)));
        roundtrip_request(QueryRequest::BackwardSlice {
            func: FuncId(1),
            var: "v".to_string(),
        });
        // Nasty variable names survive: spaces, delimiters, unicode, empty.
        for var in ["a b", "x&y=z|w", "héllo", "", "%", "100%"] {
            roundtrip_request(QueryRequest::BackwardSlice {
                func: FuncId(1),
                var: var.to_string(),
            });
        }
        roundtrip_request(QueryRequest::BackwardSliceAt {
            func: FuncId(3),
            place: Place {
                local: Local(1),
                projection: vec![PlaceElem::Deref, PlaceElem::Field(0), PlaceElem::Field(12)],
            },
            loc: Location {
                block: BasicBlock(7),
                statement_index: 2,
            },
        });
        roundtrip_request(QueryRequest::CheckPolicy(Policy::default()));
        // Every policy field populated, every built-in lattice, and a
        // custom chain whose level names need escaping.
        for lattice in [
            LatticeSpec::TwoPoint,
            LatticeSpec::MultiLevel,
            LatticeSpec::ConfIntegrity,
            LatticeSpec::Linear(vec![
                "lo w".to_string(),
                String::new(),
                "hïgh|er".to_string(),
            ]),
        ] {
            roundtrip_request(QueryRequest::CheckPolicy(
                Policy::default()
                    .with_lattice(lattice)
                    .with_default_label("Low")
                    .with_fn_label("read password", "Top Secret")
                    .with_param_label("login", "secret_key", "High")
                    .with_local_label("main", "pin code", "High")
                    .with_sink("print", "Med")
                    .with_declassify("main", "hash&salt"),
            ));
        }
        roundtrip_request(QueryRequest::Lint(FuncId(0)));
        roundtrip_request(QueryRequest::Lint(FuncId(42)));
        roundtrip_request(QueryRequest::Stats);
    }

    #[test]
    fn update_and_shutdown_lines_roundtrip() {
        assert_eq!(
            decode_command(&encode_update(1234)),
            Ok(Command::Update {
                bytes: 1234,
                epoch: None
            })
        );
        assert_eq!(decode_command(SHUTDOWN_LINE), Ok(Command::Shutdown));
        assert_eq!(decode_update_ack(&encode_update_ack(7)), Ok(7));
    }

    #[test]
    fn auth_lines_roundtrip_with_hostile_tokens() {
        for token in ["hunter2", "a b=c|d", "héllo", "", "100%"] {
            assert_eq!(
                decode_command(&encode_auth(token)),
                Ok(Command::Auth {
                    token: token.to_string(),
                }),
                "token {token:?}"
            );
        }
        assert_eq!(encode_auth(""), "auth %");
        assert!(decode_command("auth").is_err(), "auth needs a token field");
        assert!(decode_command("auth a b").is_err());
        assert!(decode_command("auth %ZZ").is_err());
    }

    #[test]
    fn malformed_request_lines_are_rejected_not_panicked() {
        for line in [
            "",
            "   ",
            "bogus",
            "summary",
            "summary xyz",
            "summary 1 2",
            "results -3",
            "slice 1",
            "slice-at 1 notaplace 0 0",
            "slice-at 1 2 0 x",
            "slice-at 1 2.z 0 0",
            "ifc a b c",
            "ifc - - bad_pair -",
            "ifc x y z w",
            "policy",
            "policy two_point - - - - -",
            "policy bogus_lattice - - - - - -",
            "policy two_point - lone_name - - - -",
            "policy two_point - - only:two - - -",
            "policy two_point - - - - f:L extra_field -",
            "policy two_point %ZZ - - - - -",
            "update",
            "update lots",
            "stats 1",
            "slice 0 %ZZ",
            "lint",
            "lint xyz",
            "lint 1 2",
            "lint -3",
        ] {
            assert!(decode_command(line).is_err(), "{line:?} must be rejected");
        }
        // The retired `ifc` verb is unknown, not a wrong-arity known verb.
        assert_eq!(
            decode_command("ifc x y z w").err().as_deref(),
            Some("unknown request \"ifc\"")
        );
    }

    fn roundtrip_envelope(envelope: QueryEnvelope) {
        let line = encode_envelope(&envelope);
        assert!(!line.contains('\n'), "response must be one line: {line:?}");
        let decoded = decode_envelope(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(decoded, envelope, "roundtrip changed {line:?}");
    }

    /// Round-trips every envelope variant, with payloads produced by real
    /// analyses so the hard cases (nested thetas, projections, IFC
    /// violations with spaces in their source descriptions) are covered.
    #[test]
    fn every_envelope_variant_roundtrips() {
        let program = flowistry_lang::compile(
            "fn read_password(seed: i32) -> i32 { return seed + 1; }
             fn insecure_print(x: i32) -> i32 { return x; }
             fn set_first(p: &mut (i32, i32), v: i32) { (*p).0 = v; }
             fn main(v: i32) -> i32 {
                 let password = read_password(v);
                 let mut pair = (0, 0);
                 set_first(&mut pair, password);
                 return insecure_print(pair.0);
             }",
        )
        .unwrap();
        let params = AnalysisParams::for_condition(Condition::WHOLE_PROGRAM);
        let main = program.func_id("main").unwrap();
        let set_first = program.func_id("set_first").unwrap();
        let results = analyze(&program, main, &params);

        roundtrip_envelope(QueryEnvelope {
            epoch: 0,
            trace_id: None,
            response: QueryResponse::Summary(None),
        });
        for func in [main, set_first] {
            let r = analyze(&program, func, &params);
            roundtrip_envelope(QueryEnvelope {
                epoch: 3,
                trace_id: None,
                response: QueryResponse::Summary(Some(FunctionSummary::from_results(
                    program.body(func),
                    &r,
                ))),
            });
            roundtrip_envelope(QueryEnvelope {
                epoch: 9,
                trace_id: None,
                response: QueryResponse::Results(Arc::new(r)),
            });
        }
        roundtrip_envelope(QueryEnvelope {
            epoch: 1,
            trace_id: None,
            response: QueryResponse::BackwardSlice(None),
        });
        let slice = Slicer::new(&program, main, params.clone())
            .backward_slice_of_var("password")
            .expect("password is a variable of main");
        assert!(!slice.locations.is_empty());
        roundtrip_envelope(QueryEnvelope {
            epoch: 2,
            trace_id: None,
            response: QueryResponse::BackwardSlice(Some(slice)),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 0,
            trace_id: None,
            response: QueryResponse::BackwardSliceAt(BTreeSet::new()),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 0,
            trace_id: None,
            response: QueryResponse::BackwardSliceAt(results.backward_slice(
                &Place::return_place(),
                Location {
                    block: BasicBlock(0),
                    statement_index: 0,
                },
            )),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 8,
            trace_id: None,
            response: QueryResponse::Stats(ServiceStats {
                epoch: 8,
                queue_depth: 3,
                workers: 8,
                served: 12345,
                updates_applied: 17,
                updates_failed: 1,
                run: RunStats {
                    analyzed: 9,
                    cache_hits: 21,
                    levels: 4,
                    threads: 8,
                    steals: 33,
                },
            }),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 5,
            trace_id: None,
            response: QueryResponse::Error("place local _999 out of range".to_string()),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 5,
            trace_id: None,
            response: QueryResponse::Error(String::new()),
        });
    }

    /// `policy` envelopes round-trip bit-exactly with payloads from a real
    /// [`PolicyChecker`] run, so structured diagnostics — labels, sources
    /// with spaces and backticks, multi-step witness spans — all survive
    /// the wire.
    #[test]
    fn policy_envelopes_roundtrip_with_real_diagnostics() {
        let program = flowistry_lang::compile(
            "fn fetch_token(seed: i32) -> i32 { return seed + 1; }
             fn audit_log(x: i32) -> i32 { return x; }
             fn main(v: i32) -> i32 {
                 let token = fetch_token(v);
                 let copied = token + 0;
                 return audit_log(copied);
             }",
        )
        .unwrap();
        let policy = Policy::default()
            .with_lattice(LatticeSpec::MultiLevel)
            .with_fn_label("fetch_token", "High")
            .with_sink("audit_log", "Low");
        let checker = PolicyChecker::new(&program, policy).unwrap();
        let diagnostics: Vec<IfcDiagnostic> = checker
            .check_program()
            .into_iter()
            .flat_map(|r| r.diagnostics)
            .collect();
        let diag = diagnostics
            .first()
            .expect("fixture must produce a violation");
        assert!(
            diag.witness.len() >= 2,
            "fixture witness must span multiple steps: {diag:?}"
        );
        roundtrip_envelope(QueryEnvelope {
            epoch: 6,
            trace_id: None,
            response: QueryResponse::CheckPolicy(diagnostics),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 0,
            trace_id: Some("policy-probe".to_string()),
            response: QueryResponse::CheckPolicy(Vec::new()),
        });
        // Hand-built worst case: every escapable field exercised at once.
        roundtrip_envelope(QueryEnvelope {
            epoch: 1,
            trace_id: None,
            response: QueryResponse::CheckPolicy(vec![IfcDiagnostic {
                in_function: "fn with space".to_string(),
                sink: String::new(),
                location: Location {
                    block: BasicBlock(3),
                    statement_index: 14,
                },
                line: 1,
                incoming_label: "Secret_Untrusted".to_string(),
                clearance: "a|b,c".to_string(),
                sources: vec!["call to `x`".to_string(), "100%".to_string()],
                witness: vec![
                    WitnessStep {
                        location: Location {
                            block: BasicBlock(0),
                            statement_index: 0,
                        },
                        line: 2,
                    },
                    WitnessStep {
                        location: Location {
                            block: BasicBlock(3),
                            statement_index: 14,
                        },
                        line: 9,
                    },
                ],
            }]),
        });
    }

    /// `lint` envelopes round-trip bit-exactly with payloads from a real
    /// [`Linter`] run — messages with spaces and backticks, multi-step
    /// witnesses — plus a hand-built worst case per pass.
    #[test]
    fn lint_envelopes_roundtrip_with_real_findings() {
        use flowistry_lint::Linter;

        let program = flowistry_lang::compile(
            "fn crop(img: &mut i32, ignored: &mut i32) -> i32 {
                 let dead = 1;
                 *img = 5;
                 return *img;
             }",
        )
        .unwrap();
        let params = AnalysisParams::default();
        let func = program.func_id("crop").unwrap();
        let results = analyze(&program, func, &params);
        let summary = FunctionSummary::from_results(program.body(func), &results);
        let linter = Linter::new(&program);
        let findings = linter.lint_function(func, &summary, &results);
        assert!(
            findings.len() >= 2,
            "fixture must produce findings: {findings:?}"
        );
        roundtrip_envelope(QueryEnvelope {
            epoch: 7,
            trace_id: None,
            response: QueryResponse::Lint(findings),
        });
        roundtrip_envelope(QueryEnvelope {
            epoch: 0,
            trace_id: Some("lint-probe".to_string()),
            response: QueryResponse::Lint(Vec::new()),
        });
        // Every pass name survives, with hostile message content.
        let hostile: Vec<LintFinding> = LintPass::ALL
            .into_iter()
            .map(|pass| LintFinding {
                pass,
                function: "fn with space".to_string(),
                message: "value of `x` = 100%|unused,maybe".to_string(),
                line: 3,
                witness: vec![WitnessStep {
                    location: Location {
                        block: BasicBlock(1),
                        statement_index: 4,
                    },
                    line: 2,
                }],
            })
            .collect();
        roundtrip_envelope(QueryEnvelope {
            epoch: 2,
            trace_id: None,
            response: QueryResponse::Lint(hostile),
        });
    }

    #[test]
    fn malformed_response_lines_are_rejected() {
        for line in [
            "",
            "summary",
            "summary x -",
            "summary 0 nonsense",
            "results 0 1 2",
            "slice 0 a b",
            "slice-at 0 0.z",
            "ifc 0 f:x:y^",
            "policy 0 too,few,fields",
            "policy 0 f,s,0.0,1,H,L,-,stepless",
            "policy 0 f,s,0.0,1,H,L,-,0.z:3",
            "policy 0 f,s,0.0,nine,H,L,-,-",
            "stats 0 1 2 3",
            "wat 0 -",
            "lint 0 too,few",
            "lint 0 no-such-pass,f,m,3,-",
            "lint 0 dead-store,f,m,nine,-",
            "lint 0 dead-store,f,m,3,stepless",
        ] {
            assert!(decode_envelope(line).is_err(), "{line:?} must be rejected");
        }
    }

    /// A real `results` line whose states share rows: the line every
    /// hostile-input test below corrupts one field of.
    fn sample_results_line() -> String {
        let program = flowistry_lang::compile(
            "fn f(x: i32, c: bool) -> i32 {
                 let mut a = x;
                 let mut b = 0;
                 if c { a = a + 1; } else { b = x; }
                 return a + b;
             }",
        )
        .unwrap();
        let func = program.func_id("f").unwrap();
        encode_envelope(&QueryEnvelope {
            epoch: 4,
            trace_id: None,
            response: QueryResponse::Results(Arc::new(analyze(
                &program,
                func,
                &AnalysisParams::default(),
            ))),
        })
    }

    // Payload field positions of a `results` line, after tag and epoch.
    const PLACES: usize = 3;
    const DEPS: usize = 4;
    const ROWS: usize = 5;
    const ENTRY: usize = 6;
    const AFTER: usize = 7;
    const EXIT: usize = 8;

    fn field(line: &str, index: usize) -> &str {
        line.split(' ').nth(index + 2).expect("results field")
    }

    /// `line` with payload field `index` replaced by `value`.
    fn with_field(line: &str, index: usize, value: &str) -> String {
        let mut fields: Vec<&str> = line.split(' ').collect();
        fields[index + 2] = value;
        fields.join(" ")
    }

    fn list_len(field: &str) -> usize {
        field.split(',').count()
    }

    fn rejected(line: &str, why: &str) {
        match decode_envelope(line) {
            Err(e) => assert!(e.contains(why), "{line:?}: error {e:?} lacks {why:?}"),
            Ok(envelope) => panic!("{line:?} decoded to {envelope:?}"),
        }
    }

    #[test]
    fn sample_results_line_decodes_and_shares_rows() {
        let line = sample_results_line();
        assert!(decode_envelope(&line).is_ok(), "{line:?}");
        assert!(list_len(field(&line, ROWS)) >= 2, "{line:?}");
        assert!(field(&line, AFTER).contains('|'), "{line:?}");
    }

    #[test]
    fn results_with_out_of_range_place_ids_are_rejected() {
        let line = sample_results_line();
        let places = list_len(field(&line, PLACES));
        rejected(&with_field(&line, EXIT, &places.to_string()), "place id");
        rejected(
            &with_field(&line, EXIT, &format!("0,{places}:0")),
            "place id",
        );
        rejected(&with_field(&line, PLACES, "-"), "place id");
        rejected(&with_field(&line, EXIT, "4294967296"), "bad place id");
    }

    #[test]
    fn results_with_out_of_range_dependency_ids_are_rejected() {
        let line = sample_results_line();
        let deps = list_len(field(&line, DEPS));
        let rows = field(&line, ROWS);
        let (first, rest) = rows.split_once(',').unwrap();
        let beyond = format!("{first}+{deps},{rest}");
        rejected(&with_field(&line, ROWS, &beyond), "dependency id");
        let far = format!("{first}+4000000000,{rest}");
        rejected(&with_field(&line, ROWS, &far), "dependency id");
        rejected(&with_field(&line, DEPS, "-"), "dependency id");
        // Bits out of order (or repeated) are not a canonical row either.
        let backwards = format!("{first}+0,{rest}");
        rejected(&with_field(&line, ROWS, &backwards), "strictly increasing");
    }

    #[test]
    fn results_with_out_of_range_row_ids_are_rejected() {
        let line = sample_results_line();
        let rows = list_len(field(&line, ROWS));
        rejected(&with_field(&line, EXIT, &format!("0:{rows}")), "row id");
        rejected(&with_field(&line, ROWS, "-"), "row id");
    }

    #[test]
    fn results_using_a_row_before_it_is_defined_are_rejected() {
        let line = sample_results_line();
        let rows = list_len(field(&line, ROWS));
        // The first state may only introduce row 0.
        let entry = field(&line, ENTRY);
        let (_, later_blocks) = entry.split_once('|').unwrap();
        let early = format!("0:{}|{later_blocks}", rows - 1);
        rejected(
            &with_field(&line, ENTRY, &early),
            "used before it is defined",
        );
        // A row no state uses is not part of the answer.
        let unused = format!("{},0", field(&line, ROWS));
        rejected(&with_field(&line, ROWS, &unused), "states use");
    }

    #[test]
    fn results_with_truncated_or_extra_fields_are_rejected() {
        let line = sample_results_line();
        let (head, _) = line.rsplit_once(' ').unwrap();
        rejected(head, "want 9");
        rejected(&format!("{line} ~"), "want 9");
        // One entry state short of the after-state blocks, and one over.
        let entry = field(&line, ENTRY);
        let (fewer, _) = entry.rsplit_once('|').unwrap();
        rejected(&with_field(&line, ENTRY, fewer), "entry states for");
        rejected(
            &with_field(&line, ENTRY, &format!("{entry}|~")),
            "entry states for",
        );
        // Empty list items and dangling separators.
        rejected(&with_field(&line, EXIT, "0:0,"), "bad place id");
        rejected(&with_field(&line, EXIT, "0:"), "bad row id");
        let after = field(&line, AFTER);
        rejected(
            &with_field(&line, AFTER, &format!("{after}^")),
            "entry states for",
        );
        rejected(
            &with_field(&line, AFTER, &format!("{after}|")),
            "bad place id",
        );
        // A removal is only meaningful in a delta.
        rejected(&with_field(&line, EXIT, "!0"), "bad place id");
    }

    /// A delta can also drop a place. The analysis only ever adds keys
    /// within a block, but states assembled through `IndexedStates::new`
    /// may drop them, and those round-trip too.
    #[test]
    fn results_whose_states_drop_places_roundtrip() {
        let row = Arc::new([0].into_iter().collect::<BitSet>());
        let state = |entries: &[(u32, bool)]| {
            IndexedTheta::from_entries(
                entries
                    .iter()
                    .map(|&(place, has_row)| (place, has_row.then(|| row.clone()))),
            )
        };
        let entry = state(&[(0, true), (1, false)]);
        let mut deltas = Deltas::default();
        deltas.push_block_of_states(&entry, &[state(&[(1, true)]), state(&[])]);
        let states = IndexedStates::new(
            vec![Place::from_local(Local(0)), Place::from_local(Local(1))],
            vec![flowistry_core::Dep::Arg(Local(1))],
            vec![entry],
            deltas,
            state(&[]),
        )
        .unwrap();
        let envelope = QueryEnvelope {
            epoch: 1,
            trace_id: None,
            response: QueryResponse::Results(Arc::new(InfoFlowResults::from_indexed_states(
                FuncId(2),
                states,
                true,
                3,
            ))),
        };
        let line = encode_envelope(&envelope);
        assert_eq!(field(&line, AFTER), "1:0,!0|!1", "{line:?}");
        roundtrip_envelope(envelope);
    }

    /// A delta names each place at most once, and only a place whose
    /// presence or row changes. Anything else spells the same states a
    /// second way, so the decoder rejects it instead of storing it.
    #[test]
    fn results_with_non_canonical_deltas_are_rejected() {
        let line = sample_results_line();
        let blocks: Vec<&str> = field(&line, AFTER).split('^').collect();
        let steps: Vec<&str> = blocks[0].split('|').collect();
        // `line` with `entry` appended to block 0's first delta.
        let extend = |entry: &str| {
            let first = format!("{},{entry}", steps[0]);
            let mut block = steps.clone();
            block[0] = &first;
            let block = block.join("|");
            let mut after = blocks.clone();
            after[0] = &block;
            with_field(&line, AFTER, &after.join("^"))
        };
        let place_of = |entry: &str| {
            let place = entry.split(':').next().unwrap();
            place.trim_start_matches('!').parse::<usize>().unwrap()
        };
        let touched: Vec<usize> = steps[0].split(',').map(place_of).collect();
        // The first statement assigns a place; setting it again repeats it.
        let set = touched[0];
        rejected(
            &extend(&format!("{set}:0")),
            &format!("place {set} repeats"),
        );
        rejected(&extend(&format!("!{set}")), &format!("place {set} repeats"));
        // Restating an entry-state row the first statement leaves alone.
        let entry: Vec<&str> = field(&line, ENTRY)
            .split('|')
            .next()
            .unwrap()
            .split(',')
            .collect();
        let kept = entry
            .iter()
            .find(|e| !touched.contains(&place_of(e)))
            .expect("the first statement leaves an argument place alone");
        rejected(&extend(kept), "does not change");
        // Removing a place that is not there.
        let absent = (0..list_len(field(&line, PLACES)))
            .find(|p| !touched.contains(p) && !entry.iter().any(|e| place_of(e) == *p))
            .expect("block 0 starts without some place");
        rejected(&extend(&format!("!{absent}")), "does not change");
    }

    /// No byte-level corruption of a `results` line panics the decoder:
    /// every prefix, and every single-byte substitution from the payload's
    /// own alphabet, decodes or is rejected.
    #[test]
    fn corrupted_results_lines_never_panic() {
        let line = sample_results_line();
        for cut in 0..line.len() {
            let _ = decode_envelope(&line[..cut]);
        }
        let mut bytes = line.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for &b in b"09,:|^!~-+.*a i" {
                bytes[i] = b;
                let _ = decode_envelope(std::str::from_utf8(&bytes).unwrap());
            }
            bytes[i] = original;
        }
    }

    /// No `results` payload token contains `=`, so trailing attributes on
    /// a `results` envelope — known or not — strip off cleanly.
    #[test]
    fn results_envelopes_carry_trace_ids_past_unknown_attributes() {
        let line = sample_results_line();
        assert!(!line.contains('='), "{line:?}");
        let expected = decode_envelope(&line).unwrap();
        let traced = QueryEnvelope {
            trace_id: Some("req 7=x".to_string()),
            ..expected
        };
        let traced_line = encode_envelope(&traced);
        assert_eq!(decode_envelope(&traced_line), Ok(traced.clone()));
        assert_eq!(
            decode_envelope(&format!("{traced_line} xfuture=1")),
            Ok(traced)
        );
    }

    /// Backward compat: lines exactly as an old peer would write them —
    /// no trailing attributes — decode to `trace_id: None`, and encoding
    /// an untraced message reproduces the old line byte-for-byte.
    #[test]
    fn untraced_lines_decode_and_encode_exactly_as_before() {
        assert_eq!(
            decode_command("summary 7"),
            Ok(Command::Query {
                request: QueryRequest::Summary(FuncId(7)),
                trace_id: None,
                deadline_ms: None,
            })
        );
        assert_eq!(
            encode_request(&QueryRequest::Summary(FuncId(7))),
            "summary 7"
        );
        assert_eq!(
            encode_request_with(&QueryRequest::Summary(FuncId(7)), None, None),
            "summary 7",
        );
        let envelope = decode_envelope("slice 3 -").unwrap();
        assert_eq!(envelope.trace_id, None);
        assert_eq!(encode_envelope(&envelope), "slice 3 -");
    }

    /// Forward compat: unknown trailing `key=value` attributes are
    /// stripped and ignored on every line shape, including `update` and
    /// `shutdown`.
    #[test]
    fn unknown_trailing_attributes_are_tolerated() {
        assert_eq!(
            decode_command("summary 7 xfuture=1 zz9=abc"),
            Ok(Command::Query {
                request: QueryRequest::Summary(FuncId(7)),
                trace_id: None,
                deadline_ms: None,
            })
        );
        assert_eq!(
            decode_command("stats tid=abc xfuture=%"),
            Ok(Command::Query {
                request: QueryRequest::Stats,
                trace_id: Some("abc".to_string()),
                deadline_ms: None,
            })
        );
        assert_eq!(
            decode_command("update 99 xfuture=5s"),
            Ok(Command::Update {
                bytes: 99,
                epoch: None
            })
        );
        assert_eq!(
            decode_command("shutdown reason=test"),
            Ok(Command::Shutdown)
        );
        let envelope = decode_envelope("summary 4 - xnew=1 tid=req%2D1").unwrap();
        assert_eq!(envelope.trace_id.as_deref(), Some("req-1"));
        // A token that merely *contains* '=' but whose prefix is not a
        // valid attribute key (here: starts with a digit) stays payload.
        assert_eq!(
            decode_command("slice 1 2=x"),
            Ok(Command::Query {
                request: QueryRequest::BackwardSlice {
                    func: FuncId(1),
                    var: "2=x".to_string(),
                },
                trace_id: None,
                deadline_ms: None,
            })
        );
    }

    /// The `deadline=<ms>` request attribute and the `epoch=<n>` update
    /// attribute round-trip, compose with `tid=`, and reject malformed
    /// values instead of silently dropping a live budget.
    #[test]
    fn deadline_and_epoch_attributes_roundtrip() {
        assert_eq!(
            decode_command(&encode_request_with(
                &QueryRequest::Summary(FuncId(7)),
                Some("req-1"),
                Some(250),
            )),
            Ok(Command::Query {
                request: QueryRequest::Summary(FuncId(7)),
                trace_id: Some("req-1".to_string()),
                deadline_ms: Some(250),
            })
        );
        // Without a deadline the line carries the trace id alone.
        assert_eq!(
            encode_request_with(&QueryRequest::Stats, Some("req-1"), None),
            "stats tid=req%2D1",
        );
        assert_eq!(
            decode_command(&encode_update_at(99, Some(12))),
            Ok(Command::Update {
                bytes: 99,
                epoch: Some(12)
            })
        );
        assert_eq!(encode_update_at(42, None), encode_update(42));
        // A malformed value on a *known* numeric attribute is an error —
        // treating `deadline=abc` as "no deadline" would turn a client's
        // explicit budget into an unbounded wait.
        assert!(decode_command("summary 7 deadline=abc").is_err());
        assert!(decode_command("update 99 epoch=-3").is_err());
    }

    /// Trace ids round-trip through requests and envelopes, including ids
    /// that need `%XX` escaping and the empty id (a lone `%`).
    #[test]
    fn trace_ids_roundtrip_on_requests_and_envelopes() {
        for tid in ["client-3", "a b=c|d", "héllo", ""] {
            let line = encode_request_with(&QueryRequest::Stats, Some(tid), None);
            assert_eq!(
                decode_command(&line),
                Ok(Command::Query {
                    request: QueryRequest::Stats,
                    trace_id: Some(tid.to_string()),
                    deadline_ms: None,
                }),
                "from {line:?}"
            );
            roundtrip_envelope(QueryEnvelope {
                epoch: 11,
                trace_id: Some(tid.to_string()),
                response: QueryResponse::Summary(None),
            });
        }
        assert_eq!(
            encode_request_with(&QueryRequest::Stats, Some(""), None),
            "stats tid=%",
        );
    }

    /// The `metrics` command and its multi-line Prometheus payload
    /// round-trip bit-exactly through the `%XX` escaping.
    #[test]
    fn metrics_command_and_payload_roundtrip_bit_exactly() {
        assert_eq!(
            decode_command("metrics"),
            Ok(Command::Query {
                request: QueryRequest::Metrics,
                trace_id: None,
                deadline_ms: None,
            })
        );
        assert_eq!(encode_request(&QueryRequest::Metrics), "metrics");
        // Real exposition-format text: newlines, braces, quotes, +Inf, and
        // a deliberately hostile help string.
        let text = "# HELP flow_service_requests_total Queries served 100% = yes\n\
                    # TYPE flow_service_requests_total counter\n\
                    flow_service_requests_total{kind=\"slice\"} 42\n\
                    flow_service_request_seconds_bucket{kind=\"slice\",le=\"+Inf\"} 42\n";
        roundtrip_envelope(QueryEnvelope {
            epoch: 2,
            trace_id: Some("scrape-1".to_string()),
            response: QueryResponse::Metrics(text.to_string()),
        });
        let line = encode_envelope(&QueryEnvelope {
            epoch: 2,
            trace_id: None,
            response: QueryResponse::Metrics(text.to_string()),
        });
        assert!(!line.contains('\n'), "metrics payload must stay one line");
        match decode_envelope(&line).unwrap().response {
            QueryResponse::Metrics(decoded) => assert_eq!(decoded, text),
            other => panic!("expected metrics, got {other:?}"),
        }
    }
}
