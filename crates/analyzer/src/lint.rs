//! `ivl_lint`: a hand-rolled, dependency-free repository lint.
//!
//! Since PR 7 the engine parses the code, not the text: every pass
//! that inspects Rust sources runs over the [`crate::syn`] token
//! stream, so comments, string literals and the trailing
//! `#[cfg(test)]` module can never trip (or hide) a finding.
//!
//! Eleven checks, each encoding an invariant of this repository that
//! the compiler cannot express:
//!
//! 1. **crate-attrs** — every workspace crate's `src/lib.rs` carries
//!    `#![forbid(unsafe_code)]`. The reproduction's claim to model
//!    fidelity rests on there being no backdoor around the memory
//!    model.
//! 2. **atomics-conformance** — the site-level ordering audit (see
//!    [`crate::atomics`]): every atomic access site in
//!    `crates/concurrent` (enclosing `fn`, receiver, method, literal
//!    `Ordering::` arguments) must match a row of the "Atomic access
//!    sites" table in `crates/concurrent/ORDERINGS.md`, each row
//!    tagged with a discipline (`pcm-cell`, `swmr-slot`,
//!    `lease-flag`, `cas-loop`, `monotone-merge`, `id-alloc`) whose
//!    shape rules the row must satisfy. Weakening one ordering at one
//!    site is a finding even when the weaker ordering is legal
//!    elsewhere — `ivl_lint --mutate` proves this has teeth.
//! 3. **rmw-hazard** — the PCM sketch-cell update paths must not use
//!    compare-and-swap style RMWs (`compare_exchange`,
//!    `compare_exchange_weak`, `fetch_update`, `compare_and_swap`).
//!    The paper's counters are built from reads, writes and
//!    `fetch_add` only; a CAS loop in an update path silently changes
//!    the progress guarantee the theorems assume. (`morris_conc.rs` /
//!    `min_register.rs` use CAS-style RMWs by design and are exempt.)
//! 4. **no-sleep** — no `thread::sleep` in non-test server/client
//!    code. Sleeping in a hot path hides backpressure bugs that the
//!    IVL error envelopes would otherwise surface. A deliberate sleep
//!    is annotated `// lint:allow sleep — <reason>` on the same or
//!    preceding line.
//! 5. **stale-allow** — a `lint:allow sleep` annotation with no
//!    `thread::sleep` on its own or the following line is a finding:
//!    dead allows silently widen the exemption surface.
//! 6. **frame-tags** — the wire-protocol tag bytes in
//!    `crates/service/src/protocol.rs` and in the state, delta and
//!    envelope codecs of `crates/merge/src` are pairwise distinct
//!    within each namespace (the constant's name prefix: `OP_*` frame
//!    opcodes, `DELTA_*` change tags, ...). Kind tags are `ObjectKind`
//!    discriminants, which the compiler keeps distinct.
//! 7. **frame-docs** — every `OP_*` opcode constant appears (by its
//!    byte, e.g. `0x15`) in the README's frame table, and (by its
//!    name) in `protocol.rs` test code — the round-trip suite — so
//!    adding an opcode without documenting *and* testing it fails the
//!    lint. The other direction holds too: every byte a frame-table
//!    row names must be some `OP_*` constant's, so a deleted frame
//!    cannot stay documented.
//! 8. **served-objects** — every `impl ServedObject for <Type>` in
//!    `crates/service` has a row in the "Served objects" table of
//!    `crates/concurrent/ORDERINGS.md` naming the concurrent
//!    structure it serves and arguing why its recorded projection is
//!    checkable.
//! 9. **envelope-compose** — every `ObjectKind` variant declared in
//!    `crates/merge/src` has a kind file: the kind dispatch names a
//!    type whose `impl Kind` sits in a file under
//!    `crates/merge/src/kinds/` and defines `compose`, so replicated
//!    merges of every kind stay boundable. A missing kind file, or a
//!    merge crate declaring no `ObjectKind`, is itself a finding:
//!    moving the enum must move the check, never switch it off.
//! 10. **baselines-boundary** — non-test sources of `crates/service`,
//!     `crates/replica` and `crates/merge` name none of
//!     `ivl-concurrent`'s reproduction objects and baselines (`Pcm`,
//!     `BufferedPcm`, `DelegatedCountMin`, `MutexCountMin`,
//!     `SnapshotCountMin`): the serving stack has one CountMin write
//!     path (`ShardedPcm`), and the paper's alternatives stay
//!     reproduction artifacts rather than live options.
//! 11. **group-core-io** — the non-test code of
//!     `crates/replica/src/core.rs`, the replica group's decisions,
//!     names none of `std::net`, `std::thread`, `Instant::now` or
//!     `Client`: sockets, sleeps and the clock belong to `ReplicaGroup`, so
//!     the core can be run from a schedule given as data. A replica
//!     crate without a `core.rs` is itself a finding.
//!
//! The engine is parameterized by the repository root so the test
//! suite (and the mutation harness) can point it at fixture trees
//! with planted violations.

use crate::json_escape;
use crate::syn::{ScannedFile, TokKind, Token};
use std::fs;
use std::path::{Path, PathBuf};

/// The checks, in execution order.
pub const CHECKS: [&str; 11] = [
    "crate-attrs",
    "atomics-conformance",
    "rmw-hazard",
    "no-sleep",
    "stale-allow",
    "frame-tags",
    "frame-docs",
    "served-objects",
    "envelope-compose",
    "baselines-boundary",
    "group-core-io",
];

/// Files whose update paths must stay free of CAS-style RMWs. The
/// buffered path's flush (`buffered.rs` draining into `arena.rs`
/// cells) is deliberately in scope: batching may defer visibility but
/// must never smuggle in a CAS loop.
pub const RMW_HAZARD_FILES: [&str; 7] = [
    "pcm.rs",
    "sharded.rs",
    "buffered.rs",
    "arena.rs",
    "batch.rs",
    "delegation.rs",
    "locked.rs",
];

/// CAS-style RMW method names flagged by the rmw-hazard check.
const RMW_PATTERNS: [&str; 4] = [
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
    "compare_and_swap",
];

/// Crates whose non-test sources must not sleep.
const NO_SLEEP_CRATES: [&str; 5] = ["service", "bench", "counter", "core", "replica"];

/// Crates whose non-test sources must not name a baseline.
const BOUNDARY_CRATES: [&str; 3] = ["service", "replica", "merge"];

/// `ivl-concurrent`'s reproduction objects and baselines.
const BASELINES: [&str; 5] = [
    "Pcm",
    "BufferedPcm",
    "DelegatedCountMin",
    "MutexCountMin",
    "SnapshotCountMin",
];

/// What the replica group's core must not name, as token sequences:
/// sockets, threads, the clock and the blocking client are `ReplicaGroup`'s.
const CORE_IO: [&[&str]; 4] = [
    &["std", ":", ":", "net"],
    &["std", ":", ":", "thread"],
    &["Instant", ":", ":", "now"],
    &["Client"],
];

/// One lint violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LintFinding {
    /// Which check fired.
    pub check: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl LintFinding {
    /// `check file:line message` single-line rendering.
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("[{}] {}: {}", self.check, self.file, self.message)
        } else {
            format!(
                "[{}] {}:{}: {}",
                self.check, self.file, self.line, self.message
            )
        }
    }
}

/// Outcome of a lint run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    /// All violations found, in check order.
    pub findings: Vec<LintFinding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the repository passed every check.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ivl_lint: {} file(s) scanned, {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        );
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        if self.is_clean() {
            out.push_str("all checks passed\n");
        }
        out
    }

    /// JSON rendering (see README "JSON report schemas").
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "{{\"check\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                    f.check,
                    json_escape(&f.file),
                    f.line,
                    json_escape(&f.message)
                )
            })
            .collect();
        let checks: Vec<String> = CHECKS.iter().map(|c| format!("\"{c}\"")).collect();
        format!(
            "{{\"clean\":{},\"files_scanned\":{},\"checks\":[{}],\"findings\":[{}]}}",
            self.is_clean(),
            self.files_scanned,
            checks.join(","),
            findings.join(",")
        )
    }
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Collects `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Whether the code-token subsequence starting at code-position `ci`
/// spells out `want` exactly.
fn code_seq_at(file: &ScannedFile<'_>, ci: usize, want: &[&str]) -> bool {
    want.len() <= file.code.len() - ci
        && want
            .iter()
            .enumerate()
            .all(|(k, w)| file.code_tok(ci + k).text == *w)
}

fn check_crate_attrs(root: &Path, report: &mut LintReport) {
    const FORBID: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return;
    };
    let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs.into_iter().filter(|d| d.is_dir()) {
        let lib = dir.join("src").join("lib.rs");
        let Ok(text) = fs::read_to_string(&lib) else {
            continue;
        };
        report.files_scanned += 1;
        let file = ScannedFile::new(&text);
        let found = (0..file.code.len()).any(|ci| code_seq_at(&file, ci, &FORBID));
        if !found {
            report.findings.push(LintFinding {
                check: "crate-attrs",
                file: rel(root, &lib),
                line: 0,
                message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
}

pub(crate) fn check_rmw_hazard(root: &Path, report: &mut LintReport) {
    let src = root.join("crates").join("concurrent").join("src");
    for name in RMW_HAZARD_FILES {
        let path = src.join(name);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        let file = ScannedFile::new(&text);
        for ci in 1..file.code.len() {
            let t = file.code_tok(ci);
            if t.kind != TokKind::Ident || !RMW_PATTERNS.contains(&t.text) {
                continue;
            }
            if !file.code_tok(ci - 1).is_punct('.') || file.in_test(ci) {
                continue;
            }
            report.findings.push(LintFinding {
                check: "rmw-hazard",
                file: rel(root, &path),
                line: t.line as usize,
                message: format!(
                    "`{}` in a PCM update path: sketch cells take only load/store/fetch_add (model §2.1); move CAS logic to an exempt module or redesign",
                    t.text
                ),
            });
        }
    }
}

/// `thread::sleep` call lines (token pattern `thread` `::` `sleep`) in
/// non-test code, and `lint:allow sleep` comment lines in non-test
/// code, for one source file.
fn sleep_sites(file: &ScannedFile<'_>) -> (Vec<u32>, Vec<u32>) {
    let mut sleeps = Vec::new();
    for ci in 0..file.code.len().saturating_sub(3) {
        if file.code_tok(ci).is_ident("thread")
            && file.code_tok(ci + 1).is_punct(':')
            && file.code_tok(ci + 2).is_punct(':')
            && file.code_tok(ci + 3).is_ident("sleep")
            && !file.in_test(ci)
        {
            sleeps.push(file.code_tok(ci + 3).line);
        }
    }
    let allows: Vec<u32> = file
        .tokens
        .iter()
        .filter(|t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.text.contains("lint:allow sleep")
                && t.line < file.test_start_line
        })
        .map(|t: &Token<'_>| t.line)
        .collect();
    (sleeps, allows)
}

fn check_no_sleep(root: &Path, report: &mut LintReport) {
    for krate in NO_SLEEP_CRATES {
        let src = root.join("crates").join(krate).join("src");
        for path in rust_files(&src) {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            report.files_scanned += 1;
            let file = ScannedFile::new(&text);
            let (sleeps, allows) = sleep_sites(&file);
            for line in &sleeps {
                let allowed = allows.iter().any(|a| *a == *line || *a + 1 == *line);
                if !allowed {
                    report.findings.push(LintFinding {
                        check: "no-sleep",
                        file: rel(root, &path),
                        line: *line as usize,
                        message: "thread::sleep in a non-test hot path; use real backpressure, or annotate `// lint:allow sleep — <reason>`".to_string(),
                    });
                }
            }
            for a in &allows {
                let live = sleeps.iter().any(|l| *l == *a || *l == *a + 1);
                if !live {
                    report.findings.push(LintFinding {
                        check: "stale-allow",
                        file: rel(root, &path),
                        line: *a as usize,
                        message: "`lint:allow sleep` with no thread::sleep on this or the next line; dead allows widen the exemption surface — delete it".to_string(),
                    });
                }
            }
        }
    }
}

/// `const NAME: u8 = VALUE;` declarations (token-level), as
/// `(name, value, line)`.
fn parse_u8_consts(file: &ScannedFile<'_>) -> Vec<(String, u8, u32)> {
    let mut out = Vec::new();
    for ci in 0..file.code.len() {
        if !file.code_tok(ci).is_ident("const") || file.code.len() - ci < 6 {
            continue;
        }
        let name_t = file.code_tok(ci + 1);
        if name_t.kind != TokKind::Ident
            || !file.code_tok(ci + 2).is_punct(':')
            || !file.code_tok(ci + 3).is_ident("u8")
            || !file.code_tok(ci + 4).is_punct('=')
        {
            continue;
        }
        let value_t = file.code_tok(ci + 5);
        if value_t.kind != TokKind::Number {
            continue;
        }
        let digits = value_t.text.replace('_', "");
        let value = if let Some(hex) = digits
            .strip_prefix("0x")
            .or_else(|| digits.strip_prefix("0X"))
        {
            u8::from_str_radix(hex, 16).ok()
        } else {
            digits.parse::<u8>().ok()
        };
        if let Some(value) = value {
            out.push((name_t.text.to_string(), value, name_t.line));
        }
    }
    out
}

fn check_frame_tags(root: &Path, report: &mut LintReport) {
    let crates = root.join("crates");
    for path in [
        crates.join("service").join("src").join("protocol.rs"),
        crates.join("merge").join("src").join("lib.rs"),
    ] {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        let file = ScannedFile::new(&text);
        // A tag byte must be unique within its namespace — the
        // constant's name prefix up to the first `_`. `OP_*` bytes
        // share the frame opcode position; `DELTA_*` bytes tag changes
        // inside a delta body and may reuse the same small integers
        // without ambiguity.
        let mut seen: Vec<(String, String, u8, u32)> = Vec::new();
        for (name, value, line) in parse_u8_consts(&file) {
            let namespace = name.split('_').next().unwrap_or(&name).to_string();
            if let Some((_, other, _, other_line)) = seen
                .iter()
                .find(|(ns, _, v, _)| *ns == namespace && *v == value)
            {
                report.findings.push(LintFinding {
                    check: "frame-tags",
                    file: rel(root, &path),
                    line: line as usize,
                    message: format!(
                        "frame tag {name} = {value:#04x} collides with {other} (line {other_line}); every wire opcode must be unique"
                    ),
                });
            }
            seen.push((namespace, name, value, line));
        }
    }
}

/// Cross-checks the `OP_*` opcode constants three ways: every opcode
/// byte must appear (as `0xNN`) in a README table line (a README line
/// starting with `|`); every opcode constant must be referenced by
/// name from `protocol.rs` test code — the round-trip suite — so a new
/// frame can land neither undocumented nor untested; and every byte in
/// a frame-table row (a table line whose second cell is a lone
/// `` `0xNN` `` opcode) must be some opcode constant's, so a deleted
/// frame cannot stay documented.
fn check_frame_docs(root: &Path, report: &mut LintReport) {
    let path = root
        .join("crates")
        .join("service")
        .join("src")
        .join("protocol.rs");
    let Ok(text) = fs::read_to_string(&path) else {
        return;
    };
    let readme_path = root.join("README.md");
    let readme = fs::read_to_string(&readme_path).unwrap_or_default();
    let file = ScannedFile::new(&text);
    let ops: Vec<(String, u8, u32)> = parse_u8_consts(&file)
        .into_iter()
        .filter(|(name, _, _)| name.starts_with("OP_"))
        .collect();
    if ops.is_empty() {
        return;
    }
    report.files_scanned += 1;
    // Bytes documented in README table rows.
    let mut documented: Vec<u8> = Vec::new();
    for (idx, line) in readme.lines().enumerate() {
        let line = line.trim_start();
        if !line.starts_with('|') {
            continue;
        }
        let bytes = hex_bytes(line);
        documented.extend(&bytes);
        let opcode_cell = line.split('|').nth(2).map(str::trim);
        let frame_row = opcode_cell
            .is_some_and(|cell| cell.len() == 6 && cell.starts_with("`0x") && cell.ends_with('`'));
        if !frame_row {
            continue;
        }
        for byte in bytes {
            if !ops.iter().any(|(_, value, _)| *value == byte) {
                report.findings.push(LintFinding {
                    check: "frame-docs",
                    file: rel(root, &readme_path),
                    line: idx + 1,
                    message: format!(
                        "the README frame table names byte {byte:#04x}, which no OP_* constant in protocol.rs carries; delete the row or reply (a removed frame must not stay documented)"
                    ),
                });
            }
        }
    }
    // Opcode names referenced from the file's `#[cfg(test)]` module —
    // the protocol round-trip suite.
    let tested: Vec<&str> = (0..file.code.len())
        .filter(|&ci| file.in_test(ci))
        .map(|ci| file.code_tok(ci).text)
        .filter(|t| t.starts_with("OP_"))
        .collect();
    for (name, value, line) in &ops {
        if !documented.contains(value) {
            report.findings.push(LintFinding {
                check: "frame-docs",
                file: rel(root, &path),
                line: *line as usize,
                message: format!(
                    "opcode {name} = {value:#04x} is not documented in the README frame table; add a row (every wire frame is part of the public protocol)"
                ),
            });
        }
        if !tested.iter().any(|t| t == name) {
            report.findings.push(LintFinding {
                check: "frame-docs",
                file: rel(root, &path),
                line: *line as usize,
                message: format!(
                    "opcode {name} = {value:#04x} is never referenced from protocol.rs test code; cover it in a round-trip test (every wire frame must encode/decode under test)"
                ),
            });
        }
    }
}

/// Every `0xNN` byte (one or two hex digits) written in `line`.
fn hex_bytes(line: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("0x") {
        let hex: String = rest[at + 2..]
            .chars()
            .take_while(|c| c.is_ascii_hexdigit())
            .collect();
        if let Ok(v) = u8::from_str_radix(&hex, 16) {
            if hex.len() <= 2 {
                bytes.push(v);
            }
        }
        rest = &rest[at + 2..];
    }
    bytes
}

/// Parses "Served objects" rows from `ORDERINGS.md`:
/// `| TypeName | kind | argument |` — distinguished from the atomic
/// site rows by the first cell being a bare CamelCase type name
/// rather than a `.rs` file name.
fn parse_served_table(text: &str) -> Vec<(String, String)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim())
            .collect();
        if cells.len() < 3 {
            continue;
        }
        let name = cells[0];
        let is_type_name = name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && name.chars().all(|c| c.is_alphanumeric() || c == '_');
        if !is_type_name {
            continue;
        }
        rows.push((name.to_string(), cells[2].to_string()));
    }
    rows
}

fn check_served_objects(root: &Path, report: &mut LintReport) {
    let src = root.join("crates").join("service").join("src");
    let audit_path = root.join("crates").join("concurrent").join("ORDERINGS.md");
    // Every `impl ServedObject for <Type>` in the service crate,
    // found on the token stream (a doc example cannot trip it).
    let mut impls: Vec<(String, PathBuf, u32)> = Vec::new();
    for path in rust_files(&src) {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        report.files_scanned += 1;
        let file = ScannedFile::new(&text);
        for ci in 0..file.code.len().saturating_sub(3) {
            if file.code_tok(ci).is_ident("impl")
                && file.code_tok(ci + 1).is_ident("ServedObject")
                && file.code_tok(ci + 2).is_ident("for")
                && file.code_tok(ci + 3).kind == TokKind::Ident
            {
                let t = file.code_tok(ci + 3);
                impls.push((t.text.to_string(), path.clone(), t.line));
            }
        }
    }
    if impls.is_empty() {
        return;
    }
    let audit = fs::read_to_string(&audit_path).unwrap_or_default();
    let rows = parse_served_table(&audit);
    let audit_rel = rel(root, &audit_path);
    for (name, path, line) in &impls {
        match rows.iter().find(|(t, _)| t == name) {
            None => report.findings.push(LintFinding {
                check: "served-objects",
                file: rel(root, path),
                line: *line as usize,
                message: format!(
                    "`{name}` implements ServedObject but the {audit_rel} \"Served objects\" table has no row for it; add `| {name} | <kind> | <recorded functional & verdict argument> |`"
                ),
            }),
            Some((_, arg)) if arg.is_empty() => report.findings.push(LintFinding {
                check: "served-objects",
                file: rel(root, path),
                line: *line as usize,
                message: format!(
                    "served-objects row for {name} in {audit_rel} has an empty verdict argument"
                ),
            }),
            Some(_) => {}
        }
    }
    for (t, _) in &rows {
        if !impls.iter().any(|(n, _, _)| n == t) {
            report.findings.push(LintFinding {
                check: "served-objects",
                file: audit_rel.clone(),
                line: 0,
                message: format!(
                    "stale served-objects row for {t}: no `impl ServedObject for {t}` left in crates/service"
                ),
            });
        }
    }
}

/// The variant names of `pub enum {name}` and their 1-based declaration
/// lines, parsed from a source text (empty when it declares no such
/// enum).
fn enum_variants(text: &str, name: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut in_enum = false;
    let mut depth = 0usize;
    let header = format!("pub enum {name} ");
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if !in_enum {
            if t.starts_with(&header) {
                in_enum = true;
                depth = 0;
            }
            continue;
        }
        // Only top-level lines of the enum body declare variants;
        // struct-variant fields sit one brace deeper.
        if depth == 0 {
            if t == "}" {
                break;
            }
            if !t.starts_with("///") && !t.starts_with("#[") {
                let name: String = t
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    variants.push((name, i + 1));
                }
            }
        }
        depth += t.matches('{').count();
        depth = depth.saturating_sub(t.matches('}').count());
    }
    variants
}

/// The `Kind` impl the dispatch names for `ObjectKind::{variant}`: the
/// type after `kinds::` in the arm that follows `ObjectKind::{variant} =>`.
fn dispatched_kind(text: &str, variant: &str) -> Option<String> {
    let arm = format!("ObjectKind::{variant} =>");
    let at = text.find(&arm)? + arm.len();
    let rest = &text[at..];
    let body = &rest[..rest.find("=>").unwrap_or(rest.len())];
    let ty = &body[body.find("kinds::")? + "kinds::".len()..];
    Some(
        ty.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect(),
    )
}

/// Every `ObjectKind` variant declared in `crates/merge/src` must name,
/// in the kind dispatch, a `Kind` impl in a file under
/// `crates/merge/src/kinds/` whose body defines `compose`.
fn check_envelope_compose(root: &Path, report: &mut LintReport) {
    let src = root.join("crates").join("merge").join("src");
    if !src.join("lib.rs").exists() {
        // No merge crate, no kind algebra to check.
        return;
    }
    let texts: Vec<(PathBuf, String)> = rust_files(&src)
        .into_iter()
        .filter_map(|p| fs::read_to_string(&p).ok().map(|t| (p, t)))
        .collect();
    report.files_scanned += texts.len();
    let finding = |path: &Path, line: usize, message: String| LintFinding {
        check: "envelope-compose",
        file: rel(root, path),
        line,
        message,
    };
    // Moving the enum moves the check; it never switches it off.
    let Some((enum_path, variants)) = texts.iter().find_map(|(p, t)| {
        let v = enum_variants(t, "ObjectKind");
        (!v.is_empty()).then_some((p, v))
    }) else {
        report.findings.push(finding(
            &src.join("lib.rs"),
            0,
            "crates/merge declares no ObjectKind: the served kinds, and the compose() \
             each one's Kind impl must define, cannot be checked"
                .to_string(),
        ));
        return;
    };
    let kinds_dir = src.join("kinds");
    for (name, line) in variants {
        let ty = texts.iter().find_map(|(_, t)| dispatched_kind(t, &name));
        let imp = ty.as_ref().and_then(|ty| {
            let header = format!("impl Kind for {ty} ");
            texts
                .iter()
                .filter(|(p, _)| p.starts_with(&kinds_dir))
                .find_map(|(p, t)| {
                    let at = t.find(&header)?;
                    let body = &t[at + header.len()..];
                    let body = &body[..body.find("\nimpl ").unwrap_or(body.len())];
                    Some((p, body.contains("fn compose(")))
                })
        });
        let message = match (&ty, imp) {
            (_, Some((_, true))) => continue,
            (Some(ty), Some((p, false))) => {
                report.findings.push(finding(
                    p,
                    0,
                    format!(
                        "`impl Kind for {ty}` defines no compose(); every kind needs a \
                         composition rule (and its soundness note) or replicated merges \
                         of `ObjectKind::{name}` cannot be bounded"
                    ),
                ));
                continue;
            }
            _ => format!(
                "`ObjectKind::{name}` has no kind file: no file under crates/merge/src/kinds \
                 holds the `impl Kind` its dispatch names, so its replicated merges have \
                 no composition rule"
            ),
        };
        report.findings.push(finding(enum_path, line, message));
    }
}

/// Flags every identifier token naming a baseline in the non-test code
/// of the serving crates (an import, a path segment, a type).
fn check_baselines_boundary(root: &Path, report: &mut LintReport) {
    for krate in BOUNDARY_CRATES {
        for path in rust_files(&root.join("crates").join(krate).join("src")) {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            report.files_scanned += 1;
            let file = ScannedFile::new(&text);
            for ci in 0..file.code.len() {
                let t = file.code_tok(ci);
                if t.kind == TokKind::Ident && BASELINES.contains(&t.text) && !file.in_test(ci) {
                    report.findings.push(LintFinding {
                        check: "baselines-boundary",
                        file: rel(root, &path),
                        line: t.line as usize,
                        message: format!(
                            "`{}` is a reproduction object / baseline of ivl-concurrent; crates/{krate} serves `ShardedPcm` and the lock-free objects only",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// Flags I/O named in the non-test code of the replica group's core,
/// and a replica crate with no core.
fn check_group_core_io(root: &Path, report: &mut LintReport) {
    let src = root.join("crates").join("replica").join("src");
    if !src.join("lib.rs").exists() {
        // No replica crate, no core to keep pure.
        return;
    }
    let path = src.join("core.rs");
    let finding = |line: usize, message: String| LintFinding {
        check: "group-core-io",
        file: rel(root, &path),
        line,
        message,
    };
    let Ok(text) = fs::read_to_string(&path) else {
        report.findings.push(finding(
            0,
            "crates/replica has no src/core.rs: the group's decisions must live in a core \
             that does no I/O, driven by the blocking group"
                .to_string(),
        ));
        return;
    };
    report.files_scanned += 1;
    let file = ScannedFile::new(&text);
    for ci in 0..file.code.len() {
        let Some(seq) = CORE_IO.iter().find(|seq| code_seq_at(&file, ci, seq)) else {
            continue;
        };
        if !file.in_test(ci) {
            report.findings.push(finding(
                file.code_tok(ci).line as usize,
                format!(
                    "`{}` in the group core: sockets, threads and the clock belong to \
                     ReplicaGroup; take time as an `Instant` argument and return the next round",
                    seq.concat()
                ),
            ));
        }
    }
}

/// Runs every check against the repository rooted at `root`.
pub fn run_lints(root: &Path) -> LintReport {
    let mut report = LintReport::default();
    check_crate_attrs(root, &mut report);
    crate::atomics::check_conformance(root, &mut report);
    check_rmw_hazard(root, &mut report);
    check_no_sleep(root, &mut report);
    check_frame_tags(root, &mut report);
    check_frame_docs(root, &mut report);
    check_served_objects(root, &mut report);
    check_envelope_compose(root, &mut report);
    check_baselines_boundary(root, &mut report);
    check_group_core_io(root, &mut report);
    report
}
