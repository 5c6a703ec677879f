//! Lint engine tests: the real repository must pass every check, and
//! fixture trees with planted violations must fail the right one.
//!
//! Since PR 7 the passes run on the `ivl-syn` token stream, so the
//! fixtures also pin the *negative* space: orderings in comments,
//! strings and `#[cfg(test)]` modules must NOT produce findings (or
//! satisfy audit rows), and stale `lint:allow` annotations must.

use ivl_analyzer::run_lints;
use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root")
}

/// A scratch repository tree under the target directory; removed on
/// drop so reruns start clean.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("fixture root");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("dirs");
        fs::write(path, content).expect("write fixture file");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const CLEAN_LIB: &str = "//! Fixture crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n";

#[test]
fn real_repository_lints_clean() {
    let report = run_lints(&repo_root());
    assert!(report.files_scanned > 20, "{}", report.files_scanned);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn missing_forbid_unsafe_is_flagged() {
    let fx = Fixture::new("lint_fx_attrs");
    fx.write("crates/good/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/bad/src/lib.rs",
        "//! No forbid attr.\npub fn f() {}\n",
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "crate-attrs");
    assert_eq!(f.file, "crates/bad/src/lib.rs");
}

#[test]
fn forbid_in_a_comment_does_not_satisfy_crate_attrs() {
    let fx = Fixture::new("lint_fx_attrs_comment");
    fx.write(
        "crates/bad/src/lib.rs",
        "//! Mentions #![forbid(unsafe_code)] in prose only.\npub fn f() {}\n",
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    assert_eq!(report.findings[0].check, "crate-attrs");
}

#[test]
fn conformance_catches_every_planted_violation_class() {
    let fx = Fixture::new("lint_fx_conformance");
    fx.write("crates/concurrent/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/concurrent/src/a.rs",
        concat!(
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
            "pub fn upd(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
            "pub fn weak(c: &AtomicU64) { c.store(1, Ordering::Relaxed); }\n",
            "pub fn newsite(c: &AtomicU64) { c.load(Ordering::Acquire); }\n",
            "pub fn indirect() { let _o = Ordering::SeqCst; }\n",
        ),
    );
    // upd is audited correctly; weak's row still claims Release
    // (ordering drift); newsite has no row; plus one stale row, one
    // row whose shape its discipline forbids, one cas-loop row in a
    // non-exempt file, and one row with no justification.
    fx.write(
        "crates/concurrent/ORDERINGS.md",
        concat!(
            "| file | fn | receiver | method | orderings | discipline | justification |\n",
            "| --- | --- | --- | --- | --- | --- | --- |\n",
            "| a.rs | upd | `c` | fetch_add | Relaxed | pcm-cell | commutative cell |\n",
            "| a.rs | weak | `c` | store | Release | swmr-slot | writer publish |\n",
            "| a.rs | ghost | `g` | load | Acquire | swmr-slot | access was removed |\n",
            "| a.rs | bad | `b` | store | Release | pcm-cell | mis-tagged shape |\n",
            "| a.rs | casf | `x` | compare_exchange | AcqRel, Acquire | cas-loop | wrong file |\n",
            "| a.rs | nojust | `n` | load | Acquire | swmr-slot |  |\n",
        ),
    );
    let report = run_lints(&fx.root);
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.check == "atomics-conformance"),
        "{}",
        report.render()
    );
    let has = |needle: &str| report.findings.iter().any(|f| f.message.contains(needle));
    assert!(has("ordering drift"), "{}", report.render());
    assert!(has("unaudited atomic access site"), "{}", report.render());
    assert!(
        has("outside a recognized atomic access site"),
        "{}",
        report.render()
    );
    assert!(has("stale site row"), "{}", report.render());
    assert!(has("not a legal `pcm-cell` shape"), "{}", report.render());
    assert!(has("not an exempt file"), "{}", report.render());
    assert!(has("no justification"), "{}", report.render());
    // The drifted site anchors to its line in the code.
    assert!(report
        .findings
        .iter()
        .any(|f| f.file.ends_with("a.rs") && f.line == 3 && f.message.contains("drift")));
}

#[test]
fn orderings_in_comments_strings_and_tests_need_no_rows() {
    let fx = Fixture::new("lint_fx_invisible");
    fx.write("crates/concurrent/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/concurrent/src/quiet.rs",
        concat!(
            "//! Doc prose mentioning Ordering::Relaxed and x.load(Ordering::Acquire).\n",
            "/* block comment: c.fetch_add(1, Ordering::Relaxed) */\n",
            "pub fn f() -> &'static str { \"Ordering::SeqCst\" }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::sync::atomic::{AtomicU64, Ordering};\n",
            "    #[test]\n",
            "    fn t() { AtomicU64::new(0).load(Ordering::SeqCst); }\n",
            "}\n",
        ),
    );
    // No audit table at all: with no real sites, none is needed —
    // this is exactly the regex era's false-positive class.
    let report = run_lints(&fx.root);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn non_literal_ordering_is_flagged() {
    let fx = Fixture::new("lint_fx_nonliteral");
    fx.write("crates/concurrent/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/concurrent/src/c.rs",
        concat!(
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
            "pub fn f(c: &AtomicU64, o: Ordering) {\n",
            "    let _ = c.compare_exchange(0, 1, Ordering::AcqRel, o);\n",
            "}\n",
        ),
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "atomics-conformance");
    assert_eq!(f.line, 3);
    assert!(f.message.contains("must be literal"), "{}", f.message);
}

#[test]
fn cas_in_pcm_update_path_is_flagged() {
    let fx = Fixture::new("lint_fx_rmw");
    fx.write("crates/concurrent/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/concurrent/src/pcm.rs",
        concat!(
            "pub fn upd(c: &std::sync::atomic::AtomicU64) {\n",
            "    let _ = c.compare_exchange(0, 1, O, O);\n",
            "}\n",
            "// compare_exchange in a comment is NOT a hazard\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(c: &A) { let _ = c.compare_exchange(0, 1, O, O); }\n",
            "}\n",
        ),
    );
    // CAS in the exempt Morris module is fine.
    fx.write(
        "crates/concurrent/src/morris_conc.rs",
        "pub fn m(c: &A) { let _ = c.compare_exchange(0, 1, O, O); }\n",
    );
    let report = run_lints(&fx.root);
    let hazards: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.check == "rmw-hazard")
        .collect();
    assert_eq!(hazards.len(), 1, "{}", report.render());
    assert!(hazards[0].file.ends_with("pcm.rs"));
    assert_eq!(hazards[0].line, 2);
}

#[test]
fn hot_path_sleep_is_flagged_and_markers_or_tests_are_exempt() {
    let fx = Fixture::new("lint_fx_sleep");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/server.rs",
        concat!(
            "pub fn serve() {\n",
            "    std::thread::sleep(d); // hot path: flagged\n",
            "    // lint:allow sleep — deliberate backoff\n",
            "    std::thread::sleep(d); // annotated: allowed\n",
            "}\n",
            "// \"thread::sleep\" in a string or comment is not a sleep\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { std::thread::sleep(d); } // test code: allowed\n",
            "}\n",
        ),
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "no-sleep");
    assert_eq!(f.line, 2);
}

#[test]
fn stale_allow_annotation_is_flagged() {
    let fx = Fixture::new("lint_fx_stale_allow");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/server.rs",
        concat!(
            "pub fn serve() {\n",
            "    // lint:allow sleep — the backoff this excused is long gone\n",
            "    do_work();\n",
            "}\n",
        ),
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "stale-allow");
    assert_eq!(f.line, 2);
    assert!(f.message.contains("delete it"), "{}", f.message);
}

#[test]
fn duplicate_frame_tags_are_flagged() {
    let fx = Fixture::new("lint_fx_tags");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/protocol.rs",
        concat!(
            "const OP_UPDATE: u8 = 0x01;\n",
            "const OP_QUERY: u8 = 0x02;\n",
            "const OP_CLASH: u8 = 0x01;\n",
            "pub const NOT_A_TAG: u32 = 1;\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn roundtrip() { let _ = (OP_UPDATE, OP_QUERY, OP_CLASH); }\n",
            "}\n",
        ),
    );
    // Both bytes documented, so frame-docs stays quiet and the
    // collision is the only finding.
    fx.write(
        "README.md",
        "| frame | opcode |\n|---|---|\n| `UPDATE` | `0x01` |\n| `QUERY` | `0x02` |\n",
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "frame-tags");
    assert_eq!(f.line, 3);
    assert!(f.message.contains("OP_UPDATE"));
}

#[test]
fn undocumented_opcode_is_flagged() {
    let fx = Fixture::new("lint_fx_frame_docs");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/protocol.rs",
        concat!(
            "const OP_UPDATE: u8 = 0x01;\n",
            "const OP_NEW: u8 = 0x15;\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn roundtrip() { let _ = (OP_UPDATE, OP_NEW); }\n",
            "}\n",
        ),
    );
    fx.write(
        "README.md",
        "prose mentioning 0x15 outside a table does not count\n| `UPDATE` | `0x01` | body | reply |\n",
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "frame-docs");
    assert_eq!(f.line, 2);
    assert!(f.message.contains("OP_NEW"), "{}", f.message);
    assert!(f.message.contains("0x15"), "{}", f.message);
    assert!(f.message.contains("README"), "{}", f.message);
}

#[test]
fn untested_opcode_is_flagged() {
    // Documented in the README but never referenced from the file's
    // test module: the frame-docs check's round-trip leg fires. A
    // mention in non-test code (the decoder) does not count.
    let fx = Fixture::new("lint_fx_frame_tests");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/protocol.rs",
        concat!(
            "const OP_UPDATE: u8 = 0x01;\n",
            "const OP_NEW: u8 = 0x15;\n",
            "fn decode(op: u8) -> bool { op == OP_NEW }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn roundtrip() { let _ = OP_UPDATE; }\n",
            "}\n",
        ),
    );
    fx.write(
        "README.md",
        "| `UPDATE` | `0x01` | body | reply |\n| `NEW` | `0x15` | body | reply |\n",
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "frame-docs");
    assert_eq!(f.line, 2);
    assert!(f.message.contains("OP_NEW"), "{}", f.message);
    assert!(f.message.contains("round-trip test"), "{}", f.message);
}

#[test]
fn documented_frame_without_an_opcode_is_flagged() {
    // A frame-table row (second cell a lone `0xNN`) whose request or
    // reply byte no `OP_*` constant carries: the frame was deleted but
    // stayed documented. Bytes in other tables and in prose are free.
    let fx = Fixture::new("lint_fx_frame_stale");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/protocol.rs",
        concat!(
            "const OP_QUERY2: u8 = 0x12;\n",
            "const OP_ENVELOPE2: u8 = 0x83;\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn roundtrip() { let _ = (OP_QUERY2, OP_ENVELOPE2); }\n",
            "}\n",
        ),
    );
    fx.write(
        "README.md",
        concat!(
            "| frame | opcode | body | reply |\n",
            "|---|---|---|---|\n",
            "| `QUERY2` | `0x12` | `object u32, key u64` | `ENVELOPE2 0x83` |\n",
            "| `QUERY` | `0x02` | `key u64` | `ENVELOPE 0x82` |\n",
            "| tag | byte |\n",
            "| `ENV_MINIMUM` | 0x03 |\n",
            "prose naming 0x7f is not a table row\n",
        ),
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    for (f, byte) in report.findings.iter().zip(["0x02", "0x82"]) {
        assert_eq!(f.check, "frame-docs");
        assert_eq!((f.file.as_str(), f.line), ("README.md", 4));
        assert!(f.message.contains(byte), "{}", f.message);
        assert!(f.message.contains("no OP_* constant"), "{}", f.message);
    }
}

#[test]
fn unlisted_served_objects_are_flagged() {
    let fx = Fixture::new("lint_fx_served");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/objects.rs",
        concat!(
            "impl ServedObject for ServedListed {\n}\n",
            "impl ServedObject for ServedUnlisted {\n}\n",
        ),
    );
    // ServedListed has a row; ServedUnlisted does not; ServedGhost is
    // a stale row with no implementation left.
    fx.write(
        "crates/concurrent/ORDERINGS.md",
        concat!(
            "| served object | kind | recorded functional & verdict argument |\n",
            "| --- | --- | --- |\n",
            "| ServedListed | cm | records the estimate, monotone |\n",
            "| ServedGhost | hll | implementation was removed |\n",
        ),
    );
    let report = run_lints(&fx.root);
    let served: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.check == "served-objects")
        .collect();
    assert_eq!(served.len(), 2, "{}", report.render());
    assert!(served.iter().any(|f| f.file.ends_with("objects.rs")
        && f.line == 3
        && f.message.contains("no row for it")));
    assert!(served.iter().any(|f| f.file.ends_with("ORDERINGS.md")
        && f.message
            .contains("stale served-objects row for ServedGhost")));
}

#[test]
fn kind_without_compose_is_flagged() {
    let fx = Fixture::new("lint_fx_compose");
    fx.write(
        "crates/merge/src/lib.rs",
        concat!(
            "//! Fixture crate.\n",
            "#![forbid(unsafe_code)]\n",
            "pub enum ObjectKind {\n",
            "    /// Composed below.\n",
            "    CountMin,\n",
            "    Hll,\n",
            "    Morris,\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/merge/src/kinds/mod.rs",
        concat!(
            "macro_rules! for_kind {\n",
            "    ($kind:expr) => { match $kind {\n",
            "        $crate::ObjectKind::CountMin => { type K = $crate::kinds::CountMinKind; }\n",
            "        $crate::ObjectKind::Hll => { type K = $crate::kinds::HllKind; }\n",
            "        $crate::ObjectKind::Morris => { type K = $crate::kinds::MorrisKind; }\n",
            "    } };\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/merge/src/kinds/countmin.rs",
        "impl Kind for CountMinKind {\n    fn compose(acc: E, part: &E) -> E {\n        acc\n    }\n}\n",
    );
    // An impl without compose, and a kind (Morris) with no file at all.
    fx.write(
        "crates/merge/src/kinds/hll.rs",
        "impl Kind for HllKind {\n    fn merge(part: &S, target: &mut S) {}\n}\n",
    );
    let report = run_lints(&fx.root);
    let compose: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.check == "envelope-compose")
        .collect();
    assert_eq!(compose.len(), 2, "{}", report.render());
    assert!(compose.iter().any(|f| f.file.ends_with("kinds/hll.rs")
        && f.message
            .contains("`impl Kind for HllKind` defines no compose()")));
    assert!(compose.iter().any(|f| f.file.ends_with("merge/src/lib.rs")
        && f.line == 7
        && f.message.contains("`ObjectKind::Morris` has no kind file")));
}

#[test]
fn missing_kind_file_in_a_merge_crate_is_flagged() {
    let fx = Fixture::new("lint_fx_compose_missing");
    fx.write("crates/merge/src/lib.rs", CLEAN_LIB);
    // Where the enum used to live does not count.
    fx.write(
        "crates/service/src/objects.rs",
        "pub enum ObjectKind {\n    CountMin,\n}\n",
    );
    let report = run_lints(&fx.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    let f = &report.findings[0];
    assert_eq!(f.check, "envelope-compose");
    assert_eq!(f.file, "crates/merge/src/lib.rs");
    assert!(f.message.contains("declares no ObjectKind"));
    // A tree without a merge crate has nothing to check.
    let bare = Fixture::new("lint_fx_compose_bare");
    bare.write("crates/service/src/lib.rs", CLEAN_LIB);
    assert!(run_lints(&bare.root).is_clean());
}

#[test]
fn planted_baseline_import_in_a_serving_crate_is_flagged() {
    let fx = Fixture::new("lint_fx_baselines");
    fx.write("crates/service/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/service/src/objects.rs",
        concat!(
            "use ivl_concurrent::{BufferedPcm, ShardedPcm};\n",
            "// A Pcm in a comment or \"Pcm\" in a string is not an import.\n",
            "pub struct PcmLike;\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use ivl_concurrent::Pcm;\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/replica/src/lib.rs",
        "//! Fixture crate.\n#![forbid(unsafe_code)]\npub fn f(_: &ivl_concurrent::MutexCountMin) {}\n",
    );
    fx.write("crates/replica/src/core.rs", "pub fn decide() {}\n");
    // Outside the serving crates a baseline is fine.
    fx.write(
        "crates/bench/src/lib.rs",
        "//! Fixture crate.\n#![forbid(unsafe_code)]\nuse ivl_concurrent::Pcm;\n",
    );
    let report = run_lints(&fx.root);
    let found: Vec<(&str, usize)> = report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.check, "baselines-boundary", "{}", report.render());
            (f.file.as_str(), f.line)
        })
        .collect();
    assert_eq!(
        found,
        [
            ("crates/service/src/objects.rs", 1),
            ("crates/replica/src/lib.rs", 3)
        ],
        "{}",
        report.render()
    );
    assert!(report.findings[0].message.contains("`BufferedPcm`"));
}

#[test]
fn io_in_the_group_core_is_flagged() {
    let fx = Fixture::new("lint_fx_group_core");
    fx.write("crates/replica/src/lib.rs", CLEAN_LIB);
    fx.write(
        "crates/replica/src/core.rs",
        concat!(
            "use std::net::TcpStream;\n",
            "use std::time::Instant;\n",
            "pub fn plan(now: Instant) -> Instant { now }\n",
            "pub fn tick() -> Instant { Instant::now() }\n",
            "pub fn wait() { std::thread::yield_now() }\n",
            "pub fn dial(_: &ivl_service::Client) {}\n",
            "// A Client or std::net in a comment is not a use; nor is \"Instant::now\".\n",
            "pub fn refused(_: ivl_service::ClientError) {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn now() -> std::time::Instant { std::time::Instant::now() }\n",
            "}\n",
        ),
    );
    let report = run_lints(&fx.root);
    let found: Vec<usize> = report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.check, "group-core-io", "{}", report.render());
            assert_eq!(f.file, "crates/replica/src/core.rs");
            f.line
        })
        .collect();
    assert_eq!(found, [1, 4, 5, 6], "{}", report.render());

    // A replica crate without a core is a finding too.
    let bare = Fixture::new("lint_fx_group_core_missing");
    bare.write("crates/replica/src/lib.rs", CLEAN_LIB);
    let report = run_lints(&bare.root);
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    assert_eq!(report.findings[0].check, "group-core-io");
    assert_eq!(report.findings[0].line, 0);
}

#[test]
fn json_report_shape_is_stable() {
    let fx = Fixture::new("lint_fx_json");
    fx.write("crates/x/src/lib.rs", "pub fn f() {}\n");
    let report = run_lints(&fx.root);
    let json = report.to_json();
    assert!(json.contains("\"clean\":false"));
    assert!(json.contains("\"check\":\"crate-attrs\""));
    // The full checks roster, in execution order — the README schema
    // and the human renderer both key off this list.
    assert!(
        json.contains(concat!(
            "\"checks\":[\"crate-attrs\",\"atomics-conformance\",\"rmw-hazard\",",
            "\"no-sleep\",\"stale-allow\",\"frame-tags\",\"frame-docs\",",
            "\"served-objects\",\"envelope-compose\",\"baselines-boundary\",",
            "\"group-core-io\"]"
        )),
        "{json}"
    );
}
