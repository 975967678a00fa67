//! The linter's own acceptance test: the workspace must be clean.
//!
//! This ties the determinism/panic-safety invariants into tier-1: any PR
//! that introduces a HashMap into the simulator, an unwrap into policy
//! code, or a bare `fs::write` anywhere fails `cargo test` before it
//! even reaches CI's dedicated lint job.

use std::path::{Path, PathBuf};

use soe_lint::baseline::Baseline;
use soe_lint::diag::{render_text, summarize, Waiver};
use soe_lint::engine::analyze_workspace_filtered;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

fn load_baseline(root: &Path) -> Baseline {
    let path = root.join("lint-baseline.txt");
    match std::fs::read_to_string(&path) {
        Ok(text) => Baseline::parse(&text).expect("baseline parses"),
        Err(_) => Baseline::default(),
    }
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let baseline = load_baseline(&root);
    let analysis =
        analyze_workspace_filtered(&root, &baseline, None).expect("workspace scan succeeds");
    assert!(
        analysis.files > 50,
        "scan looks truncated: only {} files",
        analysis.files
    );
    if analysis.has_errors() {
        let summary = summarize(&analysis.findings, analysis.files);
        panic!(
            "soe-lint found errors:\n{}",
            render_text(&analysis.findings, summary, false)
        );
    }
}

#[test]
fn every_suppression_in_the_tree_is_justified() {
    // An allow comment with no reason after the rule list defeats the
    // point of suppressions-as-documentation. Enforce the
    // `allow(rule): reason` shape over the real tree.
    let root = workspace_root();
    let files = soe_lint::engine::workspace_files(&root).expect("walk");
    let mut unjustified = Vec::new();
    for path in files {
        let content = std::fs::read_to_string(&path).expect("read source");
        for (i, line) in content.lines().enumerate() {
            let Some(idx) = line.find("soe-lint: allow(") else {
                continue;
            };
            // Only actual suppression comments: nothing but whitespace
            // and comment punctuation before the marker. Doc prose and
            // string fixtures that merely mention the syntax don't
            // suppress anything and are skipped.
            if !line[..idx]
                .chars()
                .all(|c| c.is_whitespace() || matches!(c, '/' | '!' | '*'))
            {
                continue;
            }
            let rest = &line[idx..];
            // Reason = a colon after the closing paren, followed by
            // non-empty text.
            let ok = rest
                .find(')')
                .map(|close| {
                    let tail = rest[close + 1..].trim_start();
                    tail.starts_with(':') && !tail[1..].trim().is_empty()
                })
                .unwrap_or(false);
            if !ok {
                unjustified.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        unjustified.is_empty(),
        "suppressions without a `: reason` tail:\n  {}",
        unjustified.join("\n  ")
    );
}

#[test]
fn every_hot_path_root_and_sink_resolves() {
    // The workspace passes are anchored on named symbols. If a refactor
    // renames `Machine::step` or `Journal::append`, the passes would
    // silently analyze nothing — so resolution failures must fail tier-1,
    // not just surface as a config-error finding in CI.
    let root = workspace_root();
    let ws = soe_lint::engine::build_workspace(&root).expect("workspace builds");
    let mut unresolved = Vec::new();
    for name in soe_lint::HOT_PATH_ROOTS {
        if ws.lookup(name).is_empty() {
            unresolved.push(format!("hot-path root `{name}`"));
        }
    }
    for name in soe_lint::SERIALIZATION_SINKS {
        if ws.lookup(name).is_empty() {
            unresolved.push(format!("serialization sink `{name}`"));
        }
    }
    for name in soe_lint::SCHEMA_ENUMS {
        if ws.enums_named(name).is_empty() {
            unresolved.push(format!("schema enum `{name}`"));
        }
    }
    assert!(
        unresolved.is_empty(),
        "pass anchors no longer resolve (update crates/lint/src/passes.rs):\n  {}",
        unresolved.join("\n  ")
    );
}

#[test]
fn detached_packages_are_the_standalone_cargo_packages() {
    // The call graph cuts edges into DETACHED_PACKAGES; the list must
    // name exactly the top-level directories whose Cargo.toml opens a
    // workspace of its own.
    let root = workspace_root();
    let mut standalone: Vec<String> = std::fs::read_dir(&root)
        .expect("read workspace root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|toml| toml.lines().any(|l| l.trim() == "[workspace]"))
        })
        .filter_map(|dir| dir.file_name()?.to_str().map(str::to_string))
        .collect();
    standalone.sort();
    let mut listed: Vec<&str> = soe_lint::workspace::DETACHED_PACKAGES.to_vec();
    listed.sort_unstable();
    assert_eq!(standalone, listed);
}

#[test]
fn call_graph_covers_the_simulator_hot_path() {
    // A second guard against silent decay: the roots must actually reach
    // a healthy slice of the workspace. An empty reachable set would mean
    // the call-graph edges rotted even though the names still resolve.
    let root = workspace_root();
    let ws = soe_lint::engine::build_workspace(&root).expect("workspace builds");
    let mut reachable = 0usize;
    let mut seen = vec![false; ws.fns.len()];
    let mut stack: Vec<usize> = soe_lint::HOT_PATH_ROOTS
        .iter()
        .flat_map(|n| ws.lookup(n))
        .collect();
    while let Some(f) = stack.pop() {
        if std::mem::replace(&mut seen[f], true) {
            continue;
        }
        reachable += 1;
        stack.extend(ws.callees[f].iter().map(|e| e.to));
    }
    assert!(
        reachable > 100,
        "only {reachable} functions reachable from the hot-path roots; \
         the call graph looks disconnected"
    );
}

#[test]
fn baseline_if_present_has_no_stale_entries() {
    let root = workspace_root();
    let baseline = load_baseline(&root);
    let analysis =
        analyze_workspace_filtered(&root, &baseline, None).expect("workspace scan succeeds");
    assert!(
        analysis.stale_baseline.is_empty(),
        "stale baseline entries (regenerate with --update-baseline): {:?}",
        analysis.stale_baseline
    );
    // The repo's goal state: nothing grandfathered at all.
    let baselined = analysis
        .findings
        .iter()
        .filter(|f| f.waiver == Waiver::Baselined)
        .count();
    assert_eq!(baselined, 0, "no findings should need the baseline");
}
