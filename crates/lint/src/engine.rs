//! Orchestration: walk the workspace, run every per-file rule and every
//! workspace pass, apply suppressions and the baseline, and return
//! findings in a deterministic order.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use crate::baseline::Baseline;
use crate::diag::{Finding, Waiver};
use crate::passes::all_passes;
use crate::rules::all_rules;
use crate::source::SourceFile;
use crate::suppress::{parse_suppressions, Suppression};
use crate::workspace::Workspace;

/// Directories never descended into, at any depth.
const SKIP_DIRS: &[&str] = &["target", "vendor", "results", ".git", ".github"];

/// Result of one full analysis pass.
#[derive(Debug)]
pub struct Analysis {
    /// All findings (including waived ones), sorted by (file, line,
    /// rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Stale baseline entries: (rule, file, unused count).
    pub stale_baseline: Vec<(String, String, usize)>,
    /// Baseline entries naming files that no longer exist: (rule,
    /// file). These are also stale (their allowance cannot be
    /// consumed), but deserve a sharper message: the file was deleted
    /// or moved and the baseline still grandfathers it.
    pub missing_baseline_files: Vec<(String, String)>,
}

impl Analysis {
    /// Whether the run should fail (any unwaived error-severity
    /// finding).
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(Finding::counts_as_error)
    }
}

/// Rules whose inline allow also waives a finding of `rule` at the same
/// site. A justified allow at a panic site documents why the panic
/// cannot fire — that justification is path-independent, so it also
/// covers `panic-reachability` reporting the same line. `wall-clock`
/// deliberately does NOT alias to `determinism-taint`: "this read is a
/// legitimate watchdog" does not argue the value stays out of
/// serialized bytes, so a taint flow needs its own allow.
fn rule_aliases(rule: &str) -> &'static [&'static str] {
    match rule {
        "panic-reachability" => &["panic-unwrap", "panic-macro", "slice-index"],
        "unordered-iteration" => &["unordered-collections"],
        _ => &[],
    }
}

/// Whether `sup` (one file's suppressions) waives a finding, directly
/// or through an alias.
fn suppressed(sup: &[Suppression], f: &Finding) -> bool {
    sup.iter().any(|s| {
        s.covers(f.rule, f.line) || rule_aliases(f.rule).iter().any(|id| s.covers(id, f.line))
    })
}

/// Lists every `.rs` file under `root` that the lint pass covers, as
/// workspace-relative `/`-separated paths, sorted (the walk order is
/// part of the tool's determinism contract).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.clone());
        }
    }
    Ok(())
}

/// Converts an absolute path under `root` to the workspace-relative
/// `/`-separated form used in findings, suppressible baselines and
/// diagnostics.
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Runs the full pass over the workspace at `root`, optionally
/// restricted to one rule or pass id (`--rule`).
pub fn analyze_workspace_filtered(
    root: &Path,
    baseline: &Baseline,
    only_rule: Option<&str>,
) -> std::io::Result<Analysis> {
    let paths = workspace_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = relative_path(root, path);
        let content = std::fs::read_to_string(path)?;
        files.push((rel, content));
    }
    let borrowed: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, c)| (p.as_str(), c.as_str()))
        .collect();
    Ok(analyze_files(&borrowed, baseline, only_rule))
}

/// Runs per-file rules *and* workspace passes over in-memory files —
/// the single analysis entry point, shared by the CLI (via
/// [`analyze_workspace_filtered`]) and fixture tests.
pub fn analyze_files(
    files: &[(&str, &str)],
    baseline: &Baseline,
    only_rule: Option<&str>,
) -> Analysis {
    let mut rules = all_rules();
    let mut passes = all_passes();
    if let Some(id) = only_rule {
        rules.retain(|r| r.id == id);
        passes.retain(|p| p.id == id);
    }
    let mut findings = Vec::new();
    let mut sources = Vec::with_capacity(files.len());
    let mut suppressions: BTreeMap<String, Vec<Suppression>> = BTreeMap::new();
    for (path, content) in files {
        let file = SourceFile::parse(path, content);
        let sup = parse_suppressions(&file.comments);
        for rule in &rules {
            for mut f in rule.check(&file) {
                if suppressed(&sup, &f) {
                    f.waiver = Waiver::Suppressed;
                }
                findings.push(f);
            }
        }
        suppressions.insert(file.path.clone(), sup);
        sources.push(file);
    }
    let ws = Workspace::build(sources);
    for pass in &passes {
        for mut f in pass.check(&ws) {
            if let Some(sup) = suppressions.get(&f.file) {
                if suppressed(sup, &f) {
                    f.waiver = Waiver::Suppressed;
                }
            }
            findings.push(f);
        }
    }
    // Deterministic order before the baseline consumes allowances, so
    // which findings get grandfathered is stable run-to-run.
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let stale_baseline = baseline.apply(&mut findings);
    let scanned: BTreeSet<&str> = files.iter().map(|(p, _)| *p).collect();
    let missing_baseline_files = baseline
        .entries()
        .filter(|(_, file, _)| !scanned.contains(file))
        .map(|(rule, file, _)| (rule.to_string(), file.to_string()))
        .collect();
    Analysis {
        findings,
        files: files.len(),
        stale_baseline,
        missing_baseline_files,
    }
}

/// Builds the workspace symbol table and call graph for `root`
/// (`--graph` debugging support).
pub fn build_workspace(root: &Path) -> std::io::Result<Workspace> {
    let paths = workspace_files(root)?;
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = relative_path(root, path);
        let content = std::fs::read_to_string(path)?;
        sources.push(SourceFile::parse(&rel, &content));
    }
    Ok(Workspace::build(sources))
}

/// Returns whether a rule or pass with id `id` exists (CLI validation).
pub fn rule_exists(id: &str) -> bool {
    all_rules().iter().any(|r| r.id == id) || crate::passes::pass_exists(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn analyze_source_applies_suppressions() {
        let src = "fn f() {\n\
                   // soe-lint: allow(panic-unwrap): invariant: always Some here\n\
                   x.unwrap();\n\
                   y.unwrap();\n\
                   }\n";
        let findings = analyze_files(
            &[("crates/sim/src/x.rs", src)],
            &Baseline::default(),
            Some("panic-unwrap"),
        )
        .findings;
        let unwraps: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "panic-unwrap")
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert_eq!(
            unwraps[0].waiver,
            Waiver::Suppressed,
            "covered by line above"
        );
        assert_eq!(unwraps[1].waiver, Waiver::None, "one allow covers one line");
    }

    #[test]
    fn suppression_does_not_cover_other_rules() {
        let src = "fn f() {\n\
                   // soe-lint: allow(slice-index): wrong rule\n\
                   x.unwrap();\n\
                   }\n";
        let findings = analyze_files(
            &[("crates/sim/src/x.rs", src)],
            &Baseline::default(),
            Some("panic-unwrap"),
        )
        .findings;
        let f = findings.iter().find(|f| f.rule == "panic-unwrap").unwrap();
        assert_eq!(f.waiver, Waiver::None);
    }

    #[test]
    fn warning_severities_survive_the_pipeline() {
        let a = analyze_files(
            &[(
                "crates/bench/src/x.rs",
                "fn f() { let mut m = HashMap::new(); for k in &m {} }",
            )],
            &Baseline::default(),
            Some("unordered-iteration"),
        );
        let it = a
            .findings
            .iter()
            .find(|f| f.rule == "unordered-iteration")
            .unwrap();
        assert_eq!(it.severity, Severity::Warning);
        assert!(!it.counts_as_error());
    }

    #[test]
    fn panic_allow_aliases_to_reachability() {
        // One allow at the panic site waives both the per-file rule and
        // the workspace pass pointing at the same line.
        let a = analyze_files(
            &[(
                "crates/sim/src/core.rs",
                "impl Machine {\n\
                 fn step(&mut self) {\n\
                 // soe-lint: allow(panic-unwrap): invariant: queue non-empty\n\
                 x.unwrap();\n\
                 }\n\
                 fn next_wake(&mut self) {}\n\
                 }\n",
            )],
            &Baseline::default(),
            None,
        );
        let reach: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == "panic-reachability" && f.line == 4)
            .collect();
        assert_eq!(reach.len(), 1, "{:?}", a.findings);
        assert_eq!(reach[0].waiver, Waiver::Suppressed);
        let unwrap = a
            .findings
            .iter()
            .find(|f| f.rule == "panic-unwrap")
            .unwrap();
        assert_eq!(unwrap.waiver, Waiver::Suppressed);
    }

    #[test]
    fn wall_clock_allow_does_not_waive_taint() {
        let a = analyze_files(
            &[
                (
                    "crates/core/src/supervise.rs",
                    "impl Journal { fn append(&mut self) {\n\
                     // soe-lint: allow(wall-clock): watchdog timestamp\n\
                     let t = Instant::now();\n\
                     } }\n",
                ),
                (
                    "crates/core/src/other.rs",
                    "fn trace_jsonl() {}\nfn chrome_trace() {}\nfn trace_series() {}\n\
                     fn full_results() {}\nimpl MetricsRegistry { fn to_csv(&self) {} }\n\
                     impl SloReport { fn build() {} }\n\
                     impl Machine { fn step(&self) {} fn next_wake(&self) {} }\n\
                     fn run_spec() {}\nfn serve() {}\nfn run_scenario() {}\n\
                     impl FairnessPolicy { fn recalc(&self) {} fn on_switch_in(&self) {} \
                     fn on_switch_out(&self) {} fn after_retire(&self) {} fn each_cycle(&self) {} }",
                ),
            ],
            &Baseline::default(),
            None,
        );
        let wall = a.findings.iter().find(|f| f.rule == "wall-clock").unwrap();
        assert_eq!(wall.waiver, Waiver::Suppressed);
        let taint = a
            .findings
            .iter()
            .find(|f| f.rule == "determinism-taint")
            .unwrap();
        assert_eq!(
            taint.waiver,
            Waiver::None,
            "taint needs its own justification"
        );
    }

    #[test]
    fn baseline_entries_for_missing_files_are_reported() {
        let baseline = Baseline::parse(
            "panic-unwrap crates/sim/src/deleted.rs 2\n\
             wall-clock crates/bench/src/x.rs 1\n",
        )
        .unwrap();
        let a = analyze_files(
            &[("crates/bench/src/x.rs", "fn f() {}")],
            &baseline,
            Some("wall-clock"),
        );
        assert_eq!(
            a.missing_baseline_files,
            vec![(
                "panic-unwrap".to_string(),
                "crates/sim/src/deleted.rs".to_string()
            )]
        );
        // The existing-but-clean file is stale, not missing.
        assert!(a
            .stale_baseline
            .iter()
            .any(|(r, f, _)| r == "wall-clock" && f == "crates/bench/src/x.rs"));
    }
}
