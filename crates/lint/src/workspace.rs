//! The workspace symbol table and over-approximate call graph.
//!
//! Built once per run from every parsed file, this is what lets the
//! analysis passes reason *across* files: a panic in `crates/stats` is
//! only interesting if the hot loop in `crates/sim` can reach it.
//!
//! # Resolution rules (deliberately over-approximate)
//!
//! soe-lint has no type information, so call edges resolve by name:
//!
//! - `Type::name(…)` — fns whose enclosing impl type is `Type`
//!   (`Self::` is rewritten to the enclosing impl type by the parser).
//!   An *unknown* capitalized qualifier (`Vec::new`) produces no edge:
//!   it names a type outside the workspace.
//! - `module::name(…)` — a lowercase qualifier is a module path; it
//!   falls back to every workspace fn named `name` (free or owned),
//!   because the module structure is not tracked.
//! - `name(…)` — every *free* fn named `name`.
//! - `receiver.name(…)` — every impl fn named `name` that takes `self`.
//!
//! A fn in a [`DETACHED_PACKAGES`] directory is a callee only of fns in
//! the same directory: such a package depends on the workspace crates,
//! never the other way round, so no workspace fn can call into it.
//!
//! The guarantee is one-sided: a call edge that exists in the compiled
//! program also exists here (no false negatives from resolution), at
//! the cost of extra edges when names collide. Reachability passes
//! therefore over-report, never under-report — the right bias for a
//! gate whose findings can be waived with a justified allow.
//!
//! Test code (whole-file test files, `#[cfg(test)]` items) is excluded
//! from the graph entirely: a panic reachable only from a test is the
//! test's business.

use std::collections::BTreeMap;

use crate::items::{parse_items, CallSite, EnumItem, FnItem, ParsedItems, StructItem};
use crate::source::SourceFile;

/// Top-level directories holding a Cargo package of its own (with its
/// own `[workspace]` table) that no workspace crate depends on. Their
/// fns are linted and may call workspace fns, but never resolve as
/// callees of fns outside their own directory.
pub const DETACHED_PACKAGES: &[&str] = &["perfbench"];

/// The [`DETACHED_PACKAGES`] entry a workspace-relative path lies in.
fn detached_package(path: &str) -> Option<&str> {
    let (top, _) = path.split_once('/')?;
    DETACHED_PACKAGES.iter().copied().find(|&p| p == top)
}

/// One analyzed file: its source and the items parsed from it.
#[derive(Debug)]
pub struct FileUnit {
    /// The lexed source (path, tokens, comments, test ranges).
    pub source: SourceFile,
    /// Structs, enums, match sites and the file's test fns (non-test fns
    /// are hoisted into [`Workspace::fns`]).
    pub items: ParsedItems,
}

/// One function in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The parsed function.
    pub item: FnItem,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Target (for `callees`) or source (for `callers`) fn index.
    pub to: usize,
    /// 1-based line of the call site, in the *calling* fn's file.
    pub line: u32,
}

/// The symbol table plus call graph for one workspace scan.
#[derive(Debug)]
pub struct Workspace {
    /// Every scanned file, in walk (sorted-path) order.
    pub files: Vec<FileUnit>,
    /// Every non-test function, in (file, source) order.
    pub fns: Vec<FnNode>,
    /// fn name -> indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (owner, fn name) -> indices into `fns`.
    pub by_owner: BTreeMap<(String, String), Vec<usize>>,
    /// struct name -> (file index, index into that file's `structs`).
    pub structs: BTreeMap<String, Vec<(usize, usize)>>,
    /// enum name -> (file index, index into that file's `enums`).
    pub enums: BTreeMap<String, Vec<(usize, usize)>>,
    /// Outgoing call edges per fn (deduplicated by target, first call
    /// line wins — paths stay stable and minimal).
    pub callees: Vec<Vec<Edge>>,
    /// Incoming call edges per fn (to = caller index).
    pub callers: Vec<Vec<Edge>>,
}

impl Workspace {
    /// Builds the table and graph from parsed sources.
    pub fn build(sources: Vec<SourceFile>) -> Self {
        let mut files = Vec::with_capacity(sources.len());
        let mut fns: Vec<FnNode> = Vec::new();
        for (fi, source) in sources.into_iter().enumerate() {
            let mut items = parse_items(&source.tokens, &|line| source.is_test_line(line));
            let (tests, live): (Vec<FnItem>, Vec<FnItem>) =
                items.fns.drain(..).partition(|f| f.is_test);
            items.fns = tests;
            fns.extend(live.into_iter().map(|item| FnNode { file: fi, item }));
            files.push(FileUnit { source, items });
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, node) in fns.iter().enumerate() {
            by_name.entry(node.item.name.clone()).or_default().push(i);
            if let Some(owner) = &node.item.owner {
                by_owner
                    .entry((owner.clone(), node.item.name.clone()))
                    .or_default()
                    .push(i);
            }
        }
        let mut structs: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        let mut enums: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, unit) in files.iter().enumerate() {
            for (si, s) in unit.items.structs.iter().enumerate() {
                structs.entry(s.name.clone()).or_default().push((fi, si));
            }
            for (ei, e) in unit.items.enums.iter().enumerate() {
                enums.entry(e.name.clone()).or_default().push((fi, ei));
            }
        }

        let n = fns.len();
        let mut ws = Self {
            files,
            fns,
            by_name,
            by_owner,
            structs,
            enums,
            callees: vec![Vec::new(); n],
            callers: vec![Vec::new(); n],
        };
        for i in 0..n {
            let node = &ws.fns[i];
            let edges: Vec<(usize, u32)> = node
                .item
                .calls
                .iter()
                .flat_map(|call| {
                    ws.resolve(call, ws.path_of(i))
                        .into_iter()
                        .map(move |target| (target, call.line))
                })
                .collect();
            for (target, line) in edges {
                if ws.callees[i].iter().all(|e| e.to != target) {
                    ws.callees[i].push(Edge { to: target, line });
                    ws.callers[target].push(Edge { to: i, line });
                }
            }
        }
        ws
    }

    /// Workspace-relative path of the file a fn lives in.
    pub fn path_of(&self, fn_idx: usize) -> &str {
        &self.files[self.fns[fn_idx].file].source.path
    }

    /// The workspace fns a call site in the file at `from_path` resolves
    /// to: the module-level rules plus the detached-package cut. Builds
    /// the graph's edges, and resolves calls from fns that are not graph
    /// nodes, such as examples.
    pub(crate) fn resolve(&self, call: &CallSite, from_path: &str) -> Vec<usize> {
        let from = detached_package(from_path);
        resolve_call(&self.by_name, &self.by_owner, &self.fns, call)
            .iter()
            .copied()
            .filter(|&t| detached_package(self.path_of(t)).is_none_or(|p| from == Some(p)))
            .collect()
    }

    /// Resolves a display name — `Owner::name` or a bare `name` — to fn
    /// indices. A bare name matches free fns first, then (if none) any
    /// owned fn with that name.
    pub fn lookup(&self, name: &str) -> Vec<usize> {
        if let Some((owner, bare)) = name.split_once("::") {
            return self
                .by_owner
                .get(&(owner.to_string(), bare.to_string()))
                .cloned()
                .unwrap_or_default();
        }
        let all = self.by_name.get(name).cloned().unwrap_or_default();
        // `.get()` rather than indexing: sim code calls `.lookup()` on
        // BTBs and caches, so the over-approximate graph marks this fn
        // hot-path reachable — keep it genuinely panic-free.
        let free: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.fns.get(i).is_some_and(|n| n.item.owner.is_none()))
            .collect();
        if free.is_empty() {
            all
        } else {
            free
        }
    }

    /// The struct named `name`, preferring one defined in `near_file`
    /// (the usual case: a fn iterating `self.field` lives next to its
    /// type), else the first definition in walk order.
    pub(crate) fn struct_named(&self, name: &str, near_file: usize) -> Option<&StructItem> {
        let hits = self.structs.get(name)?;
        let &(fi, si) = hits
            .iter()
            .find(|(fi, _)| *fi == near_file)
            .or_else(|| hits.first())?;
        Some(&self.files[fi].items.structs[si])
    }

    /// All definitions of the enum named `name`, in walk order.
    // soe-lint: allow(dead-pub): tests/self_check.rs; the schema pass reaches it via a fn pointer
    pub fn enums_named(&self, name: &str) -> Vec<(&FileUnit, &EnumItem)> {
        self.enums
            .get(name)
            .map(|hits| {
                hits.iter()
                    .map(|&(fi, ei)| (&self.files[fi], &self.files[fi].items.enums[ei]))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Resolves one call site to target fn indices per the module-level
/// rules. Returns a borrowed or computed set.
fn resolve_call<'a>(
    by_name: &'a BTreeMap<String, Vec<usize>>,
    by_owner: &'a BTreeMap<(String, String), Vec<usize>>,
    fns: &[FnNode],
    call: &CallSite,
) -> std::borrow::Cow<'a, [usize]> {
    use std::borrow::Cow;
    if let Some(q) = &call.qualifier {
        if let Some(hits) = by_owner.get(&(q.clone(), call.name.clone())) {
            return Cow::Borrowed(hits);
        }
        // Capitalized qualifier names a type; unknown type → outside the
        // workspace (Vec::new, String::from) → no edge. A lowercase
        // qualifier is a module path: fall back to every fn by name.
        if q.chars().next().is_some_and(|c| c.is_uppercase()) {
            return Cow::Owned(Vec::new());
        }
        return Cow::Borrowed(
            by_name
                .get(&call.name)
                .map(Vec::as_slice)
                .unwrap_or_default(),
        );
    }
    let Some(hits) = by_name.get(&call.name) else {
        return Cow::Owned(Vec::new());
    };
    if call.is_method {
        // `.name(…)`: any impl fn taking self.
        Cow::Owned(
            hits.iter()
                .copied()
                .filter(|&i| fns[i].item.has_self && fns[i].item.owner.is_some())
                .collect(),
        )
    } else {
        // Bare `name(…)`: free fns only.
        Cow::Owned(
            hits.iter()
                .copied()
                .filter(|&i| fns[i].item.owner.is_none())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect())
    }

    #[test]
    fn cross_file_qualified_call_resolves() {
        let w = ws(&[
            (
                "crates/sim/src/core.rs",
                "impl Machine { fn step(&mut self) { Hist::push(1); } }",
            ),
            (
                "crates/stats/src/lib.rs",
                "impl Hist { fn push(v: u64) { helper(); } }\nfn helper() {}",
            ),
        ]);
        let step = w.lookup("Machine::step");
        assert_eq!(step.len(), 1);
        let push = w.lookup("Hist::push");
        assert_eq!(push.len(), 1);
        assert!(w.callees[step[0]].iter().any(|e| e.to == push[0]));
        let helper = w.lookup("helper");
        assert!(w.callees[push[0]].iter().any(|e| e.to == helper[0]));
        assert!(w.callers[helper[0]].iter().any(|e| e.to == push[0]));
    }

    #[test]
    fn method_calls_resolve_to_self_taking_fns_only() {
        let w = ws(&[(
            "crates/sim/src/a.rs",
            "impl A { fn go(&self) {} }\n\
             impl B { fn go() {} }\n\
             fn f(a: &A) { a.go(); }",
        )]);
        let f = w.lookup("f")[0];
        let a_go = w.lookup("A::go")[0];
        let b_go = w.lookup("B::go")[0];
        let targets: Vec<usize> = w.callees[f].iter().map(|e| e.to).collect();
        assert!(targets.contains(&a_go));
        assert!(!targets.contains(&b_go), "B::go takes no self");
    }

    #[test]
    fn unknown_type_qualifier_makes_no_edge() {
        let w = ws(&[(
            "crates/sim/src/a.rs",
            "fn new() {}\nfn f() { let v = Vec::new(); }",
        )]);
        let f = w.lookup("f")[0];
        assert!(
            w.callees[f].is_empty(),
            "Vec is not a workspace type; bare fn `new` must not match"
        );
    }

    #[test]
    fn module_qualifier_falls_back_to_name() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn f() { stats::summarize(1); }"),
            ("crates/b/src/lib.rs", "fn summarize(v: u64) {}"),
        ]);
        let f = w.lookup("f")[0];
        let s = w.lookup("summarize")[0];
        assert!(w.callees[f].iter().any(|e| e.to == s));
    }

    #[test]
    fn test_code_stays_out_of_the_graph() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { live(); }\n}",
            ),
            ("crates/a/tests/it.rs", "fn whole_file() { live(); }"),
        ]);
        assert!(w.lookup("t").is_empty());
        assert!(w.lookup("whole_file").is_empty());
        let live = w.lookup("live")[0];
        assert!(w.callers[live].is_empty());
    }

    #[test]
    fn bare_name_lookup_prefers_free_fns() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn run() {}\nimpl S { fn run(&self) {} }",
        )]);
        let hits = w.lookup("run");
        assert_eq!(hits.len(), 1);
        assert!(w.fns[hits[0]].item.owner.is_none());
        assert_eq!(w.lookup("S::run").len(), 1);
    }

    #[test]
    fn struct_and_enum_tables() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub struct S { m: HashMap<u64, u64> }\npub enum E { A, B }",
            ),
            ("crates/b/src/lib.rs", "pub struct S { other: u64 }"),
        ]);
        let near_a = w.struct_named("S", 0).unwrap();
        assert!(near_a.fields[0].1.contains("HashMap"));
        let near_b = w.struct_named("S", 1).unwrap();
        assert_eq!(near_b.fields[0].0, "other");
        assert_eq!(w.enums_named("E").len(), 1);
        assert_eq!(w.enums_named("E")[0].1.variants, vec!["A", "B"]);
    }
}
