//! Fixture coverage for every lint rule family: a positive snippet
//! (violation detected), a negative snippet (idiomatic code passes),
//! and an allowlisted snippet (pragma suppresses) per rule, plus the
//! pragma-hygiene diagnostics and a whole-workspace cleanliness check.

use xtask::{lint_source, Violation};

/// Paths chosen to exercise each file classification.
const COLD: &str = "crates/core/src/fixture.rs"; // panic + index + determinism
const HOT: &str = "crates/core/src/greedy.rs"; // hot-module list member
const NON_DET: &str = "crates/datasets/src/fixture.rs"; // panic scope only
const ROOT: &str = "crates/graph/src/lib.rs"; // attribute prelude required

fn rules_of(violations: &[Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.rule.as_str()).collect()
}

fn assert_clean(rel_path: &str, src: &str) {
    let v = lint_source(rel_path, src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

fn assert_rule(rel_path: &str, src: &str, rule: &str, count: usize) -> Vec<Violation> {
    let v = lint_source(rel_path, src);
    let hits = v.iter().filter(|x| x.rule == rule).count();
    assert_eq!(hits, count, "expected {count} `{rule}` hits, got: {v:?}");
    v
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_flags_entropy_and_clock_sources() {
    let src = r#"
fn f() {
    let mut rng = rand::thread_rng();
    let other = SmallRng::from_entropy();
    let t0 = std::time::Instant::now();
    let wall = SystemTime::now();
}
"#;
    let v = assert_rule(COLD, src, "determinism", 4);
    assert!(v[0].message.contains("seeded"));
}

#[test]
fn determinism_flags_hash_iteration_in_result_code() {
    let src = r#"
fn f() {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for (k, v) in &counts {
        use_it(k, v);
    }
    let ids: Vec<u32> = counts.keys().copied().collect();
}
"#;
    // The `for` loop and the `.keys()` call are both flagged.
    assert_rule(COLD, src, "determinism", 2);
}

#[test]
fn determinism_accepts_seeded_rng_and_btree_iteration() {
    let src = r#"
fn f(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for (k, v) in &counts {
        use_it(k, v);
    }
}
"#;
    assert_clean(COLD, src);
}

#[test]
fn determinism_iteration_rule_is_scoped_to_result_crates() {
    // Hash iteration is tolerated in crates outside the declared
    // determinism scope (datasets tooling) — entropy sources are not.
    let src = r#"
fn f() {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for (k, v) in &counts {
        use_it(k, v);
    }
}
"#;
    assert_rule(NON_DET, src, "determinism", 0);
    assert_rule(
        NON_DET,
        "fn g() { let r = rand::thread_rng(); }",
        "determinism",
        1,
    );
}

#[test]
fn determinism_allow_suppresses_with_justification() {
    let src = r#"
fn f() {
    // xtask-allow: determinism -- summary counters only; order never reaches results
    let ids: Vec<u32> = counts.keys().copied().collect();
    let counts: HashMap<u32, u32> = HashMap::new();
}
"#;
    // Note: binding appears after use in this fixture; the symbol
    // table is file-scoped, so the `.keys()` call is still recognized
    // and the pragma must absorb it.
    assert_rule(COLD, src, "determinism", 0);
}

// ---------------------------------------------------------------------- panic

#[test]
fn panic_flags_unwrap_expect_and_macros() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a > b { panic!("boom"); }
    todo!()
}
"#;
    assert_rule(COLD, src, "panic", 4);
}

#[test]
fn panic_ignores_test_modules_comments_and_strings() {
    let src = r#"
/// Call `.unwrap()` at your peril. panic! is spelled here too.
fn f() -> &'static str {
    "not a real unwrap() nor panic!"
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}
"#;
    assert_clean(COLD, src);
}

#[test]
fn panic_allow_covers_next_code_line() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    // xtask-allow: panic -- x is produced by the validated constructor above
    x.unwrap()
}
"#;
    assert_clean(COLD, src);
}

// ---------------------------------------------------------------------- index

#[test]
fn index_flags_cold_slice_indexing() {
    let src = r#"
fn f(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
"#;
    assert_rule(COLD, src, "index", 1);
}

#[test]
fn index_is_exempt_in_hot_modules() {
    // Hot modules are backed by the debug-build validators instead.
    let src = r#"
fn f(xs: &[u32], i: usize) -> u32 {
    xs[i]
}
"#;
    assert_rule(HOT, src, "index", 0);
}

#[test]
fn index_ignores_types_attributes_and_getters() {
    let src = r#"
#[derive(Clone)]
struct S {
    xs: Vec<u32>,
}
fn f(xs: &mut [u32], ys: &[u8; 4]) -> Option<u32> {
    let lit = [1, 2, 3];
    xs.first().copied()
}
"#;
    assert_clean(COLD, src);
}

#[test]
fn index_file_level_allow_covers_whole_file() {
    let src = r#"
// xtask-allow-file: index -- all arrays are sized to node_count up front
fn f(xs: &[u32], ys: &[u32], i: usize) -> u32 {
    xs[i] + ys[i]
}
"#;
    assert_clean(COLD, src);
}

// -------------------------------------------------------------------- hotpath

#[test]
fn hotpath_flags_allocation_and_legacy_graph_api() {
    let src = r#"
fn f(g: &DiGraph) -> Vec<u32> {
    let mut out = Vec::new();
    let mut seen: HashMap<u32, u32> = HashMap::new();
    let tmp = vec![0u32; 4];
    out
}
"#;
    let v = lint_source(HOT, src);
    // DiGraph ref + Vec::new + HashMap::new + vec!.
    assert_eq!(rules_of(&v), ["hotpath"; 4]);
}

#[test]
fn hotpath_rules_do_not_apply_to_cold_modules() {
    let src = r#"
fn f() -> Vec<u32> {
    let mut out = Vec::new();
    out.push(1);
    out
}
"#;
    assert_rule(COLD, src, "hotpath", 0);
}

#[test]
fn hotpath_allow_marks_documented_wrappers() {
    let src = r#"
fn f(
    // xtask-allow: hotpath -- documented cold-path convenience wrapper
    g: &DiGraph,
) -> usize {
    g.node_count()
}
"#;
    assert_clean(HOT, src);
}

// -------------------------------------------------------------------- collect

#[test]
fn collect_flags_per_iteration_allocation_in_loops() {
    let src = r#"
fn f(items: &[u32]) -> usize {
    let mut total = 0;
    for chunk in items.chunks(4) {
        let doubled: Vec<u32> = chunk.iter().map(|x| x * 2).collect();
        total += doubled.len();
    }
    while total > 100 {
        let halves = items.iter().collect::<Vec<_>>();
        total -= halves.len();
    }
    total
}
"#;
    assert_rule(HOT, src, "collect", 2);
}

#[test]
fn collect_outside_loops_and_in_cold_modules_passes() {
    let src = r#"
fn f(items: &[u32]) -> Vec<u32> {
    let doubled: Vec<u32> = items.iter().map(|x| x * 2).collect();
    doubled
}
"#;
    assert_rule(HOT, src, "collect", 0);
    // The same loop that is flagged in a hot module is fine elsewhere.
    let loopy = r#"
fn g(items: &[u32]) -> usize {
    let mut total = 0;
    for chunk in items.chunks(4) {
        let doubled: Vec<u32> = chunk.iter().map(|x| x * 2).collect();
        total += doubled.len();
    }
    total
}
"#;
    assert_rule(COLD, loopy, "collect", 0);
}

#[test]
fn collect_is_not_fooled_by_impl_for_blocks() {
    // `impl Trait for Type { .. }` contains `for` but opens no loop.
    let src = r#"
impl Iterator for Stepper {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        let all: Vec<u32> = self.pending.iter().copied().collect();
        all.first().copied()
    }
}
"#;
    assert_rule(HOT, src, "collect", 0);
}

#[test]
fn collect_allow_marks_justified_loop_allocations() {
    let src = r#"
fn f(groups: &[Group]) -> usize {
    let mut n = 0;
    for g in groups {
        // xtask-allow: collect -- one small Vec per community, setup phase only
        let ids: Vec<u32> = g.members.iter().collect();
        n += ids.len();
    }
    n
}
"#;
    assert_clean(HOT, src);
}

// ------------------------------------------------------------------- bufclone

#[test]
fn bufclone_flags_buffer_copies_in_hot_modules() {
    let src = r#"
fn f(xs: &Buffers) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let a = xs.order.clone();
    let b = xs.order[..4].to_vec();
    let c = make_order(xs).clone();
    (a, b, c)
}
"#;
    assert_rule(HOT, src, "bufclone", 3);
}

#[test]
fn bufclone_ignores_path_calls_cold_modules_and_tests() {
    // `Arc::clone` is a pointer bump, not a buffer copy; derives and
    // doc comments never form method calls.
    let src = r#"
/// Call `.clone()` freely in docs.
#[derive(Clone)]
struct S {
    shared: Arc<Index>,
}
fn f(s: &S) -> Arc<Index> {
    Arc::clone(&s.shared)
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let copied = fixture().order.clone();
    }
}
"#;
    assert_rule(HOT, src, "bufclone", 0);
    // The same copy that is flagged in a hot module is fine elsewhere.
    assert_rule(
        COLD,
        "fn g(xs: &State) -> Vec<u32> { xs.order.clone() }",
        "bufclone",
        0,
    );
}

#[test]
fn bufclone_allow_marks_result_materialization() {
    let src = r#"
fn f(traj: &Trajectory, len: usize) -> Vec<u32> {
    // xtask-allow: bufclone -- per-solve result materialization at the query boundary
    traj.selected[..len].to_vec()
}
"#;
    assert_clean(HOT, src);
}

// ---------------------------------------------------------------- concurrency

#[test]
fn concurrency_flags_static_mut_and_interior_mut_statics() {
    let src = r#"
static mut COUNTER: u64 = 0;
static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static ONCE: OnceLock<Index> = OnceLock::new();
"#;
    let v = assert_rule(COLD, src, "concurrency", 4);
    assert!(v[0].message.contains("static mut"));
    assert!(v[1].message.contains("Mutex"));
}

#[test]
fn concurrency_accepts_const_statics_and_owned_sync_fields() {
    // Plain consts, `&'static` lifetimes, and synchronized state
    // owned by a struct (the session split) are all fine.
    let src = r#"
static NAMES: [&'static str; 2] = ["a", "b"];
const LIMIT: u64 = 8;
struct Cache {
    map: Mutex<BTreeMap<u64, u64>>,
    hits: AtomicU64,
}
"#;
    assert_rule(COLD, src, "concurrency", 0);
}

#[test]
fn concurrency_flags_guard_held_across_hot_calls() {
    let src = r#"
fn f(solver: &Solver, traj: &mut Trajectory) -> Result<(), E> {
    let map = solver.cache.lock().unwrap_or_default();
    advance_trajectory(&map.backend, traj)?;
    Ok(())
}
"#;
    let v = assert_rule(COLD, src, "concurrency", 1);
    assert!(v[0].message.contains("advance_trajectory"));
    assert!(v[0].message.contains("`map`"));
}

#[test]
fn concurrency_flags_guard_held_across_the_lane_kernel() {
    let src = r#"
fn f(state: &Shared, lanes: &mut LaneWorkspace) -> Result<(), E> {
    let guard = state.inner.lock().unwrap_or_default();
    guard.model.run_lanes_into(&guard.csr, &guard.rumors, guard.sets.iter(), lanes, &guard.real)?;
    Ok(())
}
"#;
    let v = assert_rule(COLD, src, "concurrency", 1);
    assert!(v[0].message.contains("run_lanes_into"));
    assert!(v[0].message.contains("`guard`"));
}

#[test]
fn concurrency_accepts_guard_dropped_before_hot_call() {
    // An explicit `drop(guard)` or the block's end frees the lock
    // before the kernel runs; cloning the artifact out is the idiom.
    let src = r#"
fn f(solver: &Solver, traj: &mut Trajectory) -> Result<(), E> {
    let map = solver.cache.lock().unwrap_or_default();
    let backend = map.backend_arc();
    drop(map);
    advance_trajectory(&backend, traj)?;
    Ok(())
}

fn g(solver: &Solver) -> usize {
    let guard = solver.cache.read().unwrap_or_default();
    guard.len()
}
"#;
    assert_rule(COLD, src, "concurrency", 0);
}

#[test]
fn concurrency_allow_marks_justified_serialized_sections() {
    let src = r#"
fn f(state: &Shared, traj: &mut Trajectory) -> Result<(), E> {
    let guard = state.inner.lock().unwrap_or_default();
    // xtask-allow: concurrency -- single-threaded maintenance path; documented in DESIGN.md §11
    advance_trajectory(&guard.backend, traj)?;
    Ok(())
}
"#;
    assert_rule(COLD, src, "concurrency", 0);
}

// ----------------------------------------------------------------- docexample

#[test]
fn docexample_flags_session_api_without_fenced_example() {
    let src = r#"
impl Solver {
    /// Returns the epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}
"#;
    let v = assert_rule(COLD, src, "docexample", 1);
    assert!(v[0].message.contains("Solver::epoch"));
}

#[test]
fn docexample_accepts_fenced_examples_and_skips_attributes() {
    // The fenced block satisfies the rule even with attributes
    // (including multi-line ones) stacked between docs and fn.
    let src = r#"
impl SolveReport {
    /// Cumulative counters.
    ///
    /// # Examples
    ///
    /// ```
    /// assert_eq!(1 + 1, 2);
    /// ```
    #[deprecated(
        since = "0.1.0",
        note = "diff snapshots instead"
    )]
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }
}
"#;
    assert_rule(COLD, src, "docexample", 0);
}

#[test]
fn docexample_scope_is_inherent_session_impls_only() {
    // Trait impls, non-session types, and non-pub fns are out of
    // scope; `pub fn` on other types never fires.
    let src = r#"
impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("solver")
    }
}

impl Widget {
    /// No example needed here.
    pub fn poke(&self) {}
}

impl Solver {
    /// Private helpers are exempt.
    fn internal(&self) {}
    pub(crate) fn crate_only(&self) {}
}
"#;
    assert_rule(COLD, src, "docexample", 0);
}

#[test]
fn docexample_allow_marks_justified_exemptions() {
    let src = r#"
impl SolveRequest {
    /// Trivial accessor.
    // xtask-allow: docexample -- one-line getter; an example would restate the signature
    pub fn budget(&self) -> usize {
        self.budget
    }
}
"#;
    assert_rule(COLD, src, "docexample", 0);
}

// ----------------------------------------------------------------- attributes

#[test]
fn attributes_require_the_full_prelude() {
    let src = "//! Crate docs.\n\n#![forbid(unsafe_code)]\n\npub fn f() {}\n";
    // missing deny(missing_docs) and warn(missing_debug_implementations)
    let v = assert_rule(ROOT, src, "attributes", 2);
    assert!(v.iter().any(|x| x.message.contains("missing_docs")));
    assert!(v
        .iter()
        .any(|x| x.message.contains("missing_debug_implementations")));
}

#[test]
fn attributes_accept_the_prelude_and_stricter_levels() {
    let src = "//! Crate docs.\n\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n#![deny(missing_debug_implementations)]\n\npub fn f() {}\n";
    assert_clean(ROOT, src);
}

#[test]
fn attributes_only_checked_on_crate_roots() {
    assert_rule(COLD, "pub fn f() {}\n", "attributes", 0);
}

// -------------------------------------------------------------- allow hygiene

#[test]
fn allow_without_justification_is_a_violation() {
    let src = r#"
fn f(x: Option<u32>) -> u32 {
    // xtask-allow: panic
    x.unwrap()
}
"#;
    let v = assert_rule(COLD, src, "allow", 1);
    assert!(v[0].message.contains("justification"));
    // The panic itself is still suppressed — the pragma applies, it
    // just carries its own hygiene diagnostic.
    assert_eq!(v.len(), 1);
}

#[test]
fn unused_allow_is_a_violation() {
    let src = r#"
fn f() -> u32 {
    // xtask-allow: panic -- nothing here actually panics
    41 + 1
}
"#;
    let v = assert_rule(COLD, src, "allow", 1);
    assert!(v[0].message.contains("unused"));
}

#[test]
fn unknown_rule_in_allow_is_a_violation() {
    let src = r#"
fn f() {
    // xtask-allow: speed -- not a rule id
    let x = 1;
}
"#;
    let v = lint_source(COLD, src);
    assert!(v
        .iter()
        .any(|x| x.rule == "allow" && x.message.contains("unknown rule `speed`")));
}

#[test]
fn doc_comments_cannot_smuggle_pragmas() {
    let src = r#"
/// xtask-allow: panic -- doc comments are not pragmas
fn f(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    assert_rule(COLD, src, "panic", 1);
}

// ------------------------------------------------------------ whole workspace

#[test]
fn the_workspace_itself_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let violations = xtask::lint_workspace(&root).expect("workspace readable");
    assert!(
        violations.is_empty(),
        "cargo xtask lint must stay clean; found:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
