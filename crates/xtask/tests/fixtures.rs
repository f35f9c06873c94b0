//! Fixture coverage for every lint rule family: a positive snippet
//! (violation detected), a negative snippet (idiomatic code passes),
//! and an allowlisted snippet (pragma suppresses) per rule, plus the
//! pragma-hygiene diagnostics and a whole-workspace cleanliness check.
//! Each fixture runs the same two-phase pipeline as the CLI.

use xtask::Violation;

/// Paths chosen to exercise each file classification.
const COLD: &str = "crates/core/src/fixture.rs"; // panic + index + determinism
const HOT: &str = "crates/core/src/greedy.rs"; // hot-module list member
const NON_DET: &str = "crates/datasets/src/fixture.rs"; // panic scope only
const ROOT: &str = "crates/graph/src/lib.rs"; // attribute prelude required

/// Lints one in-memory file through both phases and the pragma pass.
fn lint(rel_path: &str, src: &str) -> Vec<Violation> {
    xtask::lint_entries(&[(rel_path.to_owned(), src.to_owned())]).0
}

fn assert_clean(rel_path: &str, src: &str) {
    let v = lint(rel_path, src);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

fn assert_rule(rel_path: &str, src: &str, rule: &str, count: usize) -> Vec<Violation> {
    let v = lint(rel_path, src);
    let hits = v.iter().filter(|x| x.rule == rule).count();
    assert_eq!(hits, count, "expected {count} `{rule}` hits, got: {v:?}");
    v
}

// ---------------------------------------------------------------- determinism

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
    // determinism scope (datasets tooling).
    let src = r#"
fn f() {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for (k, v) in &counts {
        use_it(k, v);
    }
}
"#;
    assert_rule(NON_DET, src, "determinism", 0);
}

#[test]
fn determinism_catches_the_digraph_reversed_hashset_order() {
    // `DiGraph::reversed` as it stood before the rule existed: the
    // reversed edge set was rebuilt by iterating the old hash set.
    let src = r#"
use std::collections::HashSet;

pub struct DiGraph {
    out: Vec<Vec<NodeId>>,
    ins: Vec<Vec<NodeId>>,
    edge_count: usize,
    edge_set: HashSet<u64>,
}

impl DiGraph {
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            out: self.ins.clone(),
            ins: self.out.clone(),
            edge_count: self.edge_count,
            edge_set: self.edge_set.iter().map(|k| k.rotate_right(32)).collect(),
        }
    }
}
"#;
    let v = assert_rule("crates/graph/src/digraph.rs", src, "determinism", 1);
    assert_eq!(v[0].line, 17);
    assert!(v[0].message.contains("edge_set"));
}

#[test]
fn determinism_catches_the_timestamp_table_hashmap_order() {
    // The timestamped OPOAO outcome as it stood before the rule
    // existed: its public `stamped_edges` iterated a hash map.
    let src = r#"
use std::collections::HashMap;

pub struct TimestampedOutcome {
    pub attribution: Vec<Option<NodeId>>,
    stamps: HashMap<(NodeId, NodeId), Vec<EdgeStamp>>,
}

impl TimestampedOutcome {
    pub fn stamped_edges(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &Vec<EdgeStamp>)> {
        self.stamps.iter()
    }
}

pub fn run_opoao_timestamped(graph: &DiGraph, seeds: &SeedSets) -> TimestampedOutcome {
    let mut stamps: HashMap<(NodeId, NodeId), Vec<EdgeStamp>> = HashMap::new();
    record(&mut stamps, graph, seeds);
    TimestampedOutcome { attribution: attribute(seeds), stamps }
}
"#;
    let v = assert_rule("crates/diffusion/src/timestamps.rs", src, "determinism", 1);
    assert_eq!(v[0].line, 11);
    assert!(v[0].message.contains("stamps"));
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
fn panic_ignores_test_modules_comments_strings_and_lint_attributes() {
    let src = r#"
/// Call `.unwrap()` at your peril. panic! is spelled here too.
#[expect(clippy::disallowed_methods, reason = "not a call")]
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
fn panic_sees_code_that_ships_outside_tests() {
    // Only an exact `#[cfg(test)]` marks test-only code; both of these
    // items compile into non-test builds.
    let not_test = r#"
#[cfg(not(test))]
fn shipped(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    assert_rule(COLD, not_test, "panic", 1);
}

#[test]
fn panic_sees_code_shared_between_tests_and_a_feature() {
    let any_test = r#"
#[cfg(any(test, feature = "sched"))]
fn shipped_with_sched(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#;
    assert_rule(COLD, any_test, "panic", 1);
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

// ------------------------------------------------------------------ lockorder

#[test]
fn lockorder_flags_a_guard_held_across_a_kernel_call() {
    let src = r#"
pub struct Solver { cache: Mutex<Cache> }
fn f(solver: &Solver, traj: &mut Trajectory) -> Result<(), E> {
    let map = solver.cache.lock().unwrap_or_default();
    advance_trajectory(&map.backend, traj)?;
    Ok(())
}
"#;
    let v = assert_rule(COLD, src, "lockorder", 1);
    assert_eq!(v[0].line, 5);
    assert!(v[0].message.contains("advance_trajectory"));
    assert!(v[0].message.contains("`map`"));
    assert!(v[0].message.contains("Solver.cache"));
}

#[test]
fn lockorder_flags_a_guard_held_across_the_lane_kernel() {
    let src = r#"
pub struct Shared { inner: Mutex<State> }
fn f(state: &Shared, lanes: &mut LaneWorkspace) -> Result<(), E> {
    let guard = state.inner.lock().unwrap_or_default();
    guard.model.run_lanes_into(&guard.csr, &guard.rumors, guard.sets.iter(), lanes, &guard.real)?;
    Ok(())
}
"#;
    let v = assert_rule(COLD, src, "lockorder", 1);
    assert!(v[0].message.contains("run_lanes_into"));
    assert!(v[0].message.contains("`guard`"));
}

#[test]
fn lockorder_flags_a_guard_held_across_a_helper_that_reaches_a_kernel() {
    // The kernel call sits one call away from the guard: only the call
    // graph sees that `helper` runs `run_lanes_into` under the lock.
    let src = r#"
pub struct Shared { inner: Mutex<State> }
fn f(state: &Shared, lanes: &mut LaneWorkspace) -> Result<(), E> {
    let guard = state.inner.lock().unwrap_or_default();
    helper(&guard, lanes)?;
    Ok(())
}
fn helper(state: &State, lanes: &mut LaneWorkspace) -> Result<(), E> {
    state.model.run_lanes_into(&state.csr, &state.rumors, state.sets.iter(), lanes, &state.real)
}
"#;
    let v = assert_rule(COLD, src, "lockorder", 1);
    assert_eq!(v[0].line, 5);
    assert!(v[0].message.contains("`helper`"));
    assert!(v[0].message.contains("`guard`"));
}

#[test]
fn lockorder_accepts_a_guard_dropped_before_the_kernel_call() {
    // An explicit `drop(guard)` or the block's end frees the lock
    // before the kernel runs; cloning the artifact out is the idiom.
    let src = r#"
pub struct Solver { cache: Mutex<Cache> }
fn f(solver: &Solver, traj: &mut Trajectory) -> Result<(), E> {
    let map = solver.cache.lock().unwrap_or_default();
    let backend = map.backend_arc();
    drop(map);
    advance_trajectory(&backend, traj)?;
    Ok(())
}

fn g(solver: &Solver, traj: &mut Trajectory) -> Result<(), E> {
    let backend = {
        let guard = solver.cache.lock().unwrap_or_default();
        guard.backend_arc()
    };
    advance_trajectory(&backend, traj)
}
"#;
    assert_rule(COLD, src, "lockorder", 0);
}

#[test]
fn lockorder_flags_a_kernel_call_after_a_guard_dropped_on_one_branch() {
    // The `drop` sits in a block that returns, so the fall-through path
    // still holds `map` when it reaches the kernel.
    let src = r#"
pub struct Solver { cache: Mutex<Cache> }
fn f(solver: &Solver, traj: &mut Trajectory, c: bool) -> Result<(), E> {
    let map = solver.cache.lock().unwrap_or_default();
    if c {
        drop(map);
        return Ok(());
    }
    advance_trajectory(&map.backend, traj)?;
    Ok(())
}
"#;
    let v = assert_rule(COLD, src, "lockorder", 1);
    assert_eq!(v[0].line, 9);
    assert!(v[0].message.contains("`map`"));
}

#[test]
fn lockorder_accepts_a_kernel_call_after_the_drop_on_the_same_branch() {
    let src = r#"
pub struct Solver { cache: Mutex<Cache> }
fn f(solver: &Solver, traj: &mut Trajectory, c: bool) -> Result<(), E> {
    let map = solver.cache.lock().unwrap_or_default();
    if c {
        let backend = map.backend_arc();
        drop(map);
        advance_trajectory(&backend, traj)?;
        return Ok(());
    }
    Ok(())
}
"#;
    assert_rule(COLD, src, "lockorder", 0);
}

#[test]
fn lockorder_flags_a_guard_returned_through_the_lock_helper() {
    // `lock_unclaimed` takes its guard through the passthrough
    // `lock(&self.map)` helper and hands it back, so its caller holds
    // `Cache.map` from that call on.
    let src = r#"
pub struct Cache { map: Mutex<Map> }
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
impl Cache {
    fn lock_unclaimed(&self, key: u8) -> MutexGuard<'_, Map> {
        let map = lock(&self.map);
        map
    }
    fn f(&self, traj: &mut Trajectory) -> Result<(), E> {
        let map = self.lock_unclaimed(7);
        advance_trajectory(&map.backend, traj)?;
        Ok(())
    }
}
"#;
    let v = assert_rule(COLD, src, "lockorder", 1);
    assert_eq!(v[0].line, 13);
    assert!(v[0].message.contains("`map`"));
    assert!(v[0].message.contains("Cache.map"));
}

#[test]
fn lockorder_accepts_a_helper_returned_guard_dropped_before_the_kernel_call() {
    let src = r#"
pub struct Cache { map: Mutex<Map> }
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
impl Cache {
    fn lock_unclaimed(&self, key: u8) -> MutexGuard<'_, Map> {
        let map = lock(&self.map);
        map
    }
    fn f(&self, traj: &mut Trajectory) -> Result<(), E> {
        let map = self.lock_unclaimed(7);
        let backend = map.backend_arc();
        drop(map);
        advance_trajectory(&backend, traj)?;
        Ok(())
    }
}
"#;
    assert_rule(COLD, src, "lockorder", 0);
}

#[test]
fn lockorder_flags_interior_mutability_statics() {
    // Module-level statics, statics declared inside a fn body, and
    // `thread_local!` statics.
    let src = r#"
static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static ONCE: OnceLock<Index> = OnceLock::new();
fn f() -> u64 {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    CALLS.load(Ordering::Relaxed)
}
thread_local! {
    static SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}
"#;
    let v = assert_rule(COLD, src, "lockorder", 5);
    assert!(v[0].message.contains("REGISTRY") && v[0].message.contains("Mutex"));
    assert!(v[3].message.contains("CALLS") && v[3].message.contains("AtomicU64"));
    assert!(v[4].message.contains("SCRATCH") && v[4].message.contains("RefCell"));
}

#[test]
fn lockorder_accepts_const_statics_and_owned_sync_fields() {
    // Plain consts, `&'static` lifetimes, and synchronized state
    // owned by a struct (the session split) are all fine.
    let src = r#"
static NAMES: [&'static str; 2] = ["a", "b"];
const LIMIT: u64 = 8;
struct Cache {
    map: Mutex<BTreeMap<u64, u64>>,
    hits: AtomicU64,
}
fn f() -> u64 {
    const LOCAL: u64 = 1;
    LOCAL
}
"#;
    assert_rule(COLD, src, "lockorder", 0);
}

#[test]
fn lockorder_allow_marks_justified_serialized_sections() {
    let src = r#"
pub struct Shared { inner: Mutex<State> }
fn f(state: &Shared, traj: &mut Trajectory) -> Result<(), E> {
    let guard = state.inner.lock().unwrap_or_default();
    // xtask-allow: lockorder -- single-threaded maintenance path; documented in DESIGN.md §11
    advance_trajectory(&guard.backend, traj)?;
    Ok(())
}
"#;
    assert_clean(COLD, src);
}

// ------------------------------------------------------------------- hotreach

#[test]
fn hotreach_flags_allocation_inside_a_kernel() {
    // Kernel bodies and hot files are in scope: every allocation shape
    // the kernels must avoid.
    let src = r#"
pub fn sigma_with(xs: &Buffers, items: &[u32]) -> usize {
    let mut out = Vec::new();
    let mut seen: HashMap<u32, u32> = HashMap::new();
    let tmp = vec![0u32; 4];
    let doubled: Vec<u32> = items.iter().map(|x| x * 2).collect();
    let a = xs.order.clone();
    let b = xs.order[..4].to_vec();
    out.len() + seen.len() + tmp.len() + doubled.len() + a.len() + b.len()
}
"#;
    let v = assert_rule(HOT, src, "hotreach", 6);
    assert!(v[0].message.contains("`Vec::new()`"));
    assert!(v[3].message.contains("`.collect()`"));
    assert!(v[5].message.contains("`.to_vec()`"));
}

#[test]
fn hotreach_flags_the_legacy_graph_api_on_the_kernel_path() {
    let src = r#"
pub fn run_into(csr: &CsrGraph, ws: &mut SimWorkspace) -> usize {
    legacy_degree(ws.graph()) + rebuild(csr.node_count())
}
fn legacy_degree(g: &DiGraph) -> usize {
    g.node_count()
}
fn rebuild(n: usize) -> usize {
    DiGraph::with_nodes(n).node_count()
}
"#;
    let v = assert_rule("crates/diffusion/src/fixture.rs", src, "hotreach", 2);
    assert!(v.iter().all(|x| x.message.contains("DiGraph")));
    assert!(v[0].message.contains("run_into → legacy_degree"));
    assert_eq!(v[1].line, 9);
}

#[test]
fn hotreach_ignores_pointer_bumps_unreachable_fns_and_tests() {
    // `Arc::clone` is a refcount bump, not a buffer copy; `build` lives
    // in a hot file but no kernel reaches it; test code never ships.
    let src = r#"
pub fn sigma_with(xs: &Shared) -> usize {
    Arc::clone(&xs.index).len()
}
pub fn build(items: &[u32]) -> Vec<u32> {
    items.iter().map(|x| x * 2).collect()
}

#[cfg(test)]
mod tests {
    fn sigma_with() {
        let copied = fixture().order.clone();
    }
}
"#;
    assert_rule(HOT, src, "hotreach", 0);
}

#[test]
fn hotreach_allow_marks_result_materialization() {
    let src = r#"
pub fn sigma_with(traj: &Trajectory, len: usize) -> Vec<u32> {
    // xtask-allow: hotreach -- per-solve result materialization at the query boundary
    traj.selected[..len].to_vec()
}
"#;
    assert_clean(HOT, src);
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
fn attributes_file_allow_covers_the_prelude() {
    let src = "//! Crate docs.\n\n// xtask-allow-file: attributes -- generated crate; its prelude is set by the generator\n#![forbid(unsafe_code)]\n\npub fn f() {}\n";
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
    let v = lint(COLD, src);
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
    let violations = xtask::lint_workspace(&root, false).expect("workspace readable");
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
