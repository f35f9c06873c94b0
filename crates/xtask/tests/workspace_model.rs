//! Integration tests for the two-phase analyzer: the phase-1
//! workspace model on synthetic fixtures and the real engine/pool
//! sources, plus each phase-2 rule family against an injected
//! violation (lock cycle, gate-wait-under-lock, epoch-free cache key,
//! mutation without bump, allocating helper reachable from a hot
//! kernel, and public-API baseline drift).

use std::collections::BTreeSet;
use std::path::PathBuf;

use xtask::model::WorkspaceModel;
use xtask::wrules;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs both lint phases and the pragma pass over one in-memory file.
fn lint(rel_path: &str, src: &str) -> Vec<xtask::Violation> {
    xtask::lint_entries(&[(rel_path.to_owned(), src.to_owned())]).0
}

// ---------------------------------------------------------------
// Phase 1: the model on the real engine + pool sources.
// ---------------------------------------------------------------

fn real_engine_pool_model() -> WorkspaceModel {
    let root = workspace_root();
    let engine = std::fs::read_to_string(root.join("crates/core/src/engine.rs")).unwrap();
    let pool = std::fs::read_to_string(root.join("crates/diffusion/src/pool.rs")).unwrap();
    WorkspaceModel::from_sources(&[
        ("crates/core/src/engine.rs", &engine),
        ("crates/diffusion/src/pool.rs", &pool),
    ])
}

#[test]
fn model_extracts_the_real_lock_fields() {
    let model = real_engine_pool_model();
    let fam = model.struct_named("FamilyCache").expect("FamilyCache");
    assert!(fam
        .fields
        .iter()
        .any(|f| f.name == "map" && f.ty.iter().any(|t| t == "Mutex")));
    let gate = model.struct_named("Gate").expect("Gate");
    assert!(gate.has_condvar, "Gate owns a Condvar (latch struct)");
    assert!(model.is_latch_lock("Gate.done"));
    assert!(!model.is_latch_lock("FamilyCache.map"));
    let pool = model.struct_named("ScratchPool").expect("ScratchPool");
    assert!(pool
        .fields
        .iter()
        .any(|f| f.name == "free" && f.ty.iter().any(|t| t == "Mutex")));
}

#[test]
fn model_extracts_the_real_cache_families() {
    let model = real_engine_pool_model();
    let names: BTreeSet<&str> = model
        .families
        .iter()
        .map(|f| f.struct_name.as_str())
        .collect();
    assert!(names.contains("FamilyCache"), "families: {names:?}");
    // The generic FamilyCache key resolves to its concrete
    // instantiations on ArtifactCache, CelfKey included.
    let fam = model
        .families
        .iter()
        .find(|f| f.struct_name == "FamilyCache")
        .unwrap();
    assert!(fam.generic_key);
    for key in ["SketchKey", "CelfKey", "ScbgKey", "OrderingKey"] {
        assert!(
            fam.concrete_keys.iter().any(|k| k == key),
            "missing {key} in {:?}",
            fam.concrete_keys
        );
    }
}

#[test]
fn model_sees_lock_acquisitions_through_the_helper() {
    let model = real_engine_pool_model();
    // `get_or_try_build` locks the family map through the free
    // `lock(&self.map)` helper and blocks on the gate; both must be
    // visible transitively.
    let acquires = model.transitive_acquires();
    let waits = model.transitive_waits();
    let idx = *model
        .fns_named("get_or_try_build")
        .first()
        .expect("get_or_try_build in the model");
    assert!(
        acquires[idx].contains("FamilyCache.map"),
        "transitive acquires: {:?}",
        acquires[idx]
    );
    assert!(waits[idx], "get_or_try_build can block on the gate");
    // Gate::wait is the direct waiter.
    let widx = *model.fns_named("wait").first().expect("Gate::wait");
    assert!(waits[widx]);
}

#[test]
fn real_engine_pool_acquisition_graph_is_acyclic() {
    let model = real_engine_pool_model();
    let violations = wrules::lockorder(&model);
    assert!(
        violations.is_empty(),
        "expected the real engine/pool lock graph to be clean:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------
// Phase 2 fixtures: each family catches its injected violation.
// ---------------------------------------------------------------

#[test]
fn lockorder_flags_an_injected_cycle() {
    let src = r#"
use std::sync::Mutex;
pub struct A { m: Mutex<u32> }
pub struct B { m: Mutex<u32> }
pub struct Sys { a: A, b: B }
impl Sys {
    fn ab(&self) {
        let _ga = self.a.m.lock().unwrap();
        let _gb = self.b.m.lock().unwrap();
    }
    fn ba(&self) {
        let _gb = self.b.m.lock().unwrap();
        let _ga = self.a.m.lock().unwrap();
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/sys.rs", src)]);
    let violations = wrules::lockorder(&model);
    assert_eq!(
        violations.len(),
        1,
        "one cycle, reported once: {violations:?}"
    );
    assert!(violations[0].message.contains("cycle"));
    assert!(violations[0].message.contains("A.m"));
    assert!(violations[0].message.contains("B.m"));
}

#[test]
fn lockorder_accepts_consistent_order() {
    let src = r#"
use std::sync::Mutex;
pub struct A { m: Mutex<u32> }
pub struct B { m: Mutex<u32> }
pub struct Sys { a: A, b: B }
impl Sys {
    fn one(&self) {
        let _ga = self.a.m.lock().unwrap();
        let _gb = self.b.m.lock().unwrap();
    }
    fn two(&self) {
        let _ga = self.a.m.lock().unwrap();
        let _gb = self.b.m.lock().unwrap();
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/sys.rs", src)]);
    assert!(wrules::lockorder(&model).is_empty());
}

#[test]
fn lockorder_flags_a_gate_wait_under_a_family_lock() {
    let src = r#"
use std::sync::{Condvar, Mutex};
pub struct Gate { done: Mutex<bool>, cv: Condvar }
impl Gate {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}
pub struct Cache { map: Mutex<u32> }
pub struct Sys { cache: Cache, gate: Gate }
impl Sys {
    fn bad(&self) {
        let _g = self.cache.map.lock().unwrap();
        self.gate.wait();
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/sys.rs", src)]);
    let violations = wrules::lockorder(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("Cache.map"));
    assert!(violations[0].message.contains("wait"));
}

#[test]
fn lockorder_accepts_a_wait_after_the_guard_is_dropped() {
    let src = r#"
use std::sync::{Condvar, Mutex};
pub struct Gate { done: Mutex<bool>, cv: Condvar }
impl Gate {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}
pub struct Cache { map: Mutex<u32> }
pub struct Sys { cache: Cache, gate: Gate }
impl Sys {
    fn good(&self) {
        let map = self.cache.map.lock().unwrap();
        drop(map);
        self.gate.wait();
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/sys.rs", src)]);
    assert!(wrules::lockorder(&model).is_empty());
}

/// Builds a model containing the real `lcrb-sync` passthrough source
/// plus one synthetic client file, so the fixtures below exercise
/// acquisitions typed through the facade exactly as `engine.rs` and
/// `pool.rs` now are — including the workspace-defined `Mutex` /
/// `MutexGuard` / `Condvar` wrapper structs being present in the
/// struct index.
fn facade_model(client_src: &str) -> WorkspaceModel {
    let root = workspace_root();
    let pass = std::fs::read_to_string(root.join("crates/sync/src/pass.rs")).unwrap();
    WorkspaceModel::from_sources(&[
        ("crates/sync/src/pass.rs", &pass),
        ("crates/fake/src/sys.rs", client_src),
    ])
}

#[test]
fn lockorder_flags_an_injected_cycle_through_the_facade() {
    // Same cycle as `lockorder_flags_an_injected_cycle`, but the lock
    // fields are the facade's `lcrb_sync::Mutex` — the swap-in type
    // the engine and pool now use. The analyzer must keep resolving
    // these as lock acquisitions rather than treating the wrapper as
    // an opaque workspace struct.
    let src = r#"
use lcrb_sync::Mutex;
pub struct A { m: Mutex<u32> }
pub struct B { m: Mutex<u32> }
pub struct Sys { a: A, b: B }
impl Sys {
    fn ab(&self) {
        let _ga = self.a.m.lock().unwrap();
        let _gb = self.b.m.lock().unwrap();
    }
    fn ba(&self) {
        let _gb = self.b.m.lock().unwrap();
        let _ga = self.a.m.lock().unwrap();
    }
}
"#;
    let model = facade_model(src);
    let violations = wrules::lockorder(&model);
    assert_eq!(
        violations.len(),
        1,
        "one cycle through the facade, reported once: {violations:?}"
    );
    assert!(violations[0].message.contains("cycle"));
    assert!(violations[0].message.contains("A.m"));
    assert!(violations[0].message.contains("B.m"));
}

#[test]
fn lockorder_flags_a_gate_wait_through_the_facade() {
    // The wait-under-lock hazard with both the held lock and the
    // latch built from facade types must still be caught.
    let src = r#"
use lcrb_sync::{Condvar, Mutex};
pub struct Gate { done: Mutex<bool>, cv: Condvar }
impl Gate {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap();
        while !*done {
            done = self.cv.wait(done).unwrap();
        }
    }
}
pub struct Cache { map: Mutex<u32> }
pub struct Sys { cache: Cache, gate: Gate }
impl Sys {
    fn bad(&self) {
        let _g = self.cache.map.lock().unwrap();
        self.gate.wait();
    }
}
"#;
    let model = facade_model(src);
    let violations = wrules::lockorder(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("Cache.map"));
    assert!(violations[0].message.contains("wait"));
}

#[test]
fn facade_wrappers_do_not_pollute_chain_typing() {
    // With `crates/sync/src/pass.rs` in the model, the struct index
    // contains workspace structs literally named `Mutex`, `MutexGuard`
    // and `Condvar`. Field-type resolution must treat them as
    // transparent primitives (like their `std::sync` namesakes), so a
    // clean consistent-order client stays clean instead of the
    // wrapper's own internals being chased as client lock state.
    let src = r#"
use lcrb_sync::Mutex;
pub struct A { m: Mutex<u32> }
pub struct B { m: Mutex<u32> }
pub struct Sys { a: A, b: B }
impl Sys {
    fn one(&self) {
        let _ga = self.a.m.lock().unwrap();
        let _gb = self.b.m.lock().unwrap();
    }
}
"#;
    let model = facade_model(src);
    assert!(wrules::lockorder(&model).is_empty());
    // The lock fields resolve as locks on the *client* structs.
    let a = model.struct_named("A").expect("client struct A");
    assert!(a
        .fields
        .iter()
        .any(|f| f.name == "m" && f.ty.iter().any(|t| t == "Mutex")));
}

#[test]
fn epochkey_flags_a_key_without_the_epoch_component() {
    let src = r#"
use std::collections::BTreeMap;
use std::sync::Mutex;
pub struct PlainKey { pub n: u32 }
pub struct Family { map: Mutex<BTreeMap<PlainKey, u64>> }
impl Family {
    fn get(&self, key: PlainKey) -> u64 { 0 }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/cache.rs", src)]);
    let violations = wrules::epochkey(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("PlainKey"));
}

#[test]
fn epochkey_accepts_an_epoch_param_or_epoch_in_key() {
    let with_param = r#"
use std::collections::BTreeMap;
use std::sync::Mutex;
pub struct PlainKey { pub n: u32 }
pub struct Family { map: Mutex<BTreeMap<PlainKey, u64>> }
impl Family {
    fn get(&self, key: PlainKey, epoch: u64) -> u64 { 0 }
}
"#;
    let with_field = r#"
use std::collections::BTreeMap;
use std::sync::Mutex;
pub struct StampedKey { pub epoch: u64, pub n: u32 }
pub struct Family { map: Mutex<BTreeMap<StampedKey, u64>> }
impl Family {
    fn get(&self, key: StampedKey) -> u64 { 0 }
}
"#;
    for src in [with_param, with_field] {
        let model = WorkspaceModel::from_sources(&[("crates/fake/src/cache.rs", src)]);
        assert!(wrules::epochkey(&model).is_empty());
    }
}

#[test]
fn epochkey_allow_marks_a_justified_key_lookup() {
    let src = r#"
use std::collections::BTreeMap;
use std::sync::Mutex;
pub struct PlainKey { pub n: u32 }
pub struct Family { map: Mutex<BTreeMap<PlainKey, u64>> }
impl Family {
    // xtask-allow: epochkey -- the family is cleared wholesale on every invalidation
    fn get(&self, key: PlainKey) -> u64 { 0 }
}
"#;
    let violations = lint("crates/fake/src/cache.rs", src);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn epochkey_flags_a_mutation_that_skips_the_bump() {
    let src = r#"
use std::collections::BTreeMap;
use std::sync::Mutex;
pub struct Family { map: Mutex<BTreeMap<u8, u64>> }
pub struct Session { epoch: u64, cache: Family, value: u32 }
impl Session {
    fn set_value(&mut self, v: u32) {
        self.value = v;
    }
    fn set_value_properly(&mut self, v: u32) {
        self.value = v;
        self.invalidate();
    }
    fn invalidate(&mut self) {
        self.epoch += 1;
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/session.rs", src)]);
    let violations = wrules::epochkey(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("set_value"));
    assert!(!violations[0].message.contains("set_value_properly"));
}

#[test]
fn epochkey_ignores_epoch_counters_outside_cache_owners() {
    // A generation-stamp epoch on a plain workspace struct (no cache
    // family anywhere near it) is not session state.
    let src = r#"
pub struct Stamped { epoch: u32, buf: Vec<u32> }
impl Stamped {
    fn push(&mut self, v: u32) {
        self.buf = vec![v];
    }
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/ws.rs", src)]);
    assert!(wrules::epochkey(&model).is_empty());
}

#[test]
fn hotreach_flags_an_allocating_helper_reachable_from_a_kernel() {
    let src = r#"
pub fn sigma_with(x: u32) -> u32 {
    helper(x)
}
fn helper(x: u32) -> u32 {
    let v = vec![x];
    v.len() as u32
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/kernel.rs", src)]);
    let violations = wrules::hotreach(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].message.contains("helper"));
    assert!(violations[0].message.contains("sigma_with"));
    assert!(violations[0].message.contains("vec"));
}

#[test]
fn hotreach_ignores_helpers_not_reachable_from_kernels() {
    let src = r#"
pub fn cold_entry(x: u32) -> u32 {
    helper(x)
}
fn helper(x: u32) -> u32 {
    let v = vec![x];
    v.len() as u32
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/cold.rs", src)]);
    assert!(wrules::hotreach(&model).is_empty());
}

#[test]
fn pubapi_reports_missing_baseline_then_diffs_drift() {
    let src = r#"
pub struct Thing { pub n: u32 }
pub fn make_thing(n: u32) -> Thing { Thing { n } }
"#;
    let model = WorkspaceModel::from_sources(&[("crates/fake/src/api.rs", src)]);
    let surface = wrules::api_surface(&model);
    assert!(surface.iter().any(|l| l.contains("struct Thing")));
    assert!(surface.iter().any(|l| l.contains("fn make_thing")));

    // Missing baseline: exactly one violation pointing at --bless-api.
    let missing = wrules::pubapi_diff(None, &surface);
    assert_eq!(missing.len(), 1);
    assert!(missing[0].message.contains("--bless-api"));

    // Matching baseline (comments ignored): clean.
    let mut baseline = String::from("# comment line\n");
    for l in &surface {
        baseline.push_str(l);
        baseline.push('\n');
    }
    assert!(wrules::pubapi_diff(Some(&baseline), &surface).is_empty());

    // Drift both ways: an added item and a removed one.
    let mut drifted = baseline.clone();
    drifted.push_str("crates/fake/src/api.rs struct Gone\n");
    let violations = wrules::pubapi_diff(Some(&drifted), &surface);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("removed"));
    assert!(violations[0].message.contains("struct Gone"));

    let smaller: Vec<String> = surface
        .iter()
        .filter(|l| !l.contains("make_thing"))
        .cloned()
        .collect();
    let violations = wrules::pubapi_diff(Some(&baseline), &smaller);
    assert_eq!(violations.len(), 1);
    assert!(violations[0].message.contains("removed"));
}

#[test]
fn pubapi_takes_no_pragmas() {
    // Drift is reported against the baseline file, never a source
    // line, so a `pubapi` pragma can only ever be unused.
    let src = r#"
// xtask-allow: pubapi -- trying to wave an API change through
pub fn make_thing(n: u32) -> u32 { n }
"#;
    let violations = lint("crates/fake/src/api.rs", src);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "allow");
    assert!(violations[0].message.contains("unused"));
}

#[test]
fn api_surface_is_deterministic_and_sorted() {
    let model = real_engine_pool_model();
    let a = wrules::api_surface(&model);
    let b = wrules::api_surface(&model);
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort();
    assert_eq!(a, sorted);
}

// ---------------------------------------------------------------
// Phase 2: `cancelpoint` on synthetic fixtures.
// ---------------------------------------------------------------

/// A hot-module path so the fixture falls inside the rule's scope.
const HOT_FIXTURE: &str = "crates/diffusion/src/sketch.rs";

#[test]
fn cancelpoint_flags_an_unmetered_kernel_loop() {
    let src = r#"
pub fn drain(n: u32) -> u32 {
    let mut acc = 0;
    while acc < n {
        acc += sigma_with(acc);
    }
    acc
}
"#;
    let model = WorkspaceModel::from_sources(&[(HOT_FIXTURE, src)]);
    let violations = wrules::cancelpoint(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "cancelpoint");
    assert_eq!(violations[0].line, 4);
    assert!(violations[0].message.contains("sigma_with"));
    assert!(violations[0].message.contains("drain"));
}

#[test]
fn cancelpoint_accepts_a_direct_poll_in_the_loop() {
    let src = r#"
pub fn drain(n: u32, meter: &WorkMeter) -> u32 {
    let mut acc = 0;
    while acc < n {
        meter.poll();
        acc += sigma_with(acc);
    }
    acc
}
"#;
    let model = WorkspaceModel::from_sources(&[(HOT_FIXTURE, src)]);
    assert!(wrules::cancelpoint(&model).is_empty());
}

#[test]
fn cancelpoint_accepts_a_checkpoint_reached_through_a_helper() {
    let src = r#"
pub fn drain(n: u32, meter: &WorkMeter) -> u32 {
    let mut acc = 0;
    while acc < n {
        checkpoint(meter);
        acc += sigma_with(acc);
    }
    acc
}
fn checkpoint(meter: &WorkMeter) {
    meter.charge_sims(1);
}
"#;
    let model = WorkspaceModel::from_sources(&[(HOT_FIXTURE, src)]);
    assert!(wrules::cancelpoint(&model).is_empty());
}

#[test]
fn cancelpoint_accepts_an_internally_metered_kernel() {
    // The metered kernels poll for themselves, so a loop driving one
    // needs no redundant outer checkpoint.
    let src = r#"
pub fn drain(n: u32, meter: &WorkMeter) -> u32 {
    let mut acc = 0;
    while acc < n {
        acc += rr_sketch_batch_into(acc, meter);
    }
    acc
}
fn rr_sketch_batch_into(x: u32, meter: &WorkMeter) -> u32 {
    meter.poll();
    x + 1
}
"#;
    let model = WorkspaceModel::from_sources(&[(HOT_FIXTURE, src)]);
    assert!(wrules::cancelpoint(&model).is_empty());
}

#[test]
fn cancelpoint_flags_a_kernel_behind_an_unlimited_meter() {
    // The wrapper reaches `poll`, but only on a meter that never stops,
    // so the loop still cannot observe a cancel or a deadline.
    let src = r#"
pub fn drain(n: u32) -> u32 {
    let mut acc = 0;
    while acc < n {
        acc += estimate(acc);
    }
    acc
}
fn estimate(x: u32) -> u32 {
    rr_sketch_batch_into(x, &WorkMeter::unlimited())
}
fn rr_sketch_batch_into(x: u32, meter: &WorkMeter) -> u32 {
    meter.poll();
    x + 1
}
"#;
    let model = WorkspaceModel::from_sources(&[(HOT_FIXTURE, src)]);
    let violations = wrules::cancelpoint(&model);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].line, 4);
    assert!(violations[0].message.contains("estimate"));
}

#[test]
fn cancelpoint_skips_bounded_for_loops_and_cold_files() {
    // `for` is bounded by its iterator: no checkpoint required.
    let bounded = r#"
pub fn sweep(n: u32) -> u32 {
    let mut acc = 0;
    for i in 0..n {
        acc += sigma_with(i);
    }
    acc
}
"#;
    let model = WorkspaceModel::from_sources(&[(HOT_FIXTURE, bounded)]);
    assert!(wrules::cancelpoint(&model).is_empty());

    // The same unmetered loop outside the hot-module list is out of
    // scope (cold code is free to block; only the kernels must stay
    // cancellable).
    let unmetered = r#"
pub fn drain(n: u32) -> u32 {
    let mut acc = 0;
    while acc < n {
        acc += sigma_with(acc);
    }
    acc
}
"#;
    let model = WorkspaceModel::from_sources(&[("crates/core/src/evaluate.rs", unmetered)]);
    assert!(wrules::cancelpoint(&model).is_empty());
}

#[test]
fn cancelpoint_pragma_suppresses_through_the_lint_pipeline() {
    let src = r#"
pub fn drain(n: u32) -> u32 {
    let mut acc = 0;
    // xtask-allow: cancelpoint -- iterations are pre-charged at the caller's checkpoint
    while acc < n {
        acc += sigma_with(acc);
    }
    acc
}
"#;
    let violations = lint(HOT_FIXTURE, src);
    assert!(violations.is_empty(), "{violations:?}");

    // Without the pragma the same pipeline reports it.
    let bare = src.replace(
        "    // xtask-allow: cancelpoint -- iterations are pre-charged at the caller's checkpoint\n",
        "",
    );
    let violations = lint(HOT_FIXTURE, &bare);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].rule, "cancelpoint");
}
