//! Named fault-injection points.
//!
//! Library code marks interesting failure sites with
//! [`point`]`("name")`. Under the default std backend — and under the
//! `sched` backend when no model run is active — a point is a no-op.
//! Inside a model run, a test can arm a point with
//! `sched::arm_fault("name", n)` (`sched` feature) so that the `n`-th
//! execution of that point panics with a recognizable payload,
//! exercising the drop-guard recovery path around it.
//!
//! Point names used by the workspace:
//!
//! | name            | site                                              |
//! |-----------------|---------------------------------------------------|
//! | `family.build`  | inside `FamilyCache::get_or_try_build`, after the |
//! |                 | miss is charged, before the builder closure runs  |
//! | `celf.advance`  | in `solve_greedy`, after `CelfCache::take`,       |
//! |                 | before the trajectory is advanced/stored          |
//! | `scratch.lease` | in `ScratchPool::lease`, after the scratch value  |
//! |                 | is removed from the free list                     |

/// Marker message prefix carried by every injected-fault panic.
pub const FAULT_PANIC_PREFIX: &str = "lcrb-sync injected fault";

/// Executes the named fault point.
///
/// No-op unless a model run is active **and** a test armed this name;
/// then the armed execution panics with
/// [`FAULT_PANIC_PREFIX`]` at '<name>'`.
#[inline]
pub fn point(name: &str) {
    #[cfg(feature = "sched")]
    crate::sched::fault_point(name);
    #[cfg(not(feature = "sched"))]
    let _ = name;
}
