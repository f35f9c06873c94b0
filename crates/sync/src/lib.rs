//! # lcrb-sync
//!
//! Synchronization facade for the LCRB reproduction.
//!
//! The shared concurrent [`Solver`] protocol (DESIGN.md §11) —
//! `FamilyCache` Building/Ready slots, one-shot `Gate` latches, CELF
//! leases, the `ScratchPool` free list and the `solve_many` scoped
//! fan-out — is written against this crate's `Mutex` / `MutexGuard` /
//! `Condvar` / `thread::scope` types instead of `std::sync` directly.
//! That single seam buys two backends:
//!
//! * **std passthrough** (default): `#[inline]` newtype wrappers over
//!   the `std::sync` primitives. No extra state, no branches — release
//!   codegen is the same as using `std::sync` directly.
//! * **deterministic cooperative scheduler** (`sched` feature): a
//!   model-checking backend that serializes logical threads so that at
//!   most one runs at a time, makes every context switch an explicit
//!   recorded decision, and explores the decision tree either
//!   exhaustively (bounded DFS) or randomly (seed-driven PRNG).
//!   Condvar wait/notify is modeled with explicit wakeup sets, so lost
//!   wakeups manifest as observable deadlocks; a fault registry lets a
//!   test make a chosen code path panic on its Nth execution to
//!   exercise drop-guard recovery paths. Every failing exploration
//!   reports a replay seed plus decision string that reproduces the
//!   schedule deterministically (see the `sched` module).
//!
//! With the `sched` feature enabled but **no model run active**, every
//! operation falls through to the plain std behaviour after one
//! thread-local check. This matters because cargo feature unification
//! turns the feature on for entire test builds: ordinary tests keep
//! their ordinary semantics, and only code executed inside
//! `sched::explore_dfs` / `sched::explore_seeds` / `sched::replay`
//! is scheduled by the model.
//!
//! [`Solver`]: ../lcrb/engine/struct.Solver.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub use std::sync::{LockResult, PoisonError};

pub mod fault;

#[cfg(not(feature = "sched"))]
mod pass;
#[cfg(not(feature = "sched"))]
pub use pass::{thread, Condvar, Mutex, MutexGuard};

#[cfg(feature = "sched")]
pub mod sched;
#[cfg(feature = "sched")]
pub use sched::facade::{thread, Condvar, Mutex, MutexGuard};
