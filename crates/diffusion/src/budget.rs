//! Cooperative cancellation and work budgets for anytime solves.
//!
//! Long-running kernels (Monte-Carlo sweeps, RR-sketch batches, CELF
//! advances) poll a [`WorkMeter`] at deterministic *checkpoint
//! boundaries*: between simulation batches, between sketches, and
//! between greedy picks. A checkpoint either passes or stops the
//! kernel with a typed [`StopReason`] — kernels never observe a
//! half-spent checkpoint, which is what keeps budget-degraded results
//! bitwise-reproducible across thread counts.
//!
//! Two stop families behave differently by design:
//!
//! - **Work-unit caps** ([`RunBudget::max_sims`] /
//!   [`RunBudget::max_advances`]) are counted in deterministic units,
//!   so the same request stops at the same checkpoint on every run and
//!   every worker count.
//! - **Wall-clock deadlines and [`CancelToken`]s** are advisory: they
//!   are observed only at checkpoints, so *where* they land depends on
//!   machine speed, but the result at whichever checkpoint they land
//!   on is still a valid prefix of the uninterrupted computation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared, monotone cancellation flag (`Arc<AtomicBool>`).
///
/// Cloning shares the flag: cancelling any clone cancels them all.
/// Cancellation is cooperative — kernels observe it at their next
/// checkpoint poll, never mid-batch.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Irrevocable: a cancelled token stays
    /// cancelled.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Token identity: two tokens are equal when they share the same
/// underlying flag (clones of one another).
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// Work-unit caps and an optional wall-clock deadline for one solve.
///
/// The default is unlimited in every dimension. Caps are checked at
/// deterministic checkpoint boundaries and are all-or-nothing per
/// checkpoint: a batch either fits under the cap and runs whole, or
/// the kernel stops *before* it — partial batches never contribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Cap on Monte-Carlo simulation runs charged this solve.
    pub max_sims: Option<u64>,
    /// Cap on CELF advances (greedy picks committed) this solve.
    pub max_advances: Option<u64>,
    /// Advisory wall-clock deadline, measured from solve start.
    /// Observed at checkpoints only; see the module docs for why this
    /// is not the reproducible path.
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// A budget with no caps and no deadline — every solve runs to
    /// completion.
    #[must_use]
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Caps Monte-Carlo simulation runs.
    #[must_use]
    pub fn with_max_sims(mut self, max_sims: u64) -> Self {
        self.max_sims = Some(max_sims);
        self
    }

    /// Caps CELF advances (greedy picks).
    #[must_use]
    pub fn with_max_advances(mut self, max_advances: u64) -> Self {
        self.max_advances = Some(max_advances);
        self
    }

    /// Sets an advisory wall-clock deadline measured from solve start.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether no cap or deadline is set at all.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == RunBudget::default()
    }
}

/// Why a kernel stopped early at a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StopReason {
    /// A [`CancelToken`] on the request was raised.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The Monte-Carlo simulation cap was reached.
    SimBudget,
    /// The CELF advance cap was reached.
    AdvanceBudget,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::SimBudget => "simulation budget exhausted",
            StopReason::AdvanceBudget => "advance budget exhausted",
        };
        f.write_str(text)
    }
}

/// Per-solve checkpoint state: the budget, the request's cancellation
/// token, the deadline clock, and the work-unit counters.
///
/// One meter lives for exactly one solve. Charging methods take
/// `&mut self` and run only on serial checkpoint boundaries;
/// [`WorkMeter::poll`] takes `&self` and may be called from worker
/// threads sharing the meter by reference.
#[derive(Debug)]
pub struct WorkMeter {
    budget: RunBudget,
    cancel: Option<CancelToken>,
    started: Option<Instant>,
    sims: u64,
    advances: u64,
}

impl WorkMeter {
    /// A meter for `budget` observing the request's cancellation
    /// token, if any. Starts the deadline clock now if the budget has
    /// one.
    #[must_use]
    pub fn new(budget: RunBudget, cancel: Option<CancelToken>) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "the deadline clock is the one sanctioned wall-clock source; deadlines are advisory and resolve to checkpoint boundaries (see module docs)"
        )]
        let started = budget.deadline.is_some().then(Instant::now);
        WorkMeter {
            budget,
            cancel,
            started,
            sims: 0,
            advances: 0,
        }
    }

    /// A meter that never stops anything — the path every
    /// budget-unaware caller takes.
    #[must_use]
    pub fn unlimited() -> Self {
        WorkMeter::new(RunBudget::unlimited(), None)
    }

    /// Checkpoint poll: observes cancellation and the deadline, never
    /// the work-unit caps. Cheap enough for per-simulation granularity
    /// and callable from worker threads (`&self`).
    ///
    /// # Errors
    ///
    /// [`StopReason::Cancelled`] if the token is raised,
    /// [`StopReason::DeadlineExpired`] if the deadline passed.
    pub fn poll(&self) -> Result<(), StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(StopReason::Cancelled);
        }
        if let (Some(deadline), Some(started)) = (self.budget.deadline, self.started) {
            if started.elapsed() >= deadline {
                return Err(StopReason::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// Checkpoint: charges `n` Monte-Carlo simulation runs,
    /// all-or-nothing. If the batch would cross [`RunBudget::max_sims`]
    /// nothing is charged and the kernel must stop before running it.
    ///
    /// # Errors
    ///
    /// Everything [`WorkMeter::poll`] reports, plus
    /// [`StopReason::SimBudget`] when the batch does not fit.
    pub fn charge_sims(&mut self, n: u64) -> Result<(), StopReason> {
        self.poll()?;
        if let Some(cap) = self.budget.max_sims {
            if self.sims.saturating_add(n) > cap {
                return Err(StopReason::SimBudget);
            }
        }
        self.sims = self.sims.saturating_add(n);
        Ok(())
    }

    /// Whether the CELF advance cap is already spent. Checked at the
    /// top of each greedy iteration; charging happens separately via
    /// [`WorkMeter::note_advance`] when a pick actually commits, so
    /// lazy re-score iterations are never double-charged.
    #[must_use]
    pub fn advances_exhausted(&self) -> bool {
        self.budget
            .max_advances
            .is_some_and(|cap| self.advances >= cap)
    }

    /// Records one committed CELF advance (greedy pick). Infallible:
    /// the cap is enforced by [`WorkMeter::advances_exhausted`] before
    /// the pick's work starts.
    pub fn note_advance(&mut self) {
        self.advances = self.advances.saturating_add(1);
    }

    /// Whether any poll can ever stop a kernel (a token or deadline is
    /// in scope). Engines use this to decide when results may depend
    /// on interruption and shared caches must be bypassed.
    #[must_use]
    pub fn polls_needed(&self) -> bool {
        self.cancel.is_some() || self.budget.deadline.is_some()
    }

    /// Work-unit counters charged so far: `(sims, advances)`.
    #[must_use]
    pub fn spent(&self) -> (u64, u64) {
        (self.sims, self.advances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_meter_never_stops() {
        let budget = RunBudget::unlimited();
        assert!(budget.is_unlimited());
        let mut meter = WorkMeter::unlimited();
        assert!(meter.poll().is_ok());
        assert!(meter.charge_sims(1_000_000).is_ok());
        assert!(!meter.advances_exhausted());
        assert!(!meter.polls_needed());
        assert_eq!(meter.spent(), (1_000_000, 0));
    }

    #[test]
    fn cancel_token_is_shared_and_monotone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(token, clone);
        assert_ne!(token, CancelToken::new());
    }

    #[test]
    fn poll_observes_the_request_token() {
        let request = CancelToken::new();
        let meter = WorkMeter::new(RunBudget::unlimited(), Some(request.clone()));
        assert!(meter.polls_needed());
        assert!(meter.poll().is_ok());
        request.cancel();
        assert_eq!(meter.poll(), Err(StopReason::Cancelled));
    }

    #[test]
    fn sim_charges_are_all_or_nothing() {
        let mut meter = WorkMeter::new(RunBudget::unlimited().with_max_sims(10), None);
        assert!(meter.charge_sims(6).is_ok());
        // 6 + 5 > 10: rejected whole, nothing charged...
        assert_eq!(meter.charge_sims(5), Err(StopReason::SimBudget));
        // ...so an exact-fit batch still passes.
        assert!(meter.charge_sims(4).is_ok());
        assert_eq!(meter.charge_sims(1), Err(StopReason::SimBudget));
        assert_eq!(meter.spent().0, 10);
    }

    #[test]
    fn advances_check_then_note_never_double_charges() {
        let mut meter = WorkMeter::new(RunBudget::unlimited().with_max_advances(2), None);
        assert!(!meter.advances_exhausted());
        meter.note_advance();
        assert!(!meter.advances_exhausted());
        meter.note_advance();
        assert!(meter.advances_exhausted());
        assert_eq!(meter.spent().1, 2);
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let meter = WorkMeter::new(RunBudget::unlimited().with_deadline(Duration::ZERO), None);
        assert!(meter.polls_needed());
        assert_eq!(meter.poll(), Err(StopReason::DeadlineExpired));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let meter = WorkMeter::new(
            RunBudget::unlimited().with_deadline(Duration::from_secs(3600)),
            None,
        );
        assert!(meter.poll().is_ok());
    }

    #[test]
    fn cancellation_outranks_the_work_caps() {
        let token = CancelToken::new();
        token.cancel();
        let mut meter = WorkMeter::new(RunBudget::unlimited().with_max_sims(0), Some(token));
        assert_eq!(meter.charge_sims(1), Err(StopReason::Cancelled));
    }

    #[test]
    fn stop_reasons_display() {
        for (reason, text) in [
            (StopReason::Cancelled, "cancelled"),
            (StopReason::DeadlineExpired, "deadline expired"),
            (StopReason::SimBudget, "simulation budget exhausted"),
            (StopReason::AdvanceBudget, "advance budget exhausted"),
        ] {
            assert_eq!(reason.to_string(), text);
        }
    }
}
