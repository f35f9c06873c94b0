//! Property harness for work-unit budgets (DESIGN.md §12): degraded
//! solves are *bitwise reproducible*. Deadlines are advisory —
//! wall-clock stops land wherever the clock says — but `max_sims` /
//! `max_advances` budgets are checked only at deterministic
//! checkpoint boundaries, so the same budget must cut the same solve
//! at the same checkpoint every time:
//!
//! 1. a work-budget solve produces the identical report (selection,
//!    σ̂ bits, and `Completion` payload) at every inner-sweep thread
//!    count in {1, 2, 7} on fresh sessions — parallel workers
//!    partition work but budget arithmetic happens at serial
//!    boundaries;
//! 2. an advance-capped solve is the bitwise *prefix* of the
//!    uncancelled run: same first-n picks, same first-n σ̂ bits —
//!    degradation never reorders or re-optimizes what was already
//!    selected;
//! 3. both hold for the Monte-Carlo estimator under `max_sims` and
//!    the RR-sketch estimator under `max_advances` (a sketch solve
//!    charges no simulations, so the advance cap is what degrades it).
//!
//! "Bitwise" means protector identity **and** σ̂ compared via
//! `to_bits`, plus the full `Completion` value — checkpoint counts
//! are part of the reproducibility contract.

use lcrb_repro::graph::generators;
use lcrb_repro::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const THREADS: [usize; 3] = [1, 2, 7];

/// A small two-community instance drawn from `seed`.
fn instance(seed: u64) -> RumorBlockingInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (g, labels) = generators::planted_partition(&[30, 30], 0.25, 0.05, false, &mut rng)
        .expect("community sizes are positive");
    let partition = Partition::from_labels(labels);
    RumorBlockingInstance::with_random_seeds(g, partition, 0, 2, &mut rng)
        .expect("pinned community is non-empty")
}

fn request(budget: usize, threads: usize, estimator: Estimator) -> SolveRequest {
    SolveRequest {
        realizations: 8,
        candidates: CandidatePool::BackwardRadius(2),
        estimator,
        threads,
        ..SolveRequest::greedy_budget(budget)
    }
}

fn session(seed: u64) -> Solver {
    Solver::with_config(instance(seed), SolverConfig { master_seed: 5 })
}

/// Everything a budgeted greedy solve decides: the selection, the σ̂
/// history as raw bits, and the completion status with its
/// checkpoint counts.
fn fingerprint(report: &SolveReport) -> (Vec<NodeId>, Vec<u64>, Completion) {
    let SolveDetail::Greedy(sel) = &report.detail else {
        panic!("greedy requests carry greedy details");
    };
    (
        report.protectors.clone(),
        sel.sigma_history.iter().map(|s| s.to_bits()).collect(),
        report.completion,
    )
}

/// Solves one capped request on a fresh session at every thread count
/// in `THREADS` and asserts the fingerprints are identical.
fn assert_thread_count_invariant(
    seed: u64,
    budget: usize,
    est: Estimator,
    cap: RunBudget,
) -> Result<(), TestCaseError> {
    let mut prints = THREADS.iter().map(|&threads| {
        let solver = session(seed);
        let req = request(budget, threads, est).with_budget(cap);
        fingerprint(&solver.solve(&req).expect("budget stops degrade, not error"))
    });
    let first = prints.next().expect("three thread counts");
    for other in prints {
        prop_assert_eq!(&first, &other);
    }
    Ok(())
}

proptest! {
    #[test]
    fn sim_budget_degradation_is_thread_count_invariant(
        seed in 0u64..256,
        budget in 1usize..4,
        max_sims in 0u64..2000,
    ) {
        let cap = RunBudget::unlimited().with_max_sims(max_sims);
        assert_thread_count_invariant(seed, budget, Estimator::MonteCarlo, cap)?;
    }

    #[test]
    fn sketch_budget_degradation_is_thread_count_invariant(
        seed in 0u64..256,
        budget in 1usize..4,
        max_advances in 0u64..4,
    ) {
        // A sketch solve charges no simulations, so the advance cap is
        // what degrades it.
        let cap = RunBudget::unlimited().with_max_advances(max_advances);
        let est = Estimator::Sketch(SketchParams::default());
        assert_thread_count_invariant(seed, budget, est, cap)?;
    }

    #[test]
    fn advance_cap_is_a_bitwise_prefix_of_the_uncancelled_run(
        seed in 0u64..256,
        budget in 2usize..5,
        cap in 1u64..4,
        ti in 0usize..3,
        est_sel in 0usize..2,
    ) {
        let threads = THREADS[ti];
        let est = if est_sel == 0 {
            Estimator::MonteCarlo
        } else {
            Estimator::Sketch(SketchParams::default())
        };
        let req = request(budget, threads, est);
        let exact = session(seed).solve(&req).expect("valid request");
        let capped = session(seed)
            .solve(&req.clone().with_budget(RunBudget::unlimited().with_max_advances(cap)))
            .expect("budget stops degrade, not error");

        let (e_picks, e_bits, _) = fingerprint(&exact);
        let (c_picks, c_bits, completion) = fingerprint(&capped);
        if completion.is_exact() {
            // The cap covered the whole run: identical reports.
            prop_assert!(c_picks.len() <= cap as usize);
            prop_assert_eq!(&c_picks, &e_picks);
            prop_assert_eq!(&c_bits, &e_bits);
        } else {
            // Degraded: exactly the first `cap` checkpoints of the
            // uncancelled run, bit for bit.
            prop_assert_eq!(c_picks.len(), cap as usize);
            prop_assert_eq!(&c_picks[..], &e_picks[..cap as usize]);
            prop_assert_eq!(&c_bits[..], &e_bits[..cap as usize]);
        }
    }

    #[test]
    fn repeated_budgeted_solves_make_monotone_anytime_progress(
        seed in 0u64..256,
        budget in 1usize..4,
        cap in 1u64..3,
    ) {
        // Budgets meter the work a solve *performs*, not the size of
        // its answer: re-asking the same capped request of one session
        // resumes the parked trajectory with a fresh allowance, so
        // each round extends the previous answer (bitwise) until the
        // run completes — and once exact, replays are bitwise stable.
        let exact = fingerprint(&session(seed).solve(
            &request(budget, 2, Estimator::MonteCarlo),
        ).expect("valid request"));
        let solver = session(seed);
        let req = request(budget, 2, Estimator::MonteCarlo)
            .with_budget(RunBudget::unlimited().with_max_advances(cap));
        let mut prev = fingerprint(&solver.solve(&req).expect("valid request"));
        for _ in 0..8 {
            let next = fingerprint(&solver.solve(&req).expect("valid request"));
            // Monotone prefix growth, never reordering.
            prop_assert!(next.0.len() >= prev.0.len());
            prop_assert_eq!(&next.0[..prev.0.len()], &prev.0[..]);
            prop_assert_eq!(&next.1[..prev.1.len()], &prev.1[..]);
            if prev.2.is_exact() {
                // Terminal state: pure bitwise replay from here on.
                prop_assert_eq!(&next, &prev);
            }
            prev = next;
        }
        // Enough rounds always reach the uncancelled answer.
        prop_assert_eq!(prev, exact);
    }
}
