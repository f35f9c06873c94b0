//! Randomized cancellation/budget stress for the shared `Solver`
//! session: `solve_many` batches with per-request budgets drawn at
//! random (work-unit caps, advisory deadlines, pre-armed and
//! mid-flight cancel tokens) racing a batch-wide cancel — one token
//! shared by every request that has none of its own. The point is
//! not the answers — it is the absence of the failure modes the
//! anytime contract forbids: hangs, panics, poisoned `FamilyCache`
//! slots, and stranded `Gate` waiters.
//!
//! CI passes a per-build random seed through `LCRB_STRESS_SEED` (it
//! is logged to the step summary); locally a fixed seed runs. The
//! seed is printed so any failure is reproducible from the logs.

use std::time::Duration;

use lcrb_repro::graph::generators;
use lcrb_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn instance(seed: u64) -> RumorBlockingInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (g, labels) = generators::planted_partition(&[30, 30], 0.25, 0.05, false, &mut rng)
        .expect("community sizes are positive");
    let partition = Partition::from_labels(labels);
    RumorBlockingInstance::with_random_seeds(g, partition, 0, 2, &mut rng)
        .expect("pinned community is non-empty")
}

/// One randomized budget: unlimited, a work-unit cap, or a short
/// advisory deadline.
fn random_budget(rng: &mut SmallRng) -> RunBudget {
    match rng.gen_range(0..5u32) {
        0 | 1 => RunBudget::unlimited(),
        2 => RunBudget::unlimited().with_max_sims(rng.gen_range(0..1500)),
        3 => RunBudget::unlimited().with_max_advances(rng.gen_range(0..3)),
        _ => RunBudget::unlimited().with_deadline(Duration::from_micros(rng.gen_range(0..2000))),
    }
}

fn random_request(rng: &mut SmallRng) -> SolveRequest {
    let estimator = if rng.gen_range(0..2u32) == 0 {
        Estimator::MonteCarlo
    } else {
        Estimator::Sketch(SketchParams::default())
    };
    SolveRequest {
        realizations: 8,
        candidates: CandidatePool::BackwardRadius(2),
        estimator,
        threads: rng.gen_range(1..4),
        ..SolveRequest::greedy_budget(rng.gen_range(1..4usize))
    }
    .with_budget(random_budget(rng))
}

#[test]
fn randomized_budgets_and_cancellation_never_poison_the_session() {
    let seed = std::env::var("LCRB_STRESS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(0xB0_A710AD);
    println!("cancellation stress seed: {seed}");
    let mut rng = SmallRng::seed_from_u64(seed);
    let inst = instance(seed);

    for round in 0..4 {
        let solver = Solver::new(inst.clone());
        let batch_token = CancelToken::new();
        let mut batch = Vec::new();
        let mut live_tokens = Vec::new();
        for _ in 0..8 {
            let mut req = random_request(&mut rng);
            match rng.gen_range(0..4u32) {
                // A quarter of the requests carry a pre-tripped token:
                // they must fail fast at the entry checkpoint.
                0 => {
                    let token = CancelToken::new();
                    token.cancel();
                    req = req.with_cancel(token);
                }
                // Another quarter get a token the canceller thread
                // flips somewhere mid-flight.
                1 => {
                    let token = CancelToken::new();
                    live_tokens.push(token.clone());
                    req = req.with_cancel(token);
                }
                // The rest share the batch-wide token.
                _ => req = req.with_cancel(batch_token.clone()),
            }
            batch.push(req);
        }

        let delay = Duration::from_micros(rng.gen_range(0..3000));
        let reports = std::thread::scope(|scope| {
            let canceller = scope.spawn({
                let batch_token = batch_token.clone();
                let live_tokens = live_tokens.clone();
                move || {
                    std::thread::sleep(delay);
                    for token in &live_tokens {
                        token.cancel();
                    }
                    // Every other round also trips the batch-wide
                    // cancel mid-flight.
                    if round % 2 == 0 {
                        batch_token.cancel();
                    }
                }
            });
            let reports = solver.solve_many_threaded(&batch, 4);
            canceller.join().expect("canceller thread");
            reports
        });

        // No hangs (we got here), no panics, and every slot resolved
        // to a legal outcome: an exact or degraded report, or a typed
        // interruption.
        assert_eq!(reports.len(), batch.len());
        for (req, slot) in batch.iter().zip(&reports) {
            match slot {
                Ok(report) => {
                    if report.completion.is_exact() {
                        assert!(!report.is_degraded());
                    }
                    if let StopRule::Budget(b) = req.stop {
                        assert!(report.protectors.len() <= b);
                    }
                }
                Err(LcrbError::Interrupted { .. }) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }

        // Recovery: the same session, stripped of budgets and tokens,
        // answers every request exactly and cold-equal — no poisoned
        // slot or stranded gate survives the chaos.
        let fresh = Solver::new(inst.clone());
        for req in &batch {
            let mut plain = req.clone().with_budget(RunBudget::unlimited());
            plain.cancel = None;
            let recovered = solver.solve(&plain).expect("recovery solve");
            assert!(recovered.completion.is_exact());
            let cold = fresh.solve(&plain).expect("cold reference solve");
            assert_eq!(recovered.protectors, cold.protectors);
        }

        // Cache-stat consistency: with every artifact rebuilt, a full
        // replay of the recovery set is pure hits.
        let before = solver.cache_stats();
        for req in &batch {
            let mut plain = req.clone().with_budget(RunBudget::unlimited());
            plain.cancel = None;
            solver.solve(&plain).expect("replay solve");
        }
        let delta = solver.cache_stats().delta_since(&before);
        assert_eq!(delta.misses(), 0, "replay after recovery must not rebuild");
        assert!(delta.hits() > 0);
    }
}
