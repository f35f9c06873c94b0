//! Greedy set cover (Algorithm 2 of the paper) with lazy evaluation,
//! plus the `H(n)` approximation bound.
//!
//! Theorem 2/3 of the paper reduce LCRB-D to set cover: greedy gives
//! the optimal-up-to-constants `O(ln n)` factor, and no polynomial
//! algorithm does asymptotically better unless P = NP (Feige).
//!
//! The cover runs on one CSR set table: row offsets plus one flat
//! `u32` element array, each row free of repeats. SCBG fills the table
//! directly from its Bridge-end Backward Search Trees (two passes, see
//! `crate::scbg`); [`greedy_set_cover`] flattens a `&[Vec<u32>]` into
//! the same table, sorting and deduplicating each set. A set's gain is
//! therefore the number of *distinct* uncovered elements it holds, as
//! Algorithm 2 defines it.

// xtask-allow-file: index -- element and set ids are dense indices assigned by this module's own builder over one arena
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lcrb_diffusion::{StopReason, WorkMeter};

/// The result of a greedy set cover run.
#[derive(Clone, Debug, PartialEq)]
pub struct SetCoverSolution {
    /// Indices of the selected sets, in selection order.
    pub selected: Vec<usize>,
    /// Number of universe elements covered by the selection.
    pub covered: usize,
}

/// A set system in CSR form: set `i` holds the elements
/// `items[offsets[i]..offsets[i + 1]]`.
///
/// Invariants, upheld by every builder: `offsets` starts at 0, never
/// decreases and ends at `items.len()`; no row repeats an element.
#[derive(Debug)]
pub(crate) struct SetTable {
    /// Row boundaries, one more than the number of sets.
    pub(crate) offsets: Vec<usize>,
    /// Every row's elements, back to back.
    pub(crate) items: Vec<u32>,
}

impl SetTable {
    /// The number of sets.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The elements of set `i`.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Classic greedy set cover: repeatedly pick the set covering the
/// most uncovered elements, until the universe is covered or no set
/// adds coverage. Ties go to the lowest set index.
///
/// Elements are integers in `0..universe_size`; `sets[i]` lists the
/// elements of set `i`. A repeated element counts once: a set's gain
/// is the number of distinct uncovered elements it holds. Implemented
/// with lazy (CELF-style) evaluation: stale heap entries are
/// re-scored on pop, which is sound because coverage gain only
/// shrinks as elements get covered.
///
/// If some elements appear in no set, they stay uncovered and
/// `covered < universe_size` on return.
///
/// # Panics
///
/// Panics if a set contains an element `>= universe_size`.
///
/// # Examples
///
/// ```
/// use lcrb::setcover::greedy_set_cover;
///
/// let sets = vec![vec![0, 1, 2], vec![2, 3], vec![3, 4], vec![0, 4]];
/// let sol = greedy_set_cover(5, &sets);
/// assert_eq!(sol.covered, 5);
/// assert!(sol.selected.len() <= 3);
/// ```
#[must_use]
pub fn greedy_set_cover(universe_size: usize, sets: &[Vec<u32>]) -> SetCoverSolution {
    let mut table = SetTable {
        offsets: vec![0],
        items: Vec::new(),
    };
    let mut row = Vec::new();
    for (i, s) in sets.iter().enumerate() {
        for &e in s {
            assert!(
                (e as usize) < universe_size,
                "set {i} contains element {e} outside universe of size {universe_size}"
            );
        }
        row.clone_from(s);
        row.sort_unstable();
        row.dedup();
        table.items.extend_from_slice(&row);
        table.offsets.push(table.items.len());
    }
    let (solution, _) = greedy_set_cover_metered(universe_size, &table, &WorkMeter::unlimited())
        // xtask-allow: panic -- an unlimited meter's poll never stops the cover loop
        .expect("unlimited meter cannot stop the cover");
    solution
}

/// [`greedy_set_cover`] on a [`SetTable`] under a [`WorkMeter`]: the
/// meter is polled before each heap pop, so a deadline stop keeps the
/// selection prefix built so far (a valid partial cover) while a
/// cancellation aborts.
///
/// Returns `Some(reason)` alongside the (then partial) solution when
/// a deadline stopped the loop; work-unit caps do not apply to set
/// cover. Every element of `sets` must be below `universe_size`.
///
/// # Errors
///
/// [`StopReason::Cancelled`] when a poll observes cancellation.
pub(crate) fn greedy_set_cover_metered(
    universe_size: usize,
    sets: &SetTable,
    meter: &WorkMeter,
) -> Result<(SetCoverSolution, Option<StopReason>), StopReason> {
    let mut covered = vec![false; universe_size];
    let mut covered_count = 0usize;
    let mut selected = Vec::new();
    let mut stop = None;

    // Heap of (gain, set index); gains may be stale and are re-scored
    // on pop. Rows hold no repeats, so a row's length is its gain.
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = (0..sets.len())
        .map(|i| (sets.row(i).len(), Reverse(i)))
        .collect();
    let fresh_gain = |i: usize, covered: &[bool]| {
        sets.row(i)
            .iter()
            .filter(|&&e| !covered[e as usize])
            .count()
    };

    while covered_count < universe_size {
        match meter.poll() {
            Ok(()) => {}
            Err(StopReason::Cancelled) => return Err(StopReason::Cancelled),
            Err(reason) => {
                stop = Some(reason);
                break;
            }
        }
        let Some((claimed, Reverse(i))) = heap.pop() else {
            break;
        };
        if claimed == 0 {
            break;
        }
        let gain = fresh_gain(i, &covered);
        if gain < claimed {
            if gain > 0 {
                heap.push((gain, Reverse(i)));
            }
            continue;
        }
        selected.push(i);
        for &e in sets.row(i) {
            if !covered[e as usize] {
                covered[e as usize] = true;
                covered_count += 1;
            }
        }
    }
    Ok((
        SetCoverSolution {
            selected,
            covered: covered_count,
        },
        stop,
    ))
}

/// The harmonic number `H(n) = 1 + 1/2 + ... + 1/n`, the greedy set
/// cover approximation factor (Theorem 2: greedy SCBG is an
/// `H(|B|) = O(ln |B|)` approximation).
#[must_use]
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|k| 1.0 / k as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_simple_instance() {
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let sol = greedy_set_cover(4, &sets);
        assert_eq!(sol.covered, 4);
        assert_eq!(sol.selected.len(), 2);
        assert!(sol.selected.contains(&0));
        assert!(sol.selected.contains(&2));
    }

    #[test]
    fn picks_largest_first() {
        let sets = vec![vec![0], vec![0, 1, 2, 3], vec![3, 4]];
        let sol = greedy_set_cover(5, &sets);
        assert_eq!(sol.selected[0], 1);
        assert_eq!(sol.covered, 5);
    }

    #[test]
    fn uncoverable_elements_reported() {
        let sets = vec![vec![0, 1]];
        let sol = greedy_set_cover(3, &sets);
        assert_eq!(sol.covered, 2);
        assert_eq!(sol.selected, vec![0]);
    }

    #[test]
    fn empty_inputs() {
        let sol = greedy_set_cover(0, &[]);
        assert_eq!(sol.covered, 0);
        assert!(sol.selected.is_empty());
        let sol = greedy_set_cover(3, &[]);
        assert_eq!(sol.covered, 0);
        // Empty sets are never selected.
        let sol = greedy_set_cover(2, &[vec![], vec![0, 1]]);
        assert_eq!(sol.selected, vec![1]);
    }

    #[test]
    fn duplicate_elements_in_a_set_are_harmless() {
        let sets = vec![vec![0, 0, 1, 1]];
        let sol = greedy_set_cover(2, &sets);
        assert_eq!(sol.covered, 2);
    }

    #[test]
    fn repeated_elements_count_once_in_the_gain() {
        // Set 0 repeats one element five times; set 1 alone covers
        // the universe and must be the only pick.
        let sets = vec![vec![0, 0, 0, 0, 0], vec![0, 1, 2, 3]];
        let sol = greedy_set_cover(4, &sets);
        assert_eq!(sol.selected, vec![1]);
        assert_eq!(sol.covered, 4);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_universe_elements() {
        let _ = greedy_set_cover(2, &[vec![5]]);
    }

    #[test]
    fn greedy_respects_harmonic_bound_on_known_optimum() {
        // Universe 0..12 covered optimally by 3 disjoint sets of 4;
        // decoys force greedy to behave. Greedy <= H(12) * 3.
        let sets = vec![
            vec![0, 1, 2, 3],
            vec![4, 5, 6, 7],
            vec![8, 9, 10, 11],
            vec![0, 4, 8],
            vec![1, 5, 9],
            vec![3, 7, 11, 10],
        ];
        let sol = greedy_set_cover(12, &sets);
        assert_eq!(sol.covered, 12);
        let bound = (harmonic(12) * 3.0).floor() as usize;
        assert!(
            sol.selected.len() <= bound,
            "{} > {bound}",
            sol.selected.len()
        );
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-12);
        // H(n) ~ ln n + γ.
        let n = 10_000;
        let expected = (n as f64).ln() + 0.577_215_664_9;
        assert!((harmonic(n) - expected).abs() < 1e-4);
    }
}
