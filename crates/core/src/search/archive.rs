//! Non-dominated archive over the three pruning objectives.
//!
//! Generalizes the 2-D [`crate::pareto_front`] helper: where that function
//! filters a finished `(latency, accuracy)` slice, [`ParetoArchive`]
//! maintains the 3-D `(latency_ms, energy_mj, accuracy)` front *online*
//! while a search streams candidates in, and accounts for every insertion
//! so tests can prove conservation:
//!
//! ```text
//! inserted == archived + dominated + duplicates
//! ```
//!
//! The archived front is kept in a canonical order (latency ascending,
//! then energy ascending, then accuracy descending, then payload
//! ascending) that does not depend on insertion order, and duplicate
//! objective points deterministically keep the smallest payload — so the
//! archive's final state is invariant under any permutation of the same
//! insertions. (How a rejected point is *classified* — dominated vs
//! duplicate — can depend on arrival order; the conservation sum and the
//! final front never do.)

use std::cmp::Ordering;

/// A point in objective space: minimize latency and energy, maximize
/// accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// End-to-end network latency, ms.
    pub latency_ms: f64,
    /// End-to-end energy estimate, mJ.
    pub energy_mj: f64,
    /// Estimated accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl ParetoPoint {
    /// `true` when `self` is no worse than `other` on every objective and
    /// strictly better on at least one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        let no_worse = self.latency_ms <= other.latency_ms
            && self.energy_mj <= other.energy_mj
            && self.accuracy >= other.accuracy;
        let strictly_better = self.latency_ms < other.latency_ms
            || self.energy_mj < other.energy_mj
            || self.accuracy > other.accuracy;
        no_worse && strictly_better
    }

    /// Exact objective equality (bit-for-bit under `total_cmp`).
    fn same(&self, other: &ParetoPoint) -> bool {
        self.latency_ms.total_cmp(&other.latency_ms) == Ordering::Equal
            && self.energy_mj.total_cmp(&other.energy_mj) == Ordering::Equal
            && self.accuracy.total_cmp(&other.accuracy) == Ordering::Equal
    }

    /// Canonical archive order: latency asc, energy asc, accuracy desc.
    fn canonical_cmp(&self, other: &ParetoPoint) -> Ordering {
        self.latency_ms
            .total_cmp(&other.latency_ms)
            .then(self.energy_mj.total_cmp(&other.energy_mj))
            .then(other.accuracy.total_cmp(&self.accuracy))
    }
}

/// Front entries per block are kept between 1 and `2 * BLOCK - 1`: a
/// block reaching `2 * BLOCK` splits in half, an emptied block is dropped.
const BLOCK: usize = 64;

/// The energy and accuracy ranges of a block's entries.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    min_energy: f64,
    max_energy: f64,
    min_accuracy: f64,
    max_accuracy: f64,
}

impl Bounds {
    fn of<T>(entries: &[(ParetoPoint, T)]) -> Bounds {
        let mut bounds = Bounds {
            min_energy: f64::INFINITY,
            max_energy: f64::NEG_INFINITY,
            min_accuracy: f64::INFINITY,
            max_accuracy: f64::NEG_INFINITY,
        };
        for (p, _) in entries {
            bounds.widen(p);
        }
        bounds
    }

    fn widen(&mut self, p: &ParetoPoint) {
        self.min_energy = self.min_energy.min(p.energy_mj);
        self.max_energy = self.max_energy.max(p.energy_mj);
        self.min_accuracy = self.min_accuracy.min(p.accuracy);
        self.max_accuracy = self.max_accuracy.max(p.accuracy);
    }

    /// Could an entry inside these bounds dominate `point`? `false` only
    /// when every entry costs more energy or is less accurate.
    fn may_dominate(&self, point: &ParetoPoint) -> bool {
        self.min_energy <= point.energy_mj && self.max_accuracy >= point.accuracy
    }

    /// Could `point` dominate an entry inside these bounds? `false` only
    /// when every entry costs less energy or is more accurate.
    fn may_be_dominated_by(&self, point: &ParetoPoint) -> bool {
        self.max_energy >= point.energy_mj && self.min_accuracy <= point.accuracy
    }
}

/// A run of consecutive front entries in canonical order, with the
/// bounds that let [`ParetoArchive::offer`] skip it.
#[derive(Debug, Clone)]
struct Block<T> {
    entries: Vec<(ParetoPoint, T)>,
    bounds: Bounds,
}

impl<T> Block<T> {
    fn new(entries: Vec<(ParetoPoint, T)>) -> Self {
        let bounds = Bounds::of(&entries);
        Block { entries, bounds }
    }

    fn first_latency(&self) -> f64 {
        self.entries
            .first()
            .map_or(f64::INFINITY, |(p, _)| p.latency_ms)
    }

    fn last_latency(&self) -> f64 {
        self.entries
            .last()
            .map_or(f64::NEG_INFINITY, |(p, _)| p.latency_ms)
    }
}

/// An online non-dominated archive with per-insertion accounting.
///
/// `T` is the payload carried with each point (a genome, a plan id, …);
/// its `Ord` breaks ties between duplicate objective points (smallest
/// payload wins), which is what makes the archive permutation-invariant.
///
/// The front is stored as canonical-order blocks, each carrying its
/// energy and accuracy range; a block splits in half at 128 entries and
/// is dropped when emptied. An offer binary searches for the duplicate
/// slot, and the domination query and the retire pass skip every block
/// whose latency span or ranges rule it out, so an offer touches a few
/// blocks instead of the whole front.
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive<T> {
    blocks: Vec<Block<T>>,
    len: usize,
    inserted: u64,
    dominated: u64,
    duplicates: u64,
}

impl<T: Ord> ParetoArchive<T> {
    /// An empty archive.
    pub fn new() -> Self {
        ParetoArchive {
            blocks: Vec::new(),
            len: 0,
            inserted: 0,
            dominated: 0,
            duplicates: 0,
        }
    }

    /// Offers a point to the archive. Returns `true` when the point is on
    /// the current front afterwards (inserted, or an exact duplicate of a
    /// front point).
    ///
    /// Displaced entries — previously archived points now dominated by
    /// `point` — move to the dominated count, preserving the conservation
    /// identity.
    ///
    /// # Panics
    ///
    /// Panics if any objective is non-finite; search evaluation never
    /// produces NaN/inf and admitting one would poison `dominates`.
    pub fn offer(&mut self, point: ParetoPoint, payload: T) -> bool {
        assert!(
            point.latency_ms.is_finite()
                && point.energy_mj.is_finite()
                && point.accuracy.is_finite(),
            "archive points must be finite"
        );
        self.inserted += 1;

        // Exact duplicate: keep the smaller payload, count the loser. The
        // front holds at most one entry per triple, so the canonical slot
        // is the only place it can be.
        let b = self.block_for(&point);
        if let Some(block) = self.blocks.get_mut(b) {
            let at = block
                .entries
                .partition_point(|(p, _)| p.canonical_cmp(&point) == Ordering::Less);
            if let Some(entry) = block.entries.get_mut(at) {
                if entry.0.same(&point) {
                    self.duplicates += 1;
                    if payload < entry.1 {
                        entry.1 = payload;
                    }
                    return true;
                }
            }
        }

        // A dominator is no slower, so only blocks starting at or below
        // the newcomer's latency can hold one.
        let dominated = self
            .blocks
            .iter()
            .take_while(|block| block.first_latency() <= point.latency_ms)
            .filter(|block| block.bounds.may_dominate(&point))
            .any(|block| block.entries.iter().any(|(p, _)| p.dominates(&point)));
        if dominated {
            self.dominated += 1;
            return false;
        }

        // The newcomer is on the front: retire everything it dominates,
        // which is no faster, so only blocks ending at or above its
        // latency can hold any.
        let first = self
            .blocks
            .partition_point(|block| block.last_latency() < point.latency_ms);
        let mut retired = 0;
        for block in &mut self.blocks[first..] {
            if !block.bounds.may_be_dominated_by(&point) {
                continue;
            }
            let before = block.entries.len();
            block.entries.retain(|(p, _)| !point.dominates(p));
            if block.entries.len() < before {
                retired += before - block.entries.len();
                block.bounds = Bounds::of(&block.entries);
            }
        }
        if retired > 0 {
            self.blocks.retain(|block| !block.entries.is_empty());
            self.len -= retired;
            self.dominated += retired as u64;
        }

        self.insert(point, payload);
        true
    }

    /// Index of the block whose span holds `point`'s canonical slot: the
    /// first block whose last entry does not order below it, else the
    /// last block. `0` on an empty archive.
    fn block_for(&self, point: &ParetoPoint) -> usize {
        let b = self.blocks.partition_point(|block| {
            block
                .entries
                .last()
                .is_some_and(|(p, _)| p.canonical_cmp(point) == Ordering::Less)
        });
        b.min(self.blocks.len().saturating_sub(1))
    }

    /// Inserts a front point whose triple is not yet archived at its
    /// canonical slot.
    fn insert(&mut self, point: ParetoPoint, payload: T) {
        self.len += 1;
        let b = self.block_for(&point);
        let Some(block) = self.blocks.get_mut(b) else {
            self.blocks.push(Block::new(vec![(point, payload)]));
            return;
        };
        let at = block
            .entries
            .partition_point(|(p, _)| p.canonical_cmp(&point) == Ordering::Less);
        block.entries.insert(at, (point, payload));
        block.bounds.widen(&point);
        if block.entries.len() >= 2 * BLOCK {
            let upper = Block::new(block.entries.split_off(BLOCK));
            block.bounds = Bounds::of(&block.entries);
            self.blocks.insert(b + 1, upper);
        }
    }

    /// The archived front in canonical order.
    pub fn entries(&self) -> Vec<&(ParetoPoint, T)> {
        self.blocks
            .iter()
            .flat_map(|block| &block.entries)
            .collect()
    }

    /// Number of points currently archived.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been archived.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total points offered via [`ParetoArchive::offer`].
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Points rejected or displaced because something dominates them.
    pub fn dominated(&self) -> u64 {
        self.dominated
    }

    /// Points whose exact objective triple was already archived.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(l: f64, e: f64, a: f64) -> ParetoPoint {
        ParetoPoint {
            latency_ms: l,
            energy_mj: e,
            accuracy: a,
        }
    }

    #[test]
    fn dominated_points_never_surface() {
        let mut ar = ParetoArchive::new();
        assert!(ar.offer(pt(10.0, 5.0, 0.9), 1u32));
        assert!(!ar.offer(pt(11.0, 6.0, 0.8), 2)); // worse everywhere
        assert!(ar.offer(pt(9.0, 7.0, 0.95), 3)); // trade-off survives
        assert_eq!(ar.len(), 2);
        assert_eq!(ar.dominated(), 1);
        assert_eq!(ar.inserted(), 3);
    }

    #[test]
    fn newcomer_displaces_dominated_entries() {
        let mut ar = ParetoArchive::new();
        ar.offer(pt(10.0, 5.0, 0.9), 1u32);
        ar.offer(pt(12.0, 5.0, 0.95), 2);
        // Dominates the first, trade-off with the second.
        assert!(ar.offer(pt(9.0, 4.0, 0.92), 3));
        assert_eq!(ar.len(), 2);
        assert_eq!(ar.dominated(), 1);
        assert_eq!(
            ar.inserted(),
            ar.len() as u64 + ar.dominated() + ar.duplicates()
        );
    }

    #[test]
    fn duplicates_keep_the_smallest_payload() {
        let mut a = ParetoArchive::new();
        a.offer(pt(10.0, 5.0, 0.9), 7u32);
        a.offer(pt(10.0, 5.0, 0.9), 3);
        let mut b = ParetoArchive::new();
        b.offer(pt(10.0, 5.0, 0.9), 3u32);
        b.offer(pt(10.0, 5.0, 0.9), 7);
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.entries()[0].1, 3);
        assert_eq!(a.duplicates(), 1);
    }

    #[test]
    fn canonical_order_is_latency_then_energy_then_accuracy() {
        let mut ar = ParetoArchive::new();
        ar.offer(pt(10.0, 9.0, 0.80), 0u32);
        ar.offer(pt(5.0, 2.0, 0.70), 1);
        ar.offer(pt(5.0, 1.0, 0.60), 2);
        let pts: Vec<_> = ar.entries().iter().map(|(p, _)| *p).collect();
        assert_eq!(
            pts,
            vec![pt(5.0, 1.0, 0.60), pt(5.0, 2.0, 0.70), pt(10.0, 9.0, 0.80)]
        );
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_points_are_rejected() {
        let mut ar = ParetoArchive::new();
        ar.offer(pt(f64::NAN, 1.0, 0.5), 0u32);
    }
}
