//! Lookup-cost accounting (Table I).
//!
//! The paper measures primitive costs in **overlay lookups**: one lookup =
//! one PUT/GET/APPEND operation against the DHT (each internally costing
//! `O(log n)` routing messages). [`OpCost`] is the receipt every client
//! primitive returns; [`CostBook`] aggregates them per primitive so the
//! Table I experiment can print observed-vs-formula rows.

use dharma_types::FxHashMap;

/// The DHARMA primitives of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// `Insert(r, t₁…tₘ)` — publish a new resource.
    Insert,
    /// `Tag(r, t)` — attach a tag to an existing resource.
    Tag,
    /// One faceted-search step.
    SearchStep,
}

impl OpKind {
    /// Human-readable name, matching the paper's table header.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "Insert (r, t1..m)",
            OpKind::Tag => "Tag (r,t)",
            OpKind::SearchStep => "Search step",
        }
    }
}

/// The cost receipt of one client primitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Overlay lookups performed (the paper's metric). A GET served from a
    /// hot-block cache still counts as one lookup — Table I's contracts are
    /// about how many DHT operations a primitive *issues*, not how far each
    /// one travels — so these formulas hold with or without caching.
    pub lookups: u32,
    /// Datagrams sent between each lookup's issue and its completion
    /// (transport-level detail). The count is the network-wide delta, so
    /// background traffic in that span (maintenance, gossip, pushes)
    /// counts too; traffic an op leaves behind after completing (late
    /// replies, trailing timers) counts toward whatever is driven next.
    pub messages: u64,
    /// Of the lookups, how many GETs were answered from a hot-block cache
    /// (the home node's own or one met on the lookup path). Always 0 when
    /// the overlay runs cache-disabled.
    pub cache_hits: u64,
}

impl OpCost {
    /// Adds another receipt into this one.
    pub fn absorb(&mut self, other: OpCost) {
        self.lookups += other.lookups;
        self.messages += other.messages;
        self.cache_hits += other.cache_hits;
    }
}

/// Aggregated per-primitive cost statistics.
#[derive(Clone, Debug, Default)]
pub struct CostBook {
    // (ops, lookups, messages, cache hits)
    per_kind: FxHashMap<OpKind, (u64, u64, u64, u64)>,
}

impl CostBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation's receipt.
    pub fn record(&mut self, kind: OpKind, cost: OpCost) {
        let slot = self.per_kind.entry(kind).or_insert((0, 0, 0, 0));
        slot.0 += 1;
        slot.1 += u64::from(cost.lookups);
        slot.2 += cost.messages;
        slot.3 += cost.cache_hits;
    }

    /// `(operations, total lookups, total messages)` for a primitive.
    pub fn totals(&self, kind: OpKind) -> (u64, u64, u64) {
        self.per_kind
            .get(&kind)
            .map(|&(ops, lookups, msgs, _)| (ops, lookups, msgs))
            .unwrap_or((0, 0, 0))
    }

    /// Total cache-served lookups recorded for a primitive.
    pub fn cache_hits(&self, kind: OpKind) -> u64 {
        self.per_kind.get(&kind).map(|t| t.3).unwrap_or(0)
    }

    /// Share of a primitive's lookups served from a cache (0 when none
    /// were recorded — including in cache-disabled runs).
    pub fn cache_hit_share(&self, kind: OpKind) -> f64 {
        let (_, lookups, _) = self.totals(kind);
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits(kind) as f64 / lookups as f64
        }
    }

    /// Mean lookups per operation of a primitive.
    pub fn mean_lookups(&self, kind: OpKind) -> f64 {
        let (ops, lookups, _) = self.totals(kind);
        if ops == 0 {
            0.0
        } else {
            lookups as f64 / ops as f64
        }
    }

    /// Mean messages per operation of a primitive.
    pub fn mean_messages(&self, kind: OpKind) -> f64 {
        let (ops, _, msgs) = self.totals(kind);
        if ops == 0 {
            0.0
        } else {
            msgs as f64 / ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipts_accumulate() {
        let mut book = CostBook::new();
        book.record(
            OpKind::Insert,
            OpCost {
                lookups: 6,
                messages: 40,
                cache_hits: 0,
            },
        );
        book.record(
            OpKind::Insert,
            OpCost {
                lookups: 8,
                messages: 60,
                cache_hits: 1,
            },
        );
        book.record(
            OpKind::SearchStep,
            OpCost {
                lookups: 2,
                messages: 10,
                cache_hits: 2,
            },
        );
        assert_eq!(book.totals(OpKind::Insert), (2, 14, 100));
        assert!((book.mean_lookups(OpKind::Insert) - 7.0).abs() < 1e-12);
        assert!((book.mean_messages(OpKind::SearchStep) - 10.0).abs() < 1e-12);
        assert_eq!(book.totals(OpKind::Tag), (0, 0, 0));
        assert_eq!(book.mean_lookups(OpKind::Tag), 0.0);
        assert_eq!(book.cache_hits(OpKind::Insert), 1);
        assert_eq!(book.cache_hits(OpKind::Tag), 0);
        assert!((book.cache_hit_share(OpKind::SearchStep) - 1.0).abs() < 1e-12);
        assert_eq!(book.cache_hit_share(OpKind::Tag), 0.0);
    }

    #[test]
    fn opcost_absorb() {
        let mut a = OpCost {
            lookups: 1,
            messages: 5,
            cache_hits: 1,
        };
        a.absorb(OpCost {
            lookups: 2,
            messages: 7,
            cache_hits: 0,
        });
        assert_eq!(
            a,
            OpCost {
                lookups: 3,
                messages: 12,
                cache_hits: 1
            }
        );
    }
}
