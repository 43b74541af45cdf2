//! The per-submission claim/complete checkpoint ledger — the
//! exactly-once core of the marking pipeline.
//!
//! Every generated submission owns one slot that walks a strict state
//! machine:
//!
//! ```text
//! Pending ──claim──▶ Claimed{marker, incarnation} ──ack──▶ Done
//!    ▲                        │
//!    └──────── reclaim ───────┘        (marker incarnation died)
//!
//! Pending ──shed──▶ Shed                (counted by ShedReason)
//! ```
//!
//! The transitions are checked, not assumed: an ack from a stale
//! incarnation (a zombie marker that was already declared dead and
//! had its work reclaimed) is **rejected and counted**, a second ack
//! on a `Done` slot is rejected and counted as a duplicate attempt,
//! and a claim on anything but a `Pending` slot is refused. The final
//! conservation identity — `admitted == marked + shed`, zero slots
//! in flight, zero duplicates — is what [`super::CellReport`] asserts
//! per cell.

use faultsim::ShedReason;

/// One slot's position in the marking state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Admitted, waiting in its shard queue.
    Pending,
    /// Claimed by a marker incarnation, not yet acknowledged.
    Claimed {
        /// The claiming marker.
        marker: u32,
        /// The claiming incarnation (restarts increment it).
        incarnation: u32,
    },
    /// Marked exactly once; terminal.
    Done,
    /// Shed without marking; terminal.
    Shed,
}

/// One submission's checkpoint record.
#[derive(Clone, Copy, Debug)]
struct Slot {
    state: SlotState,
    shard: u16,
    arrival_tick: u32,
    /// Times this slot's claim was torn up by a marker death. A slot
    /// acked after `reclaims > 0` had its first marking attempt lost
    /// and was genuinely re-marked.
    reclaims: u16,
}

/// The checkpoint ledger for one pipeline cell. Purely sequential:
/// the tick loop owns it, and all parallelism happens in the pure
/// marking closures *between* claim and ack.
#[derive(Clone, Debug, Default)]
pub struct MarkLedger {
    slots: Vec<Slot>,
    admitted: u64,
    marked: u64,
    /// Sheds per reason, indexed by `ShedReason as usize`.
    shed: [u64; 5],
    claims: u64,
    reclaims: u64,
    redone: u64,
    /// Acks refused because the slot was already `Done`.
    duplicate_acks_rejected: u64,
    /// Acks refused because the acking incarnation no longer owns the
    /// claim (zombie marker).
    stale_acks_rejected: u64,
}

impl MarkLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a newly arrived submission as `Pending`; returns its
    /// ledger id (dense, admission-ordered).
    pub fn admit(&mut self, shard: u16, arrival_tick: u32) -> u64 {
        let id = self.slots.len() as u64;
        self.slots.push(Slot { state: SlotState::Pending, shard, arrival_tick, reclaims: 0 });
        self.admitted += 1;
        id
    }

    /// Shed a `Pending` submission. Panics on a non-pending slot:
    /// shedding claimed or finished work would lose a mark, and the
    /// sequential tick loop can never legitimately try.
    pub fn shed(&mut self, id: u64, reason: ShedReason) {
        let slot = &mut self.slots[id as usize];
        assert_eq!(slot.state, SlotState::Pending, "only pending work can be shed");
        slot.state = SlotState::Shed;
        self.shed[reason as usize] += 1;
    }

    /// Claim a `Pending` slot for `(marker, incarnation)`. Returns
    /// false (and leaves the slot untouched) if it is not pending.
    pub fn claim(&mut self, id: u64, marker: u32, incarnation: u32) -> bool {
        let slot = &mut self.slots[id as usize];
        if slot.state != SlotState::Pending {
            return false;
        }
        slot.state = SlotState::Claimed { marker, incarnation };
        self.claims += 1;
        true
    }

    /// Acknowledge a marked submission. Succeeds only when the slot is
    /// currently claimed by exactly `(marker, incarnation)`; a zombie
    /// ack (stale incarnation) or a double ack is rejected and
    /// counted, never applied.
    pub fn ack(&mut self, id: u64, marker: u32, incarnation: u32) -> bool {
        let slot = &mut self.slots[id as usize];
        match slot.state {
            SlotState::Claimed { marker: m, incarnation: i } if m == marker && i == incarnation => {
                slot.state = SlotState::Done;
                self.marked += 1;
                if slot.reclaims > 0 {
                    self.redone += 1;
                }
                true
            }
            SlotState::Done => {
                self.duplicate_acks_rejected += 1;
                false
            }
            _ => {
                self.stale_acks_rejected += 1;
                false
            }
        }
    }

    /// Tear up an unacknowledged claim after its marker incarnation
    /// died: the slot returns to `Pending` for a later re-claim.
    /// Panics if the slot is not claimed by `(marker, incarnation)` —
    /// reclaiming acked work would double-mark it.
    pub fn reclaim(&mut self, id: u64, marker: u32, incarnation: u32) {
        let slot = &mut self.slots[id as usize];
        assert_eq!(
            slot.state,
            SlotState::Claimed { marker, incarnation },
            "reclaim must match the dead claim exactly"
        );
        slot.state = SlotState::Pending;
        slot.reclaims += 1;
        self.reclaims += 1;
    }

    /// The shard a slot was admitted to.
    #[must_use]
    pub fn shard_of(&self, id: u64) -> u16 {
        self.slots[id as usize].shard
    }

    /// The tick a slot arrived on.
    #[must_use]
    pub fn arrival_tick_of(&self, id: u64) -> u32 {
        self.slots[id as usize].arrival_tick
    }

    /// Was this slot's claim ever torn up (so an eventual ack is a
    /// genuine re-marking)?
    #[must_use]
    pub fn was_reclaimed(&self, id: u64) -> bool {
        self.slots[id as usize].reclaims > 0
    }

    /// Submissions admitted (slots ever created).
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Submissions marked exactly once.
    #[must_use]
    pub fn marked(&self) -> u64 {
        self.marked
    }

    /// Submissions shed, across every reason.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Submissions shed with `reason`.
    #[must_use]
    pub fn shed_count(&self, reason: ShedReason) -> u64 {
        self.shed[reason as usize]
    }

    /// Successful claims (including re-claims after reclaim).
    #[must_use]
    pub fn claims(&self) -> u64 {
        self.claims
    }

    /// Claims torn up by marker deaths.
    #[must_use]
    pub fn reclaims(&self) -> u64 {
        self.reclaims
    }

    /// Submissions whose final ack followed at least one reclaim.
    #[must_use]
    pub fn redone(&self) -> u64 {
        self.redone
    }

    /// Rejected double-acks on `Done` slots (must stay 0 in a healthy
    /// run; the rejection itself is the ledger working as designed).
    #[must_use]
    pub fn duplicate_acks_rejected(&self) -> u64 {
        self.duplicate_acks_rejected
    }

    /// Rejected acks from stale incarnations.
    #[must_use]
    pub fn stale_acks_rejected(&self) -> u64 {
        self.stale_acks_rejected
    }

    /// Slots still `Pending` or `Claimed` — must be 0 when a cell
    /// finishes.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Pending | SlotState::Claimed { .. }))
            .count() as u64
    }

    /// Structural conservation check over every slot and counter.
    /// Returns violated identities (empty = conserved).
    #[must_use]
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let done = self.slots.iter().filter(|s| s.state == SlotState::Done).count() as u64;
        let shed = self.slots.iter().filter(|s| s.state == SlotState::Shed).count() as u64;
        if done != self.marked {
            bad.push(format!("ledger: {done} done slots but marked counter {}", self.marked));
        }
        if shed != self.shed_total() {
            bad.push(format!("ledger: {shed} shed slots but shed counter {}", self.shed_total()));
        }
        if self.admitted != self.slots.len() as u64 {
            bad.push(format!(
                "ledger: admitted {} != slots {}",
                self.admitted,
                self.slots.len()
            ));
        }
        let in_flight = self.in_flight();
        if self.admitted != self.marked + self.shed_total() + in_flight {
            bad.push(format!(
                "ledger: admitted {} != marked {} + shed {} + in-flight {in_flight}",
                self.admitted,
                self.marked,
                self.shed_total()
            ));
        }
        if self.claims != self.marked + self.reclaims + in_flight_claimed(&self.slots) {
            bad.push(format!(
                "ledger: claims {} != marked {} + reclaims {} + claimed-in-flight {}",
                self.claims,
                self.marked,
                self.reclaims,
                in_flight_claimed(&self.slots)
            ));
        }
        bad
    }
}

fn in_flight_claimed(slots: &[Slot]) -> u64 {
    slots.iter().filter(|s| matches!(s.state, SlotState::Claimed { .. })).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_path_claim_ack_conserves() {
        let mut ledger = MarkLedger::new();
        let a = ledger.admit(0, 0);
        let b = ledger.admit(1, 0);
        assert!(ledger.claim(a, 0, 1));
        assert!(ledger.claim(b, 0, 1));
        assert!(ledger.ack(a, 0, 1));
        assert!(ledger.ack(b, 0, 1));
        assert_eq!(ledger.marked(), 2);
        assert_eq!(ledger.in_flight(), 0);
        assert!(ledger.conservation_violations().is_empty());
    }

    #[test]
    fn double_ack_is_rejected_and_counted() {
        let mut ledger = MarkLedger::new();
        let a = ledger.admit(0, 0);
        assert!(ledger.claim(a, 0, 1));
        assert!(ledger.ack(a, 0, 1));
        assert!(!ledger.ack(a, 0, 1), "second ack must be refused");
        assert_eq!(ledger.marked(), 1, "the mark is not double-counted");
        assert_eq!(ledger.duplicate_acks_rejected(), 1);
        assert!(ledger.conservation_violations().is_empty());
    }

    #[test]
    fn zombie_incarnation_cannot_ack_reclaimed_work() {
        // Marker 3 incarnation 1 claims, dies; the work is reclaimed
        // and re-claimed by incarnation 2. A late ack from the dead
        // incarnation must bounce; the live incarnation's ack lands.
        let mut ledger = MarkLedger::new();
        let a = ledger.admit(0, 0);
        assert!(ledger.claim(a, 3, 1));
        ledger.reclaim(a, 3, 1);
        assert!(ledger.claim(a, 3, 2));
        assert!(!ledger.ack(a, 3, 1), "zombie ack must be refused");
        assert_eq!(ledger.stale_acks_rejected(), 1);
        assert!(ledger.ack(a, 3, 2));
        assert_eq!(ledger.marked(), 1);
        assert_eq!(ledger.redone(), 1, "the re-marking is on record");
        assert!(ledger.was_reclaimed(a));
        assert!(ledger.conservation_violations().is_empty());
    }

    #[test]
    fn claim_requires_pending() {
        let mut ledger = MarkLedger::new();
        let a = ledger.admit(0, 0);
        assert!(ledger.claim(a, 0, 1));
        assert!(!ledger.claim(a, 1, 1), "claimed work cannot be claimed again");
        assert!(ledger.ack(a, 0, 1));
        assert!(!ledger.claim(a, 1, 1), "done work cannot be claimed");
    }

    #[test]
    fn shed_reasons_are_attributed() {
        let mut ledger = MarkLedger::new();
        let a = ledger.admit(0, 0);
        let b = ledger.admit(0, 1);
        let c = ledger.admit(1, 1);
        ledger.shed(a, ShedReason::QueueFull);
        ledger.shed(b, ShedReason::DrainOverrun);
        ledger.shed(c, ShedReason::Deadline);
        assert_eq!(ledger.shed_count(ShedReason::QueueFull), 1);
        assert_eq!(ledger.shed_count(ShedReason::DrainOverrun), 1);
        assert_eq!(ledger.shed_count(ShedReason::Deadline), 1, "no reason is filed as another");
        assert_eq!(ledger.shed_count(ShedReason::Admission), 0);
        assert_eq!(ledger.shed_total(), 3);
        assert_eq!(ledger.in_flight(), 0);
        assert!(ledger.conservation_violations().is_empty());
    }

    #[test]
    #[should_panic(expected = "reclaim must match")]
    fn reclaiming_acked_work_is_a_bug() {
        let mut ledger = MarkLedger::new();
        let a = ledger.admit(0, 0);
        assert!(ledger.claim(a, 0, 1));
        assert!(ledger.ack(a, 0, 1));
        ledger.reclaim(a, 0, 1);
    }
}
