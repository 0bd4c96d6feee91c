//! In-flight instruction state: fetch-queue entries, RUU entries, LSQ
//! entries.

use bw_predictors::{HistCheckpoint, Prediction};
use bw_types::{Addr, Cycle, Seq};
use bw_workload::{DecodedInst, ResolvedCti};

/// Checkpoint of RAS state (re-exported shape from `bw_predictors`).
pub(crate) use bw_predictors::RasCheckpoint;

/// Branch-related state carried by an in-flight CTI.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BranchState {
    /// Direction prediction (conditional branches only).
    pub prediction: Option<Prediction>,
    /// Speculative-history checkpoint (conditional branches only).
    pub hist_ckpt: Option<HistCheckpoint>,
    /// RAS checkpoint for CTIs that pushed/popped the stack.
    pub ras_ckpt: Option<RasCheckpoint>,
    /// The next PC fetch proceeded to after this instruction.
    pub predicted_next: Addr,
    /// Architectural resolution (correct-path instructions only).
    pub actual: Option<ResolvedCti>,
    /// `true` if `predicted_next` differs from the architectural next
    /// PC: resolving this branch redirects fetch and squashes.
    pub mispredicted: bool,
    /// `true` if the confidence estimator marked this branch low
    /// confidence (pipeline gating).
    pub low_conf: bool,
}

/// An instruction in the fetch buffer or decode/rename pipe.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FetchedInst {
    pub inst: DecodedInst,
    pub seq: Seq,
    pub on_correct_path: bool,
    /// Effective address for loads/stores (oracle on the correct path,
    /// hashed on the wrong path).
    pub data_addr: Option<Addr>,
    pub branch: Option<BranchState>,
}

/// Execution state of an RUU entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EntryState {
    /// Waiting on operands.
    Waiting,
    /// Operands ready; waiting for an issue slot.
    Ready,
    /// Issued; completion scheduled.
    Issued,
    /// Result available.
    Completed,
}

/// An RUU slot: the absolute position of an entry in the window's
/// allocation order. The entry at the RUU front has slot
/// `Machine::ruu_front_slot`, so a live slot becomes an RUU index with
/// one subtraction. Squash pops from the back, so a slot number is
/// reused by the next dispatch; see [`SlotRef`].
pub(crate) type Slot = u64;

/// A cross-reference to an RUU entry: its slot plus the sequence number
/// of the instruction that held it when the reference was taken.
/// Slots are reused after a squash, so every holder (completion events,
/// wake lists, the ready list) validates `seq` against the entry now in
/// the slot: a mismatch is a stale reference, never a different
/// instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotRef {
    pub slot: Slot,
    pub seq: Seq,
}

/// One register-update-unit (instruction window) entry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RuuEntry {
    pub fi: FetchedInst,
    pub state: EntryState,
    /// Producer sequence numbers (resolved once at dispatch; kept for
    /// the audit's readiness recomputation and debugging).
    pub deps: [Option<Seq>; 2],
    /// Producers (counted with multiplicity) whose results were still
    /// outstanding at dispatch and have not completed since. The entry
    /// becomes `Ready` when this reaches zero.
    pub pending: u8,
    /// First slot of the seq-contiguous run this entry belongs to: the
    /// entries from `run_start` to this one hold consecutive sequence
    /// numbers (a squash gap starts a new run). May precede the RUU
    /// front once older entries commit.
    pub run_start: Slot,
    /// Completion cycle once issued.
    pub completes_at: Cycle,
}

impl RuuEntry {
    pub fn is_mem(&self) -> bool {
        self.fi.inst.op.is_mem()
    }
}

/// One load/store-queue entry. Disambiguation reads only the LSQ, so
/// an entry carries everything it needs and never refers to the RUU.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LsqEntry {
    pub seq: Seq,
    /// The 8-byte block a store writes; `None` for loads.
    pub store_block: Option<u64>,
}
