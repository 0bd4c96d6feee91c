//! Back-end stages: dispatch, issue, writeback (branch resolution and
//! squash), and commit.
//!
//! Wakeup and select are event-driven. Dispatch links each consumer
//! into the wake lists of its outstanding producers; writeback drains
//! a completing entry's list and moves consumers with no producer left
//! onto the ready list; issue walks only that list, oldest first.
//! Entries are addressed by [`SlotRef`] (slot plus seq, validated on
//! use), so no per-cycle path searches the window by sequence number.

use std::cmp::Reverse;

use bw_types::{Addr, CtiKind, OpClass, Seq};

use crate::inflight::{EntryState, FetchedInst, LsqEntry, RuuEntry, Slot, SlotRef};
use crate::machine::Machine;

impl<S: bw_workload::InstSource> Machine<'_, S> {
    /// RUU index of the entry `r` refers to, or `None` if the reference
    /// is stale: that instruction committed or was squashed, and its
    /// slot is empty or holds a younger instruction.
    fn live_index(&self, r: SlotRef) -> Option<usize> {
        let idx = usize::try_from(r.slot.checked_sub(self.ruu_front_slot)?).ok()?;
        (self.ruu.get(idx)?.fi.seq == r.seq).then_some(idx)
    }

    /// The wake list of the entry in `slot`.
    fn wake_list(&mut self, slot: Slot) -> &mut Vec<SlotRef> {
        let mask = self.wake_lists.len() - 1;
        &mut self.wake_lists[slot as usize & mask]
    }

    /// Resolves producer `p` of the instruction about to dispatch at
    /// the RUU tail: the slot of the producer's entry while its result
    /// is outstanding, `None` once it is available (completed,
    /// committed, or squashed).
    ///
    /// Within a seq-contiguous run the producer sits at a fixed offset
    /// from the run's last entry, so this is one subtraction plus one
    /// hop per squash gap between the producer and the tail.
    fn resolve_producer(&self, p: Seq) -> Option<Slot> {
        let mut end = self.ruu.len();
        while end > 0 {
            let last = &self.ruu[end - 1];
            if p > last.fi.seq {
                return None; // squashed before dispatch
            }
            let start = last.run_start.saturating_sub(self.ruu_front_slot) as usize;
            let back = (last.fi.seq - p) as usize;
            if back < end - start {
                let idx = end - 1 - back;
                let producer = &self.ruu[idx];
                debug_assert_eq!(producer.fi.seq, p, "run_start broke seq contiguity");
                return (producer.state != EntryState::Completed)
                    .then_some(self.ruu_front_slot + idx as u64);
            }
            end = start;
        }
        None // committed
    }

    /// Commit stage: retire completed instructions in order.
    pub(crate) fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.ruu.front() else { break };
            if head.state != EntryState::Completed {
                break;
            }
            let entry = self.ruu.pop_front().expect("checked nonempty");
            self.ruu_front_slot += 1;
            debug_assert!(
                entry.fi.on_correct_path,
                "wrong-path instruction reached commit (seq {})",
                entry.fi.seq
            );
            if entry.is_mem() {
                debug_assert_eq!(self.lsq.front().map(|l| l.seq), Some(entry.fi.seq));
                self.lsq.pop_front();
                if entry.fi.inst.op == OpClass::Store {
                    // Stores write the D-cache at retirement.
                    let addr = entry.fi.data_addr.expect("stores have addresses");
                    self.act.dcache += 1;
                    if !self.dcache.access(addr, true).hit {
                        self.act.dcache2 += 1;
                        self.l2.access(addr, true);
                    }
                }
            }

            self.stats.committed += 1;
            self.committed_now += 1;

            if let Some(cti) = entry.fi.inst.cti {
                let branch = entry.fi.branch.expect("CTIs carry branch state");
                let actual = branch.actual.expect("correct-path CTIs resolved");
                self.stats.cti_committed += 1;
                self.stats.cti_distance_sum += self.stats.committed - self.last_cti_at;
                self.last_cti_at = self.stats.committed;
                if actual.next_pc == branch.predicted_next {
                    self.stats.cti_addr_correct += 1;
                }
                if cti.kind == CtiKind::CondBranch {
                    self.stats.cond_committed += 1;
                    self.stats.cond_distance_sum += self.stats.committed - self.last_cond_at;
                    self.last_cond_at = self.stats.committed;
                    let pred = branch
                        .prediction
                        .expect("conditional branches are predicted");
                    if pred.outcome == actual.outcome {
                        self.stats.cond_correct += 1;
                    }
                    self.predictor
                        .commit(entry.fi.inst.pc, actual.outcome, &pred);
                    if !self.cfg.speculative_history {
                        // Commit-time history update (the baseline the
                        // speculative scheme improves on).
                        self.predictor.spec_push(entry.fi.inst.pc, actual.outcome);
                    }
                    self.bact.dir_updates += 1;
                    if let Some(jrs) = &mut self.jrs {
                        jrs.update(
                            entry.fi.inst.pc,
                            pred.meta.ghist,
                            pred.outcome == actual.outcome,
                        );
                    }
                }
                if actual.outcome.is_taken() {
                    match &mut self.nlp {
                        Some(nlp) => nlp.train(entry.fi.inst.pc, actual.next_pc),
                        None => self.btb.update(entry.fi.inst.pc, actual.next_pc),
                    }
                    self.bact.btb_updates += 1;
                }
            }
            #[cfg(feature = "audit")]
            self.audit_commit_check(entry.fi.seq, entry.fi.on_correct_path);
        }
    }

    /// Writeback: drain due completions, wake their consumers, and
    /// resolve branches (squash + redirect on mispredicts).
    pub(crate) fn writeback(&mut self) {
        while let Some(&Reverse((cycle, seq, slot))) = self.completions.peek() {
            if cycle > self.cycle {
                break;
            }
            self.completions.pop();
            let Some(idx) = self.live_index(SlotRef { slot, seq }) else {
                continue; // stale event from a squashed allocation
            };
            let entry = &mut self.ruu[idx];
            if entry.state != EntryState::Issued || entry.completes_at != cycle {
                continue;
            }
            entry.state = EntryState::Completed;
            self.act.window += 1;
            self.act.resultbus += 1;
            self.act.regfile += 1;

            let fi = entry.fi;
            self.wake_consumers(slot);
            if let Some(branch) = fi.branch {
                if branch.low_conf {
                    self.low_conf_inflight = self.low_conf_inflight.saturating_sub(1);
                }
                if branch.mispredicted && fi.on_correct_path {
                    let actual = branch.actual.expect("correct-path branch resolved");
                    self.squash_younger_than(seq);
                    // Repair the offender's own speculative history and
                    // re-insert the architectural outcome.
                    if let (Some(ckpt), Some(_)) = (branch.hist_ckpt, branch.prediction) {
                        self.predictor.repair(&ckpt);
                        self.predictor.spec_push(fi.inst.pc, actual.outcome);
                    }
                    self.stats.squashes += 1;
                    self.fetch_pc = actual.next_pc;
                    self.on_correct_path = true;
                    self.fetch_stall_until = self.cycle + 1;
                    #[cfg(feature = "audit")]
                    self.audit_recovery_check();
                }
            }
        }
    }

    /// Notifies the consumers waiting on the entry in `slot`, which
    /// just completed. A consumer whose last outstanding producer this
    /// was becomes `Ready` now, before this cycle's issue stage runs.
    fn wake_consumers(&mut self, slot: Slot) {
        let mut list = std::mem::take(self.wake_list(slot));
        for &consumer in &list {
            let Some(idx) = self.live_index(consumer) else {
                continue; // the consumer was squashed
            };
            let e = &mut self.ruu[idx];
            debug_assert!(e.state == EntryState::Waiting && e.pending > 0);
            e.pending -= 1;
            if e.pending == 0 {
                e.state = EntryState::Ready;
                let at = self.ready.partition_point(|r| r.slot < consumer.slot);
                self.ready.insert(at, consumer);
            }
        }
        list.clear();
        *self.wake_list(slot) = list;
    }

    /// Removes every in-flight instruction younger than `seq`,
    /// repairing speculative predictor/RAS state youngest-first.
    ///
    /// The fetch queue, the decode stages (stage 0 youngest) and the
    /// RUU tail are each in seq order and successively older, so
    /// popping them back-to-front in that order visits the squashed
    /// instructions youngest-first.
    pub(crate) fn squash_younger_than(&mut self, seq: Seq) {
        let mut squashed = 0u64;
        while let Some(fi) = self.fetch_queue.pop_back() {
            self.undo_speculation(&fi, seq);
            squashed += 1;
        }
        for stage in 0..self.decode_pipe.len() {
            while let Some(fi) = self.decode_pipe[stage].pop_back() {
                self.undo_speculation(&fi, seq);
                squashed += 1;
            }
        }
        while self.ruu.back().is_some_and(|e| e.fi.seq > seq) {
            let e = self.ruu.pop_back().expect("checked nonempty");
            self.undo_speculation(&e.fi, seq);
            squashed += 1;
        }
        while self.lsq.back().is_some_and(|l| l.seq > seq) {
            self.lsq.pop_back();
        }
        // Wake lists and completion events may still name the freed
        // slots; their seq check discards them. The ready list is
        // slot-ordered, so the squashed entries are its tail.
        let tail = self.ruu_front_slot + self.ruu.len() as u64;
        while self.ready.last().is_some_and(|r| r.slot >= tail) {
            self.ready.pop();
        }
        self.stats.squashed_insts += squashed;
    }

    /// Rolls back the speculative state one squashed instruction
    /// changed at fetch.
    fn undo_speculation(&mut self, fi: &FetchedInst, squash_seq: Seq) {
        debug_assert!(fi.seq > squash_seq);
        if let Some(b) = &fi.branch {
            if b.low_conf {
                self.low_conf_inflight = self.low_conf_inflight.saturating_sub(1);
            }
            if let Some(ckpt) = &b.hist_ckpt {
                self.predictor.repair(ckpt);
            }
            if let Some(rc) = b.ras_ckpt {
                self.ras.restore(rc);
            }
        }
    }

    /// Issue stage: select from the ready list, oldest first, and start
    /// execution where a port and functional unit are free.
    pub(crate) fn issue(&mut self) {
        let mut total_left = self.cfg.issue_width;
        let mut int_left = self.cfg.int_issue;
        let mut fp_left = self.cfg.fp_issue;
        let mut mem_left = self.cfg.mem_ports;
        let mut mul_left = self.cfg.int_mul;
        let mut fpmul_left = self.cfg.fp_mul;

        let mut ready = std::mem::take(&mut self.ready);
        // Entries that stay ready are compacted into `ready[..kept]`;
        // `ready[kept..next]` is left vacated and dropped below.
        let mut kept = 0;
        let mut next = 0;
        while next < ready.len() && total_left > 0 {
            let r = ready[next];
            next += 1;
            let idx = (r.slot - self.ruu_front_slot) as usize;
            debug_assert!(
                self.ruu[idx].fi.seq == r.seq && self.ruu[idx].state == EntryState::Ready,
                "stale ready-list entry {r:?}"
            );

            let op = self.ruu[idx].fi.inst.op;
            // Port/FU availability.
            let ok = match op {
                OpClass::IntAlu | OpClass::Cti => int_left > 0,
                OpClass::IntMul => int_left > 0 && mul_left > 0,
                OpClass::FpAlu => fp_left > 0,
                OpClass::FpMul => fp_left > 0 && fpmul_left > 0,
                OpClass::Load | OpClass::Store => mem_left > 0,
            };
            if !ok {
                ready[kept] = r;
                kept += 1;
                continue;
            }

            let latency = match op {
                OpClass::IntAlu | OpClass::Cti => 1,
                OpClass::IntMul => 3,
                OpClass::FpAlu => 2,
                OpClass::FpMul => 4,
                OpClass::Store => 1,
                OpClass::Load => {
                    // Memory disambiguation against older stores: a hit
                    // in the LSQ forwards the store's data.
                    let addr = self.ruu[idx].fi.data_addr.expect("loads have addresses");
                    if self.store_forwards(r.seq, addr.0 & !7) {
                        1
                    } else {
                        u64::from(self.load_latency(addr))
                    }
                }
            };
            match op {
                OpClass::IntAlu | OpClass::Cti => int_left -= 1,
                OpClass::IntMul => {
                    int_left -= 1;
                    mul_left -= 1;
                }
                OpClass::FpAlu => fp_left -= 1,
                OpClass::FpMul => {
                    fp_left -= 1;
                    fpmul_left -= 1;
                }
                OpClass::Load | OpClass::Store => mem_left -= 1,
            }
            let entry = &mut self.ruu[idx];
            entry.state = EntryState::Issued;
            entry.completes_at = self.cycle + latency;
            self.completions
                .push(Reverse((entry.completes_at, r.seq, r.slot)));

            total_left -= 1;
            self.issued_now += 1;
            self.stats.executed += 1;
            self.act.window += 1;
            self.act.regfile += 2;
            match op {
                OpClass::IntAlu | OpClass::IntMul | OpClass::Cti => self.act.ialu += 1,
                OpClass::FpAlu | OpClass::FpMul => self.act.falu += 1,
                OpClass::Load | OpClass::Store => self.act.lsq += 1,
            }
        }
        ready.drain(kept..next);
        self.ready = ready;
    }

    /// `true` if a store older than the load `load_seq` writes the
    /// load's 8-byte block, so the load is forwarded from the LSQ.
    /// The oldest matching store wins, as the queue is scanned in age
    /// order.
    fn store_forwards(&self, load_seq: Seq, load_block: u64) -> bool {
        self.lsq
            .iter()
            .take_while(|l| l.seq < load_seq)
            .any(|l| l.store_block == Some(load_block))
    }

    /// D-cache access latency for a load, charging activity.
    fn load_latency(&mut self, addr: Addr) -> u32 {
        let mut lat = self.cfg.l1d.hit_latency;
        self.act.dcache += 1;
        if !self.tlb.access(addr) {
            lat += self.tlb.config().miss_penalty;
        }
        let l1 = self.dcache.access(addr, false);
        if !l1.hit {
            self.stats.dcache_misses += 1;
            self.act.dcache2 += 1;
            let l2r = self.l2.access(addr, false);
            lat += if l2r.hit {
                self.cfg.l2.hit_latency
            } else {
                self.cfg.mem_latency
            };
            if l1.writeback {
                self.act.dcache2 += 1;
            }
        }
        lat
    }

    /// Dispatch: move instructions from the decode/rename pipe into
    /// the RUU and LSQ, then shift the pipe and refill from the fetch
    /// buffer.
    pub(crate) fn dispatch(&mut self) {
        // Retire the oldest stage into the window.
        let oldest = self.decode_pipe.len() - 1;
        while let Some(fi) = self.decode_pipe[oldest].front() {
            if self.ruu.len() >= self.cfg.ruu_size as usize {
                break;
            }
            if fi.inst.op.is_mem() && self.lsq.len() >= self.cfg.lsq_size as usize {
                break;
            }
            let fi = self.decode_pipe[oldest]
                .pop_front()
                .expect("checked nonempty");
            self.dispatch_one(fi);
        }

        // Shift the latch pipeline where possible (in-order, rigid).
        // Swapping moves the full stage on and hands its emptied buffer
        // back, so no stage reallocates.
        for i in (0..oldest).rev() {
            if self.decode_pipe[i + 1].is_empty() && !self.decode_pipe[i].is_empty() {
                self.decode_pipe.swap(i, i + 1);
            }
        }

        // Decode: pull from the fetch buffer into stage 0.
        if self.decode_pipe[0].is_empty() {
            for _ in 0..self.cfg.decode_width {
                let Some(fi) = self.fetch_queue.pop_front() else {
                    break;
                };
                self.decode_pipe[0].push_back(fi);
            }
        }
    }

    /// Allocates the RUU (and LSQ) entry for `fi` at the tail and links
    /// it into the wake lists of its outstanding producers.
    fn dispatch_one(&mut self, fi: FetchedInst) {
        debug_assert!(
            self.ruu.back().is_none_or(|e| e.fi.seq < fi.seq),
            "RUU must stay seq-ordered"
        );
        let me = SlotRef {
            slot: self.ruu_front_slot + self.ruu.len() as u64,
            seq: fi.seq,
        };
        // A previous occupant of this slot was squashed; its consumers
        // are gone with it.
        self.wake_list(me.slot).clear();
        let deps = compute_deps(&fi);
        let mut pending = 0;
        for p in deps.into_iter().flatten() {
            if let Some(producer) = self.resolve_producer(p) {
                self.wake_list(producer).push(me);
                pending += 1;
            }
        }
        if fi.inst.op.is_mem() {
            // Store addresses are produced by the address-generation
            // path as soon as the store dispatches; the data operand is
            // what the store may still wait on. Loads can therefore
            // disambiguate against it immediately.
            let store_block = (fi.inst.op == OpClass::Store)
                .then(|| fi.data_addr.expect("stores have addresses").0 & !7);
            self.lsq.push_back(LsqEntry {
                seq: fi.seq,
                store_block,
            });
        }
        let run_start = match self.ruu.back() {
            Some(tail) if tail.fi.seq + 1 == fi.seq => tail.run_start,
            _ => me.slot,
        };
        let state = if pending == 0 {
            // The youngest entry: appending keeps the list slot-ordered.
            self.ready.push(me);
            EntryState::Ready
        } else {
            EntryState::Waiting
        };
        self.ruu.push_back(RuuEntry {
            fi,
            state,
            deps,
            pending,
            run_start,
            completes_at: 0,
        });
        self.act.rename += 1;
        self.act.window += 1;
    }
}

/// Synthesizes RUU dependency links from an instruction's dependency
/// distances.
fn compute_deps(fi: &FetchedInst) -> [Option<Seq>; 2] {
    let d = fi.inst.dep_distances();
    let resolve =
        |dist: Option<u8>| -> Option<Seq> { dist.and_then(|k| fi.seq.checked_sub(u64::from(k))) };
    [resolve(d[0]), resolve(d[1])]
}
