//! Synthetic static programs: block layout and pure PC decoding.

use crate::behavior::Behavior;
use crate::inst::{CtiInfo, DecodedInst};
use crate::util::{mix2, unit_f64};
use bw_types::{Addr, CtiKind, OpClass, INST_BYTES};

/// Base address of the main code region.
pub const CODE_BASE: Addr = Addr(0x0010_0000);
/// Base address of the function (callee) code region.
pub const FUNC_BASE: Addr = Addr(0x0100_0000);

/// Most instruction slots a region may hold. The main region must end
/// where the function region begins; the function region gets the same
/// room. Bounding the regions bounds the predecoded table.
const MAX_REGION_SLOTS: u64 = (FUNC_BASE.0 - CODE_BASE.0) / INST_BYTES;

/// How a basic block ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional branch: `site` indexes the behaviour automaton;
    /// taken control goes to `target`, fall-through to the next block.
    CondBranch {
        /// Static site id.
        site: u32,
        /// Taken target.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target.
        target: Addr,
    },
    /// Direct call (pushes the return address).
    Call {
        /// Callee entry point.
        target: Addr,
    },
    /// Return (pops the return-address stack).
    Return,
    /// Indirect jump among a small set of targets, selected
    /// pseudo-randomly per execution (switch-statement style).
    IndirectJump {
        /// The possible targets.
        targets: [Addr; 4],
    },
}

/// A basic block: `body_len` straight-line instructions followed by one
/// terminator CTI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Address of the first instruction.
    pub start: Addr,
    /// Number of non-CTI instructions before the terminator.
    pub body_len: u32,
    /// The block's final control-transfer instruction.
    pub term: Terminator,
}

impl Block {
    /// Total instructions in the block, including the terminator.
    #[must_use]
    pub fn len_insts(&self) -> u64 {
        u64::from(self.body_len) + 1
    }

    /// Address of the terminator CTI.
    #[must_use]
    pub fn term_pc(&self) -> Addr {
        self.start.offset_insts(u64::from(self.body_len))
    }

    /// Address one past the block (fall-through target).
    #[must_use]
    pub fn end(&self) -> Addr {
        self.start.offset_insts(self.len_insts())
    }
}

/// Instruction-class mix for block bodies.
///
/// Fractions of body instructions in each non-ALU class; whatever
/// remains is plain integer ALU work. Body op classes are hash-derived
/// from the mix unless the program carries an explicit op table (see
/// [`StaticProgram::with_explicit_main_ops`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of simple floating-point operations.
    pub fp_alu: f64,
    /// Fraction of floating-point multiplies/divides.
    pub fp_mul: f64,
    /// Fraction of integer multiplies/divides.
    pub int_mul: f64,
}

impl InstMix {
    fn pick(&self, h: u64) -> OpClass {
        let u = unit_f64(h);
        let mut acc = self.load;
        if u < acc {
            return OpClass::Load;
        }
        acc += self.store;
        if u < acc {
            return OpClass::Store;
        }
        acc += self.fp_alu;
        if u < acc {
            return OpClass::FpAlu;
        }
        acc += self.fp_mul;
        if u < acc {
            return OpClass::FpMul;
        }
        acc += self.int_mul;
        if u < acc {
            return OpClass::IntMul;
        }
        OpClass::IntAlu
    }
}

/// A generated synthetic program.
///
/// The program is immutable once built. [`StaticProgram::decode`] is a
/// pure function of the PC, defined over the *entire* address space:
/// addresses inside the laid-out regions decode to their real block
/// instructions; "wild" addresses (reachable only on the wrong path)
/// decode to hash-synthesized code that eventually jumps back into the
/// main region. This gives mispredicted fetch streams realistic I-cache,
/// BTB and predictor-pollution behaviour.
///
/// # Examples
///
/// ```
/// use bw_workload::benchmark;
///
/// let program = benchmark("gzip").unwrap().build_program(1);
/// let first = program.decode(bw_workload::CODE_BASE);
/// assert_eq!(first.pc, bw_workload::CODE_BASE);
/// // Decoding is pure: same PC, same instruction.
/// assert_eq!(program.decode(bw_workload::CODE_BASE), first);
/// ```
#[derive(Clone, Debug)]
pub struct StaticProgram {
    pub(crate) salt: u64,
    main_blocks: Vec<Block>,
    main_end: Addr,
    func_blocks: Vec<Block>,
    func_end: Addr,
    behaviors: Vec<Behavior>,
    mix: InstMix,
    /// Optional explicit op class per main-region instruction slot
    /// (empty: body classes are hash-derived from `mix`). Used by
    /// imported traces, whose loads/stores sit at fixed PCs.
    main_ops: Vec<OpClass>,
    /// One [`Predecoded`] record per main-region instruction slot.
    main_table: Vec<Predecoded>,
    /// One [`Predecoded`] record per function-region instruction slot.
    func_table: Vec<Predecoded>,
}

/// The static part of one laid-out instruction slot, computed once when
/// the program is assembled so [`StaticProgram::decode`] is a table
/// load. Packed into 32 bits, as a program holds one per slot:
///
/// | bits   | body slot | terminator slot |
/// |--------|-----------|-----------------|
/// | 0..8   | `dep1`    | `dep1`          |
/// | 8..16  | op class  | block index (bits 8..31) |
/// | 16..24 | `dep2`    |                 |
/// | 31     | 0         | 1               |
///
/// A terminator's [`CtiInfo`] lives in its block and is read through
/// the block index on decode.
#[derive(Clone, Copy, Debug)]
struct Predecoded(u32);

const TERM_FLAG: u32 = 1 << 31;

// Every block index of a bounded region fits the terminator's 23 bits.
const _: () = assert!(MAX_REGION_SLOTS < 1 << 23);

impl Predecoded {
    fn body(op: OpClass, dep1: u8, dep2: u8) -> Self {
        Predecoded(u32::from(dep1) | (op as u32) << 8 | u32::from(dep2) << 16)
    }

    fn terminator(dep1: u8, block: u32) -> Self {
        Predecoded(u32::from(dep1) | block << 8 | TERM_FLAG)
    }

    fn dep1(self) -> u8 {
        self.0 as u8
    }

    /// The block index of a terminator slot; `None` for a body slot.
    fn term_block(self) -> Option<usize> {
        (self.0 & TERM_FLAG != 0).then_some(((self.0 & !TERM_FLAG) >> 8) as usize)
    }

    /// Op class and second dependency distance of a body slot.
    fn body_rest(self) -> (OpClass, u8) {
        (
            OpClass::ALL[usize::from((self.0 >> 8) as u8)],
            (self.0 >> 16) as u8,
        )
    }
}

/// Why explicit program parts could not be assembled into a
/// [`StaticProgram`] (see [`StaticProgram::try_from_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// The main region had no blocks.
    EmptyMain,
    /// A block did not start where its predecessor ended.
    NonContiguous {
        /// `"main"` or `"func"`.
        region: &'static str,
        /// Index of the offending block.
        index: usize,
    },
    /// A conditional-branch terminator referenced a site id with no
    /// behaviour entry.
    SiteOutOfRange {
        /// The referenced site id.
        site: u32,
        /// Number of behaviour entries supplied.
        sites: usize,
    },
    /// A region held more instruction slots than fit before the next
    /// region's base (the function region gets the same room).
    RegionTooLarge {
        /// `"main"` or `"func"`.
        region: &'static str,
        /// Instruction slots in the region.
        slots: u64,
    },
    /// The explicit op table's length did not match the main region's
    /// instruction count.
    OpTableMismatch {
        /// Instruction slots in the main region.
        expect: usize,
        /// Op entries supplied.
        got: usize,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::EmptyMain => write!(f, "program needs at least one main block"),
            LayoutError::NonContiguous { region, index } => {
                write!(
                    f,
                    "{region} block {index} starts at a different address than its predecessor's end"
                )
            }
            LayoutError::SiteOutOfRange { site, sites } => {
                write!(
                    f,
                    "conditional site {site} out of range ({sites} behaviours)"
                )
            }
            LayoutError::RegionTooLarge { region, slots } => {
                write!(
                    f,
                    "{region} region has {slots} instruction slots (at most {MAX_REGION_SLOTS})"
                )
            }
            LayoutError::OpTableMismatch { expect, got } => {
                write!(
                    f,
                    "op table has {got} entries but the main region has {expect} slots"
                )
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl StaticProgram {
    /// Builds a program from explicit parts (used by the benchmark
    /// generator).
    ///
    /// # Panics
    ///
    /// Panics if the block lists are empty or not laid out contiguously
    /// from their region bases.
    pub(crate) fn from_parts(
        salt: u64,
        main_blocks: Vec<Block>,
        func_blocks: Vec<Block>,
        behaviors: Vec<Behavior>,
        mix: InstMix,
    ) -> Self {
        match Self::try_from_parts(salt, main_blocks, func_blocks, behaviors, mix) {
            Ok(p) => p,
            Err(e) => panic!("invalid program parts: {e}"),
        }
    }

    /// Builds a program from explicit parts, validating the layout:
    /// blocks must be laid out contiguously from their region bases and
    /// every conditional terminator's site must have a behaviour entry.
    ///
    /// This is the non-panicking entry point deserializers (e.g. the
    /// `bw-trace` program image) use, so corrupt inputs surface as
    /// [`LayoutError`]s rather than panics.
    ///
    /// # Errors
    ///
    /// Returns the first [`LayoutError`] the parts violate.
    pub fn try_from_parts(
        salt: u64,
        main_blocks: Vec<Block>,
        func_blocks: Vec<Block>,
        behaviors: Vec<Behavior>,
        mix: InstMix,
    ) -> Result<Self, LayoutError> {
        if main_blocks.is_empty() {
            return Err(LayoutError::EmptyMain);
        }
        check_contiguous(&main_blocks, CODE_BASE, "main")?;
        if !func_blocks.is_empty() {
            check_contiguous(&func_blocks, FUNC_BASE, "func")?;
        }
        for b in main_blocks.iter().chain(&func_blocks) {
            if let Terminator::CondBranch { site, .. } = b.term {
                if site as usize >= behaviors.len() {
                    return Err(LayoutError::SiteOutOfRange {
                        site,
                        sites: behaviors.len(),
                    });
                }
            }
        }
        let main_end = main_blocks.last().map_or(CODE_BASE, Block::end);
        let func_end = func_blocks.last().map_or(FUNC_BASE, Block::end);
        for (region, base, end) in [("main", CODE_BASE, main_end), ("func", FUNC_BASE, func_end)] {
            let slots = (end.0 - base.0) / INST_BYTES;
            if slots > MAX_REGION_SLOTS {
                return Err(LayoutError::RegionTooLarge { region, slots });
            }
        }
        let mut program = StaticProgram {
            salt,
            main_blocks,
            main_end,
            func_blocks,
            func_end,
            behaviors,
            mix,
            main_ops: Vec::new(),
            main_table: Vec::new(),
            func_table: Vec::new(),
        };
        program.main_table = program.predecode_region(&program.main_blocks, true);
        program.func_table = program.predecode_region(&program.func_blocks, false);
        Ok(program)
    }

    /// Attaches an explicit op class per main-region instruction slot,
    /// overriding the hash-derived body classes. Terminator slots must
    /// carry [`OpClass::Cti`]; imported traces use this so their
    /// loads/stores decode at the recorded PCs.
    ///
    /// # Errors
    ///
    /// [`LayoutError::OpTableMismatch`] if `ops` does not cover the
    /// main region exactly.
    pub fn with_explicit_main_ops(mut self, ops: Vec<OpClass>) -> Result<Self, LayoutError> {
        let expect = ((self.main_end.0 - CODE_BASE.0) / INST_BYTES) as usize;
        if ops.len() != expect {
            return Err(LayoutError::OpTableMismatch {
                expect,
                got: ops.len(),
            });
        }
        self.main_ops = ops;
        self.main_table = self.predecode_region(&self.main_blocks, true);
        Ok(self)
    }

    /// Builds a region's predecoded table, walking its blocks in
    /// layout order (slot `i` is the instruction at `base + 4i`).
    fn predecode_region(&self, blocks: &[Block], is_main: bool) -> Vec<Predecoded> {
        let slots = blocks.iter().map(Block::len_insts).sum::<u64>();
        let mut table = Vec::with_capacity(slots as usize);
        for (idx, block) in blocks.iter().enumerate() {
            for i in 0..block.len_insts() {
                let pc = block.start.offset_insts(i);
                let term = (i == u64::from(block.body_len)).then_some(idx);
                table.push(self.predecode(pc, term, is_main, table.len()));
            }
        }
        table
    }

    /// The static part of the instruction at `pc`, which lies at region
    /// slot `slot`; `term_block` is its block's index if it is that
    /// block's terminator.
    fn predecode(
        &self,
        pc: Addr,
        term_block: Option<usize>,
        is_main: bool,
        slot: usize,
    ) -> Predecoded {
        if let Some(block) = term_block {
            return Predecoded::terminator(self.dep_for(pc, 0), block as u32);
        }
        let op = if is_main && !self.main_ops.is_empty() {
            self.main_ops[slot]
        } else {
            self.body_op(pc)
        };
        Predecoded::body(op, self.dep_for(pc, 1), self.dep_for(pc, 2))
    }

    /// The program entry point.
    #[must_use]
    pub fn entry(&self) -> Addr {
        CODE_BASE
    }

    /// The hash salt that parameterizes pure-PC decoding.
    #[must_use]
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// All behaviour automata, indexed by site id.
    #[must_use]
    pub fn behaviors(&self) -> &[Behavior] {
        &self.behaviors
    }

    /// The body instruction-class mix.
    #[must_use]
    pub fn inst_mix(&self) -> InstMix {
        self.mix
    }

    /// The explicit main-region op table, if one was attached (empty
    /// slice otherwise).
    #[must_use]
    pub fn main_ops(&self) -> &[OpClass] {
        &self.main_ops
    }

    /// Number of conditional-branch sites with behaviour automata.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.behaviors.len()
    }

    /// The behaviour of static site `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn behavior(&self, site: u32) -> &Behavior {
        &self.behaviors[site as usize]
    }

    /// The main-region blocks.
    #[must_use]
    pub fn main_blocks(&self) -> &[Block] {
        &self.main_blocks
    }

    /// The function-region blocks.
    #[must_use]
    pub fn func_blocks(&self) -> &[Block] {
        &self.func_blocks
    }

    /// Total laid-out code bytes (main + function regions).
    #[must_use]
    pub fn code_bytes(&self) -> u64 {
        (self.main_end.0 - CODE_BASE.0) + (self.func_end.0 - FUNC_BASE.0)
    }

    /// Decodes the instruction at `pc`. Pure: depends only on `pc` and
    /// the program.
    ///
    /// Inside the laid-out regions this is one load from the predecoded
    /// table (plus the block's terminator for a CTI); other PCs decode
    /// to hash-synthesized wild code.
    #[must_use]
    pub fn decode(&self, pc: Addr) -> DecodedInst {
        let Some((rec, blocks)) = self.lookup(pc) else {
            return self.decode_wild(pc);
        };
        let Some(block) = rec.term_block() else {
            let (op, dep2) = rec.body_rest();
            return DecodedInst::simple(pc, op, rec.dep1(), dep2);
        };
        let info = match blocks[block].term {
            Terminator::CondBranch { site, target } => CtiInfo {
                kind: CtiKind::CondBranch,
                target: Some(target),
                site: Some(site),
            },
            Terminator::Jump { target } => CtiInfo {
                kind: CtiKind::Jump,
                target: Some(target),
                site: None,
            },
            Terminator::Call { target } => CtiInfo {
                kind: CtiKind::Call,
                target: Some(target),
                site: None,
            },
            Terminator::Return => CtiInfo {
                kind: CtiKind::Return,
                target: None,
                site: None,
            },
            Terminator::IndirectJump { .. } => CtiInfo {
                kind: CtiKind::IndirectJump,
                target: None,
                site: None,
            },
        };
        DecodedInst::cti(pc, info, rec.dep1())
    }

    /// The predecoded record of the slot holding `pc` and the blocks of
    /// its region, or `None` outside the laid-out regions.
    ///
    /// Laid-out code is reached at instruction-aligned PCs. A misaligned
    /// PC (possible only through an explicit program's misaligned
    /// target) shares its slot's block and role but hashes its own
    /// operands, so it is predecoded on the spot.
    fn lookup(&self, pc: Addr) -> Option<(Predecoded, &[Block])> {
        let (base, table, blocks, is_main) = if pc >= CODE_BASE && pc < self.main_end {
            (CODE_BASE, &self.main_table, &self.main_blocks, true)
        } else if pc >= FUNC_BASE && pc < self.func_end {
            (FUNC_BASE, &self.func_table, &self.func_blocks, false)
        } else {
            return None;
        };
        let slot = ((pc.0 - base.0) / INST_BYTES) as usize;
        let rec = table[slot];
        if pc.0.is_multiple_of(INST_BYTES) {
            return Some((rec, blocks));
        }
        Some((self.predecode(pc, rec.term_block(), is_main, slot), blocks))
    }

    /// `true` if `pc` lies in a laid-out (architecturally reachable)
    /// region.
    #[must_use]
    pub fn in_code_region(&self, pc: Addr) -> bool {
        (pc >= CODE_BASE && pc < self.main_end) || (pc >= FUNC_BASE && pc < self.func_end)
    }

    /// Targets of an indirect jump terminator at `pc`, if any.
    #[must_use]
    pub fn indirect_targets(&self, pc: Addr) -> Option<[Addr; 4]> {
        let (rec, blocks) = self.lookup(pc)?;
        let block = &blocks[rec.term_block()?];
        match block.term {
            Terminator::IndirectJump { targets } if block.term_pc() == pc => Some(targets),
            _ => None,
        }
    }

    /// Hash-derived op class of a body instruction at `pc`.
    fn body_op(&self, pc: Addr) -> OpClass {
        self.mix.pick(mix2(pc.0, self.salt))
    }

    fn dep_for(&self, pc: Addr, which: u64) -> u8 {
        let h = mix2(pc.0 ^ (which << 56), self.salt.wrapping_add(which));
        match which {
            // CTI condition input: a recently computed flag/compare, so
            // branches resolve quickly once fetched.
            0 => 1 + (h % 5) as u8,
            // First source: usually present, with a realistic spread of
            // producer distances (many values come from far away or are
            // loop-invariant, which the absent case models).
            1 => {
                if h.is_multiple_of(8) {
                    0
                } else {
                    1 + ((h >> 3) % 8) as u8
                }
            }
            // Second source: present about a third of the time, long
            // reach.
            _ => {
                if h % 8 < 5 {
                    0
                } else {
                    1 + ((h >> 3) % 24) as u8
                }
            }
        }
    }

    fn decode_wild(&self, pc: Addr) -> DecodedInst {
        let h = mix2(pc.0, self.salt ^ 0x7769_6c64);
        let main_insts = (self.main_end.0 - CODE_BASE.0) / INST_BYTES;
        match h % 8 {
            0 => {
                // Jump back into the main region: wrong-path wandering
                // re-converges on real code.
                let target = CODE_BASE.offset_insts((h >> 8) % main_insts);
                DecodedInst::cti(
                    pc,
                    CtiInfo {
                        kind: CtiKind::Jump,
                        target: Some(target),
                        site: None,
                    },
                    self.dep_for(pc, 0),
                )
            }
            1 => {
                let target = CODE_BASE.offset_insts((h >> 8) % main_insts);
                DecodedInst::cti(
                    pc,
                    CtiInfo {
                        kind: CtiKind::CondBranch,
                        target: Some(target),
                        site: None,
                    },
                    self.dep_for(pc, 0),
                )
            }
            _ => DecodedInst::simple(
                pc,
                self.body_op(pc),
                self.dep_for(pc, 1),
                self.dep_for(pc, 2),
            ),
        }
    }
}

fn check_contiguous(blocks: &[Block], base: Addr, region: &'static str) -> Result<(), LayoutError> {
    let mut expect = base;
    for (i, b) in blocks.iter().enumerate() {
        if b.start != expect {
            return Err(LayoutError::NonContiguous { region, index: i });
        }
        expect = b.end();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> StaticProgram {
        // Three main blocks:
        //   b0: 2 body insts + cond site 0, taken -> b0 (self loop)
        //   b1: 1 body inst + call -> f0
        //   b2: 0 body insts + jump -> b0
        // One function block: 1 body inst + return.
        let b0 = Block {
            start: CODE_BASE,
            body_len: 2,
            term: Terminator::CondBranch {
                site: 0,
                target: CODE_BASE,
            },
        };
        let b1 = Block {
            start: b0.end(),
            body_len: 1,
            term: Terminator::Call { target: FUNC_BASE },
        };
        let b2 = Block {
            start: b1.end(),
            body_len: 0,
            term: Terminator::Jump { target: CODE_BASE },
        };
        let f0 = Block {
            start: FUNC_BASE,
            body_len: 1,
            term: Terminator::Return,
        };
        StaticProgram::from_parts(
            7,
            vec![b0, b1, b2],
            vec![f0],
            vec![Behavior::Loop { period: 3 }],
            InstMix {
                load: 0.2,
                store: 0.1,
                fp_alu: 0.0,
                fp_mul: 0.0,
                int_mul: 0.05,
            },
        )
    }

    #[test]
    fn block_geometry() {
        let b = Block {
            start: Addr(0x100),
            body_len: 3,
            term: Terminator::Jump { target: Addr(0) },
        };
        assert_eq!(b.len_insts(), 4);
        assert_eq!(b.term_pc(), Addr(0x10c));
        assert_eq!(b.end(), Addr(0x110));
    }

    #[test]
    fn decode_body_and_terminator() {
        let p = tiny_program();
        let body = p.decode(CODE_BASE);
        assert!(!body.is_cti());
        let term = p.decode(CODE_BASE.offset_insts(2));
        assert!(term.is_cond_branch());
        assert_eq!(term.cti.unwrap().site, Some(0));
        assert_eq!(term.cti.unwrap().target, Some(CODE_BASE));
    }

    #[test]
    fn decode_is_pure() {
        let p = tiny_program();
        for i in 0..8 {
            let pc = CODE_BASE.offset_insts(i);
            assert_eq!(p.decode(pc), p.decode(pc));
        }
    }

    #[test]
    fn call_and_return_decode() {
        let p = tiny_program();
        let call_pc = p.main_blocks()[1].term_pc();
        let call = p.decode(call_pc);
        assert_eq!(call.cti.unwrap().kind, CtiKind::Call);
        assert_eq!(call.cti.unwrap().target, Some(FUNC_BASE));
        let ret_pc = p.func_blocks()[0].term_pc();
        let ret = p.decode(ret_pc);
        assert_eq!(ret.cti.unwrap().kind, CtiKind::Return);
        assert_eq!(ret.cti.unwrap().target, None);
    }

    #[test]
    fn wild_decode_is_defined_everywhere() {
        let p = tiny_program();
        for raw in [0u64, 0x1000, 0xdead_0000, 0xffff_fff0] {
            let pc = Addr(raw & !3);
            let inst = p.decode(pc);
            assert_eq!(inst.pc, pc);
            if let Some(cti) = inst.cti {
                if let Some(t) = cti.target {
                    assert!(t >= CODE_BASE, "wild CTIs target the main region");
                }
                assert_eq!(cti.site, None, "wild code has no behaviour site");
            }
        }
    }

    #[test]
    fn in_code_region_boundaries() {
        let p = tiny_program();
        assert!(p.in_code_region(CODE_BASE));
        assert!(!p.in_code_region(Addr(CODE_BASE.0 - 4)));
        assert!(p.in_code_region(FUNC_BASE));
        let main_len = p.main_blocks().iter().map(Block::len_insts).sum::<u64>();
        assert!(!p.in_code_region(CODE_BASE.offset_insts(main_len)));
    }

    #[test]
    #[should_panic(expected = "starts at")]
    fn non_contiguous_blocks_rejected() {
        let b0 = Block {
            start: CODE_BASE,
            body_len: 1,
            term: Terminator::Return,
        };
        let b1 = Block {
            start: CODE_BASE.offset_insts(10),
            body_len: 1,
            term: Terminator::Return,
        };
        let _ = StaticProgram::from_parts(
            0,
            vec![b0, b1],
            vec![],
            vec![],
            InstMix {
                load: 0.0,
                store: 0.0,
                fp_alu: 0.0,
                fp_mul: 0.0,
                int_mul: 0.0,
            },
        );
    }

    #[test]
    fn code_bytes_counts_both_regions() {
        let p = tiny_program();
        // main: 4 + 3 + 1 insts? b0=3, b1=2, b2=1 -> 6 insts; func: 2.
        assert_eq!(p.code_bytes(), (6 + 2) * INST_BYTES);
    }

    /// Decodes a laid-out `pc` from the block lists alone, the way the
    /// layout defines it: find the block by binary search over block
    /// starts, then take the terminator or a body slot. Shares only the
    /// operand hashes with the program, not its table.
    fn reference_decode(p: &StaticProgram, pc: Addr) -> DecodedInst {
        let (blocks, is_main) = if pc >= CODE_BASE && pc < p.main_end {
            (p.main_blocks(), true)
        } else {
            (p.func_blocks(), false)
        };
        let block = &blocks[blocks.partition_point(|b| b.start <= pc) - 1];
        assert!(pc >= block.start && pc < block.end());
        if (pc.0 - block.start.0) / INST_BYTES < u64::from(block.body_len) {
            let op = if is_main && !p.main_ops().is_empty() {
                p.main_ops()[((pc.0 - CODE_BASE.0) / INST_BYTES) as usize]
            } else {
                p.body_op(pc)
            };
            return DecodedInst::simple(pc, op, p.dep_for(pc, 1), p.dep_for(pc, 2));
        }
        let (kind, target, site) = match block.term {
            Terminator::CondBranch { site, target } => {
                (CtiKind::CondBranch, Some(target), Some(site))
            }
            Terminator::Jump { target } => (CtiKind::Jump, Some(target), None),
            Terminator::Call { target } => (CtiKind::Call, Some(target), None),
            Terminator::Return => (CtiKind::Return, None, None),
            Terminator::IndirectJump { .. } => (CtiKind::IndirectJump, None, None),
        };
        DecodedInst::cti(pc, CtiInfo { kind, target, site }, p.dep_for(pc, 0))
    }

    /// Checks the table decode against [`reference_decode`] at every
    /// slot of both regions (and at a misaligned PC inside each block),
    /// plus `indirect_targets` at every terminator.
    fn assert_table_matches_reference(p: &StaticProgram) {
        for (base, blocks) in [(CODE_BASE, p.main_blocks()), (FUNC_BASE, p.func_blocks())] {
            let end = blocks.last().map_or(base, Block::end);
            let mut pc = base;
            while pc < end {
                assert_eq!(p.decode(pc), reference_decode(p, pc), "at {pc}");
                let odd = Addr(pc.0 + 2);
                assert_eq!(p.decode(odd), reference_decode(p, odd), "at {odd}");
                pc = pc.next();
            }
            for b in blocks {
                let want = match b.term {
                    Terminator::IndirectJump { targets } => Some(targets),
                    _ => None,
                };
                assert_eq!(p.indirect_targets(b.term_pc()), want);
                assert_eq!(
                    p.indirect_targets(b.start),
                    want.filter(|_| b.body_len == 0)
                );
            }
        }
    }

    #[test]
    fn predecoded_table_matches_reference_decode() {
        for model in crate::all_benchmarks() {
            let p = model.build_program(3);
            assert_table_matches_reference(&p);
        }
        assert_table_matches_reference(&tiny_program());
    }

    #[test]
    fn explicit_main_ops_table_matches_reference_decode() {
        let base = crate::benchmark("gcc").unwrap().build_program(3);
        let ops = [
            OpClass::Load,
            OpClass::Store,
            OpClass::IntMul,
            OpClass::FpAlu,
        ];
        let mut main_ops = Vec::new();
        for b in base.main_blocks() {
            for i in 0..b.body_len {
                main_ops.push(ops[(b.start.0 as usize / 4 + i as usize) % ops.len()]);
            }
            main_ops.push(OpClass::Cti);
        }
        let p = StaticProgram::try_from_parts(
            base.salt(),
            base.main_blocks().to_vec(),
            base.func_blocks().to_vec(),
            base.behaviors().to_vec(),
            base.inst_mix(),
        )
        .unwrap()
        .with_explicit_main_ops(main_ops.clone())
        .unwrap();
        assert_eq!(p.main_ops(), &main_ops[..]);
        assert_table_matches_reference(&p);
        // The explicit table, not the mix, decides body op classes.
        let body_ops = p
            .main_blocks()
            .iter()
            .filter(|b| b.body_len > 0)
            .map(|b| p.decode(b.start).op);
        assert!(body_ops.clone().any(|op| op == OpClass::Store));
        assert!(body_ops.clone().all(|op| ops.contains(&op)));
    }

    #[test]
    fn oversized_region_rejected() {
        let huge = Block {
            start: CODE_BASE,
            body_len: u32::MAX,
            term: Terminator::Return,
        };
        let mix = tiny_program().inst_mix();
        let err = StaticProgram::try_from_parts(0, vec![huge], vec![], vec![], mix).unwrap_err();
        assert!(matches!(
            err,
            LayoutError::RegionTooLarge { region: "main", .. }
        ));
    }

    #[test]
    fn indirect_targets_absent_for_direct_ctis() {
        let p = tiny_program();
        assert_eq!(p.indirect_targets(p.main_blocks()[1].term_pc()), None);
        assert_eq!(p.indirect_targets(CODE_BASE), None);
    }
}
