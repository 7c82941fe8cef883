"""Linear-scan register allocation over MachineFunctions.

Each instruction is decoded once.  ``_instr_vregs`` reads an
instruction's def and use virtual registers from ``_ROLES``, a table of
operand roles keyed by opcode; liveness, intervals, the scan and the
rewrite all read the decoded table, never the opcode.

Pipeline per function:

1. one pass over the linearized instructions decodes each of them and
   records every virtual register's first and last position (in order
   of first appearance), the ``call`` positions, each block's successors
   (through a label→block map built once) and its gen/kill bitsets over
   the function's dense vreg ids (1 .. ``_next_vreg``);
2. liveness: backward dataflow over those bitsets to its least fixpoint;
3. conservative live intervals [start, end]: the first and last
   positions, extended to the start of the first block a register is
   live into and to the end of the last block it is live out of;
4. intervals that are live across a ``call`` (found by bisecting the
   call positions) are assigned stack slots up front (the ABI is
   all-caller-saved); classic linear scan (Poletto & Sarkar, TOPLAS
   1999) assigns the rest to physical registers in order of start,
   spilling the interval with the furthest end on pressure;
5. rewrite: an instruction without virtual registers passes through
   unchanged; spilled operands are loaded into reserved scratch
   registers before each use and stored after each def.
"""

from bisect import bisect_left
from itertools import islice
from operator import itemgetter

from repro.backend.mir import (
    Imm,
    MachineInstr,
    StackSlot,
    VirtReg,
)

_SCRATCH_PER_CLASS = 3

_DEF = ((0,), ())
_UNARY = ((0,), (1,))
_BINARY = ((0,), (1, 2))
_NONE = ((), ())
#: opcode -> (def operand slots, use operand slots); see ``mir.py`` for
#: the operand shapes.  Operands in these slots that are not virtual
#: registers (physical ABI registers, immediates) are skipped.
_ROLES = {
    **dict.fromkeys(("li", "lfi", "frame_alloc"), _DEF),
    **dict.fromkeys(("mv", "fneg", "cvtsi2sd", "cvtsd2si", "fsqrt",
                     "fexp", "flog", "fsin", "fcos", "fabs", "ld"),
                    _UNARY),
    **dict.fromkeys(("add", "sub", "mul", "div", "rem", "and", "or",
                     "xor", "shl", "sar", "shr", "fadd", "fsub", "fmul",
                     "fdiv", "fpow", "lea", "setcc", "fsetcc"), _BINARY),
    "bcc": ((), (0, 1)),
    "fbcc": ((), (0, 1)),
    "cmov": ((0,), (1, 2, 3)),
    "st": ((), (0, 1)),
    "print": ((), (1,)),
    "memset": ((), (0, 1, 2)),
    "memcpy": ((), (0, 1, 2)),
    **dict.fromkeys(("jmp", "call", "ret"), _NONE),
}
_BRANCHES = frozenset({"jmp", "bcc", "fbcc"})
_START = itemgetter(1)


def _instr_vregs(instr):
    """(defs, uses) virtual registers of an instruction, in operand
    order."""
    try:
        def_slots, use_slots = _ROLES[instr.opcode]
    except KeyError:
        raise TypeError(
            f"regalloc: unknown opcode {instr.opcode!r}") from None
    ops = instr.operands
    defs = []
    uses = []
    for slot in def_slots:
        op = ops[slot]
        if isinstance(op, VirtReg):
            defs.append(op)
    for slot in use_slots:
        op = ops[slot]
        if isinstance(op, VirtReg):
            uses.append(op)
    return defs, uses


def _touches(defs, uses, spills):
    """Whether any of the decoded registers is spilled."""
    for vreg in defs:
        if vreg.vid in spills:
            return True
    for vreg in uses:
        if vreg.vid in spills:
            return True
    return False


def _bits(mask):
    """The set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _liveness(blocks):
    """Per-block (live_in, live_out) bitsets: backward dataflow to the
    least fixpoint."""
    count = len(blocks)
    live_in = [0] * count
    live_out = [0] * count
    changed = True
    while changed:
        changed = False
        for index in range(count - 1, -1, -1):
            _, _, gen, kill, succs = blocks[index]
            out = 0
            for succ in succs:
                out |= live_in[succ]
            new_in = gen | (out & ~kill)
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return live_in, live_out


def _intervals(appearance, first, last, blocks, live_in, live_out):
    """[(vid, start, end, cls)] sorted by start; ties keep the order of
    first appearance.  ``first`` and ``last`` are extended in place."""
    # Block starts and ends never decrease along the layout, so the
    # first block a register is live into gives its earliest start and
    # the last block it is live out of gives its latest end.
    seen = 0
    for (start, *_), live in zip(blocks, live_in):
        fresh = live & ~seen
        if fresh:
            seen |= fresh
            for vid in _bits(fresh):
                if start < first[vid]:
                    first[vid] = start
    seen = 0
    for (_, end, *_), live in zip(reversed(blocks), reversed(live_out)):
        fresh = live & ~seen
        if fresh:
            seen |= fresh
            for vid in _bits(fresh):
                if end > last[vid]:
                    last[vid] = end
    intervals = [(vreg.vid, first[vreg.vid], last[vreg.vid], vreg.cls)
                 for vreg in appearance]
    intervals.sort(key=_START)
    return intervals


class Allocator:
    def __init__(self, mfunc, isa):
        self.mfunc = mfunc
        self.isa = isa
        # Reserve scratch registers per class from the allocatable pools.
        self.scratch = {
            "int": isa.alloc_int[-_SCRATCH_PER_CLASS:],
            "float": isa.alloc_float[-_SCRATCH_PER_CLASS:],
        }
        self.pools = {
            "int": isa.alloc_int[:-_SCRATCH_PER_CLASS],
            "float": isa.alloc_float[:-_SCRATCH_PER_CLASS],
        }

    def run(self):
        decoded, appearance, first, last, calls, blocks = self._decode()
        live_in, live_out = _liveness(blocks)
        intervals = _intervals(appearance, first, last, blocks, live_in,
                               live_out)
        assignment, spills = self._allocate(intervals, calls)
        self._rewrite(decoded, assignment, spills)
        return assignment, spills

    # -- step 1: the one decoding pass ------------------------------------
    def _decode(self):
        """The decoded table: (instr, defs, uses) in linear order; vregs
        in order of first appearance; first and last positions by vid;
        the call positions; and per block (start, end, gen, kill,
        successor indices)."""
        blocks = self.mfunc.blocks
        labels = {block.label: index for index, block in enumerate(blocks)}
        size = self.mfunc._next_vreg + 1
        first = [-1] * size
        last = [-1] * size
        appearance = []
        decoded = []
        calls = []
        summaries = []
        pos = 0
        for block in blocks:
            start = pos
            gen = kill = 0
            targets = []
            for instr in block.instructions:
                defs, uses = _instr_vregs(instr)
                decoded.append((instr, defs, uses))
                opcode = instr.opcode
                if opcode in _BRANCHES:
                    targets.append(labels[instr.operands[-1].name])
                elif opcode == "call":
                    calls.append(pos)
                for vreg in defs:
                    vid = vreg.vid
                    if first[vid] < 0:
                        first[vid] = pos
                        appearance.append(vreg)
                    last[vid] = pos
                for vreg in uses:
                    vid = vreg.vid
                    if first[vid] < 0:
                        first[vid] = pos
                        appearance.append(vreg)
                    last[vid] = pos
                    bit = 1 << vid
                    if not kill & bit:
                        gen |= bit
                for vreg in defs:
                    kill |= 1 << vreg.vid
                pos += 1
            summaries.append((start, pos - 1, gen, kill, targets))
        return decoded, appearance, first, last, calls, summaries

    # -- step 4: linear scan ------------------------------------------------
    def _allocate(self, intervals, calls):
        assignment = {}
        spills = {}
        new_slot = self.mfunc.new_slot
        active = {"int": [], "float": []}
        free = {cls: list(self.pools[cls]) for cls in ("int", "float")}

        for vid, start, end, cls in intervals:
            index = bisect_left(calls, start)
            if index < len(calls) and calls[index] < end:
                spills[vid] = new_slot()
                continue
            # Expire old intervals, freeing their registers in active
            # order.
            live = active[cls]
            pool = free[cls]
            if live and min(live)[0] < start:
                pool.extend(reg for other_end, _, reg in live
                            if other_end < start)
                live = active[cls] = [entry for entry in live
                                      if entry[0] >= start]
            if pool:
                reg = pool.pop()
                assignment[vid] = reg
                live.append((end, vid, reg))
            else:
                # Spill the active interval with the furthest end if it
                # ends after this one; otherwise spill this interval.
                live.sort()
                _, furthest_vid, reg = live[-1]
                if live[-1][0] > end:
                    spills[furthest_vid] = new_slot()
                    del assignment[furthest_vid]
                    assignment[vid] = reg
                    live[-1] = (end, vid, reg)
                else:
                    spills[vid] = new_slot()
        return assignment, spills

    # -- step 5: rewrite ----------------------------------------------------
    def _rewrite(self, decoded, assignment, spills):
        decoded = iter(decoded)
        for block in self.mfunc.blocks:
            rewritten = []
            for instr, defs, uses in islice(decoded,
                                            len(block.instructions)):
                if spills and _touches(defs, uses, spills):
                    self._rewrite_spilled(instr, defs, uses, assignment,
                                          spills, rewritten)
                    continue
                if defs or uses:
                    ops = instr.operands
                    for index, op in enumerate(ops):
                        if isinstance(op, VirtReg):
                            ops[index] = assignment[op.vid]
                rewritten.append(instr)
            # MIR blocks carry no maintained CFG; wholesale replacement
            # is the supported idiom here.
            block.instructions = rewritten  # replint: disable=R001

    def _rewrite_spilled(self, instr, defs, uses, assignment, spills,
                         rewritten):
        """Append ``instr`` to ``rewritten`` with loads of its spilled
        uses before it and stores of its spilled defs after it."""
        taken = {"int": 0, "float": 0}
        mapping = {}
        for use in uses:
            vid = use.vid
            if vid in mapping:
                continue
            slot = spills.get(vid)
            if slot is None:
                mapping[vid] = assignment[vid]
                continue
            scratch = self.scratch[use.cls]
            index = taken[use.cls]
            if index >= len(scratch):
                raise RuntimeError("out of scratch registers")
            taken[use.cls] = index + 1
            reg = mapping[vid] = scratch[index]
            rewritten.append(MachineInstr(
                "ld", [reg, StackSlot(slot.index), Imm(0)]))
        stores = []
        for define in defs:
            vid = define.vid
            slot = spills.get(vid)
            if slot is None:
                if vid not in mapping:
                    mapping[vid] = assignment[vid]
                continue
            reg = mapping.get(vid)
            if reg is None:
                # When all scratch registers feed uses, the def aliases
                # the last one: operands are read before the destination
                # is written.
                scratch = self.scratch[define.cls]
                index = taken[define.cls]
                taken[define.cls] = index + 1
                reg = mapping[vid] = scratch[min(index, len(scratch) - 1)]
            stores.append(MachineInstr(
                "st", [reg, StackSlot(slot.index), Imm(0)]))
        ops = instr.operands
        for index, op in enumerate(ops):
            if isinstance(op, VirtReg):
                ops[index] = mapping[op.vid]
        rewritten.append(instr)
        rewritten.extend(stores)


def allocate_registers(mfunc, isa):
    """Run register allocation in place; returns (assignment, spills)."""
    return Allocator(mfunc, isa).run()
