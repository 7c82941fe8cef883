"""Pre-decoded table interpreter for machine programs: the profile hot path.

The seed :class:`~repro.sim.machine.Simulator` re-decodes every
instruction on every execution: isinstance chains over operand classes,
dict lookups for registers, and one Python-level ``PipelineModel`` hook
call per instruction.  :class:`TapeSimulator` decodes a
:class:`MachineProgram` once, in ``__init__``, into a flat table and
interprets that table in ``run``:

- Each basic block is split at control transfers (``bcc``/``fbcc``/
  ``call``/``jmp``/``ret``) into *segments*: straight-line runs in which
  every instruction executes exactly once.
- Every instruction becomes one tuple: op code, operand indices, three
  scoreboard sources (padded with a ready slot that stays 0.0), the
  register it marks ready, its latency, and its fetch.  Immediates,
  global addresses, float constants and stack-slot offsets sit in
  constant slots after the register file and the frame base, so an
  operand read is one list subscript and a stack access is an ordinary
  ``ld``/``st`` off the frame-base slot.
- One dispatch loop runs the whole program, with the pipeline state
  (issue time, both caches' counters, mispredicts) in locals and an
  explicit call stack.  The scoreboard, the 2-bit predictor and both
  caches are inlined with the seed's exact arithmetic; only block ops
  call :meth:`~repro.sim.pipeline.Cache.access`, with the counters
  synced around the call.  An untimed run drives the same loop against
  a private ``PipelineModel`` and drops it.

What is charged where:

- *Per segment:* fuel and the instruction count, and one execution count
  keyed by segment index.  ``run`` expands the counts into
  ``dynamic_histogram`` when it returns, in first-execution order, which
  is the seed's per-instruction insertion order (the energy model sums
  in that order).
- *Per I-cache line run:* the fetch.  Decoding tags the first
  instruction of each run of instructions of one segment that share an
  I-cache line with the run's length ``n``; it does one lookup, charges
  ``n`` ticks and ``n`` hits (or one miss and ``n - 1`` hits) and leaves
  the run's last tick in the cache.  Nothing else touches the I-cache
  inside a segment, so this is exactly the seed's ``n`` accesses.  The
  other instructions do not fetch.
- *Per instruction:* the value, the D-cache access of a load or store,
  and the scoreboard over at most three sources; ``cmov``, which has
  four, first folds the sources past the first two into one ready slot.
  Latencies and every cycle charge are floats, so the scoreboard adds
  float to float (CPython specializes that, not int plus float).
- *Per penalty:* the I-cache miss, mispredict, store-miss, call and
  block-op charges advance the issue time, in the seed's order.
  Every charge on both ISAs is a multiple of 1/4 cycle, and under
  ``DEFAULT_FUEL`` every time stays far below 2**53 quarter cycles, so
  each float addition is exact (``test_timing_arithmetic_is_exact``
  holds every ISA of ``get_isa`` to this).  The D-cache's line and set
  counts are powers of two, so a load or store finds its line and set
  by shift and mask; ``run`` refuses other geometries.

Nothing is generated, compiled or cached: decoding costs about a
millisecond per program, so every ``TapeSimulator`` decodes afresh and
``tape_cache_stats()`` only counts decodes.  Over the cold corpus (164
programs, each decoded and run once, 2.49 M executed instructions;
2-vCPU host, two runs alternating with the loop that added each stall
and charged int latencies) decode took 0.13 s and the run 1.19-1.20 s,
478-482 ns per executed instruction, against 668-742 ns before; decode
plus run was 6.7-7.0x faster than the seed simulator, against 5.6-5.7x
before and 4.3-4.7x with one fetch, one ``Cache.access`` call and one
histogram update per instruction.  ``benchmarks/test_sim_tape.py``
guards the ratio to the seed and records the run time per executed
instruction.

Timing replication is exact, quirks included: ``operand_ready`` takes
the destination register into account, branches and stores mark their
*first source* operand ready (seed marks ``operands[0]``), and block
ops touch the D-cache at the instruction's *code* address.  All value
semantics come from :mod:`repro.ir.arith`.

Divergence on *failing* runs only: fuel is charged per segment, a fetch
per line run, and a load or store traps before its D-cache access, so a
run that raises ``SimulationError`` may stop with different partial
counters than the seed, but with the same error text.  Successful runs
are bit-identical in observables, instruction counts, cycles, cache and
predictor state, and histogram order (``tests/sim/test_tape.py``).
"""

import itertools
import operator
import time

from repro.backend.mir import FImm, GlobalRef, Imm, PhysReg, StackSlot
from repro.errors import SimulationError
from repro.ir import arith
from repro.ir.intrinsics import evaluate_float_intrinsic
from repro.sim.machine import _STACK_BASE, DEFAULT_FUEL, MachineResult
from repro.sim.pipeline import PipelineModel

_SPLIT = frozenset({"bcc", "fbcc", "call", "jmp", "ret"})
_MIN64, _MAX64 = -(1 << 63), (1 << 63) - 1

# Op codes of the dispatch loop.  Codes from ``ST`` up need a step
# after the scoreboard update (a store miss, the predictor, a call).
_OP_CODES = range(18)
(MOV, FRAME, LEA, INT2, FN2, FN1, CMP, CMOV, PRINT, JMP, RAISE, LD,
 ST, BR, CALL, RET, MEMSET, MEMCPY) = _OP_CODES


def _intrinsic(name):
    return lambda *args: evaluate_float_intrinsic(name, args)


def _compare(opcode, pred):
    """``arith.icmp``/``arith.fcmp`` of ``pred`` as one callable."""
    if opcode in ("bcc", "setcc"):
        return arith.ICMP_PREDICATES[pred]
    if pred == "one":  # ordered: false on NaN, unlike ``!=``
        return lambda a, b: a == a and b == b and a != b
    return arith.FCMP_PREDICATES[pred]  # NaN already compares false


def _print(kind):
    if kind == "i":
        return lambda value: ("i", arith.wrap64(value))
    return lambda value: ("f", arith.round_float_output(value))


#: Machine opcode -> (op code, value function).  Every opcode of the
#: machine IR (``backend/mir.py``) has an entry, and
#: ``tests/sim/test_tape.py`` executes each against the seed.
DISPATCH = {
    "li": (MOV, None), "mv": (MOV, None), "lfi": (MOV, None),
    "frame_alloc": (FRAME, None), "lea": (LEA, None),
    "add": (INT2, operator.add), "sub": (INT2, operator.sub),
    "mul": (INT2, operator.mul), "and": (INT2, operator.and_),
    "or": (INT2, operator.or_), "xor": (INT2, operator.xor),
    "shl": (INT2, lambda a, b: a << (b & 63)),
    "sar": (INT2, lambda a, b: a >> (b & 63)),
    "shr": (INT2, lambda a, b: (a & arith.MASK64) >> (b & 63)),
    "div": (FN2, arith.sdiv64), "rem": (FN2, arith.srem64),
    "fadd": (FN2, operator.add), "fsub": (FN2, operator.sub),
    "fmul": (FN2, operator.mul), "fdiv": (FN2, arith.fdiv),
    "fpow": (FN2, _intrinsic("pow")),
    "fsqrt": (FN1, _intrinsic("sqrt")), "fexp": (FN1, _intrinsic("exp")),
    "flog": (FN1, _intrinsic("log")), "fsin": (FN1, _intrinsic("sin")),
    "fcos": (FN1, _intrinsic("cos")), "fabs": (FN1, _intrinsic("fabs")),
    "cvtsi2sd": (FN1, float), "cvtsd2si": (FN1, arith.fptosi),
    "fneg": (FN1, operator.neg),
    "setcc": (CMP, None), "fsetcc": (CMP, None), "cmov": (CMOV, None),
    "ld": (LD, None), "st": (ST, None), "print": (PRINT, None),
    "memset": (MEMSET, None), "memcpy": (MEMCPY, None),
    "jmp": (JMP, None), "bcc": (BR, None), "fbcc": (BR, None),
    "call": (CALL, None), "ret": (RET, None),
}

_DECODE_STATS = {"decodes": 0, "decode_seconds": 0.0}


def tape_cache_stats():
    """Decode statistics (per process).  Nothing is cached any more:
    ``hits`` stays 0 and ``misses`` counts decoded programs."""
    return {"hits": 0, "misses": _DECODE_STATS["decodes"],
            "decode_seconds": _DECODE_STATS["decode_seconds"]}


# -- decoding ----------------------------------------------------------------

class _Decoder:
    """Splits a program into segments and decodes each instruction.

    Register-file indices: ``R`` holds the registers, then the frame
    base (``fb``), then the constants.  ``RD`` (ready times) holds the
    registers, then three slots of its own: ``sink`` takes the ready
    time of instructions with no register destination, ``pad`` stays
    0.0 and fills unused scoreboard sources, and ``wide`` carries the
    latest ready time of the sources past the first two of a ``cmov``.
    """

    def __init__(self, program, isa):
        self.program = program
        self.isa = isa
        regs = isa.int_regs + isa.float_regs
        self.reg_names = tuple(r.name for r in regs)
        self.reg_index = {name: i for i, name in enumerate(self.reg_names)}
        self.n_int = len(isa.int_regs)
        self.fb = self.sink = len(regs)
        self.pad, self.wide = self.sink + 1, self.sink + 2
        self.consts = []
        self._const_index = {}
        self.iline = isa.icache["line_bytes"]
        self.isets = isa.icache["lines"]

    def _const(self, value):
        """Register-file index of a constant."""
        key = (type(value), repr(value))
        index = self._const_index.get(key)
        if index is None:
            index = self.fb + 1 + len(self.consts)
            self.consts.append(value)
            self._const_index[key] = index
        return index

    def _slot(self, operand):
        """Register-file index of a register or constant operand."""
        if isinstance(operand, PhysReg):
            return self.reg_index[operand.name]
        if isinstance(operand, (Imm, FImm)):
            return self._const(operand.value)
        if isinstance(operand, GlobalRef):
            return self._const(self.program.global_layout[operand.name][0])
        raise SimulationError(f"cannot decode operand {operand!r}")

    def _timing(self, instr, op):
        """Scoreboard sources ``s0, s1, s2``, the first destination, and
        the sources past the first two of a ``cmov``.  A register may
        repeat: the scoreboard takes a maximum."""
        index, pad = self.reg_index, self.pad
        ops = instr.operands
        srcs = [index[o.name] for o in ops if isinstance(o, PhysReg)]
        dst = srcs[0] if ops and isinstance(ops[0], PhysReg) else self.sink
        if op == CMOV:
            srcs += (pad, pad)
            return srcs[0], srcs[1], self.wide, dst, tuple(srcs[2:])
        if len(srcs) > 3:
            raise SimulationError(f"cannot decode {instr.opcode!r} with "
                                  f"{len(srcs)} register operands")
        srcs += (pad, pad, pad)
        return srcs[0], srcs[1], srcs[2], dst, ()

    def _decode(self, instr, fetch):
        """One instruction as ``(op, d, a, b, c, s0, s1, s2, dst, lat,
        fetch)``."""
        opcode = instr.opcode
        ops = instr.operands
        entry = DISPATCH.get(opcode)
        if entry is None:
            return self._raise(f"unknown opcode {opcode!r}")
        op, fn = entry
        d = a = b = 0
        c = fn
        latency = 1
        s0, s1, s2, dst, wide = self._timing(instr, op)
        if op in (LD, ST):
            d = self._slot(ops[0])
            if isinstance(ops[1], StackSlot) and isinstance(ops[2], Imm):
                a, b = self.fb, self._const(ops[1].index + ops[2].value)
            else:
                a, b = self._slot(ops[1]), self._slot(ops[2])
        elif op in (MEMSET, MEMCPY):
            d, a, b = (self._slot(o) for o in ops)
            c = instr.address
        elif op == JMP:
            a = self.block_entry[ops[0].name]
        elif op == BR:
            d = (instr.address >> 1) % 256
            a, b = self._slot(ops[0]), self._slot(ops[1])
            c = (_compare(opcode, instr.pred), self.block_entry[ops[2].name])
        elif op == CALL:
            c = self.func_entry[ops[0]]
        elif op == RET:
            pass
        elif op == PRINT:
            a, c = self._slot(ops[1]), _print(ops[0])
        else:
            d = self._slot(ops[0])
            latency = self.isa.latency(instr)
            if op == FRAME:
                a = ops[1].value
            elif op == CMP:
                a, b = self._slot(ops[1]), self._slot(ops[2])
                c = _compare(opcode, instr.pred)
            elif op == LEA:
                a, b, c = self._slot(ops[1]), self._slot(ops[2]), ops[3].value
            elif op == CMOV:
                a, b = self._slot(ops[1]), self._slot(ops[2])
                c = (self._slot(ops[3]), wide)
            else:
                a = self._slot(ops[1])
                if len(ops) > 2:
                    b = self._slot(ops[2])
        return (op, d, a, b, c, s0, s1, s2, dst, float(latency), fetch)

    def _fetches(self, instrs):
        """Per instruction, ``(set, tag, n)`` if it leads a run of ``n``
        instructions in one I-cache line, else ``None``."""
        fetches = []
        for line, run in itertools.groupby(
                instr.address // self.iline for instr in instrs):
            n = len(list(run))
            fetches.append((line % self.isets, line // self.isets, n))
            fetches += [None] * (n - 1)
        return fetches

    # -- segment enumeration -------------------------------------------------
    def _enumerate(self):
        self.records = []
        self.block_entry = {}
        self.func_entry = {}
        self._falloffs = {}
        for mfunc in self.program.functions.values():
            for block in mfunc.blocks:
                runs, current = [], []
                for instr in block.instructions:
                    current.append(instr)
                    if instr.opcode in _SPLIT:
                        runs.append(current)
                        current = []
                if current:
                    runs.append(current)
                if not runs:
                    self.block_entry[block.label] = \
                        self._falloff(block.label)
                    continue
                first = len(self.records)
                for offset, run in enumerate(runs):
                    nxt = first + offset + 1 if offset + 1 < len(runs) \
                        else None
                    self.records.append({"kind": "code", "block": block,
                                         "instrs": run, "next": nxt})
                self.block_entry[block.label] = first
            if mfunc.blocks:
                self.func_entry[mfunc.name] = (
                    self.block_entry[mfunc.blocks[0].label],
                    mfunc.frame_slots)
        # Resolve fall-through targets that run off the block.
        for index in range(len(self.records)):
            record = self.records[index]
            if record["kind"] != "code" or record["next"] is not None:
                continue
            last = record["instrs"][-1].opcode
            if last in ("bcc", "fbcc", "call") or last not in _SPLIT:
                record["next"] = self._falloff(record["block"].label)

    def _falloff(self, label):
        index = self._falloffs.get(label)
        if index is None:
            index = len(self.records)
            self._falloffs[label] = index
            self.records.append({"kind": "falloff", "label": label})
        return index

    def decode(self):
        """Segments as ``(instruction count, body, fall-through segment
        or -1)``, and each segment's histogram items."""
        self._enumerate()
        segments, histograms = [], []
        for record in self.records:
            if record["kind"] == "falloff":
                message = f"fell off block {record['label']}"
                segments.append((0, (self._raise(message),), -1))
                histograms.append(())
                continue
            instrs = record["instrs"]
            counts = {}
            for instr in instrs:
                counts[instr.opcode] = counts.get(instr.opcode, 0) + 1
            body = tuple([self._decode(instr, fetch) for instr, fetch
                          in zip(instrs, self._fetches(instrs))])
            nxt = record["next"]
            segments.append((len(instrs), body, -1 if nxt is None else nxt))
            histograms.append(tuple(counts.items()))
        return segments, histograms

    def _raise(self, message):
        return (RAISE, 0, 0, 0, message, self.pad, self.pad, self.pad,
                self.sink, 0.0, None)


# -- runtime -----------------------------------------------------------------

class TapeSimulator:
    """Drop-in fast replacement for :class:`~repro.sim.machine.Simulator`.

    Same constructor and ``run`` signature; produces a
    :class:`MachineResult` with bit-identical observables, instruction
    counts, histogram order, and (when a ``PipelineModel`` is supplied)
    identical cycle counts and cache/predictor state.
    """

    def __init__(self, program, isa, timing=None, fuel=DEFAULT_FUEL):
        started = time.perf_counter()
        self.program = program
        self.isa = isa
        self.timing = timing
        self.fuel = fuel
        self.instructions_executed = 0
        self.dynamic_histogram = {}
        decoder = _Decoder(program, isa)
        self._segments, self._histograms = decoder.decode()
        self._entries = decoder.func_entry
        self._reg_names = decoder.reg_names
        self._fb, self._wide = decoder.fb, decoder.wide
        n_float = len(decoder.reg_names) - decoder.n_int
        self._regs = [0] * decoder.n_int + [0.0] * n_float + [0] \
            + decoder.consts
        self._ret_index = decoder.reg_index[isa.ret_int.name]
        self._memory = dict(program.global_init)
        self._output = []
        _DECODE_STATS["decodes"] += 1
        _DECODE_STATS["decode_seconds"] += time.perf_counter() - started

    def run(self, function_name="main"):
        entry = self._entries.get(function_name)
        if entry is None:
            raise SimulationError(f"no function {function_name!r}")
        isa = self.isa
        timing = self.timing if self.timing is not None \
            else PipelineModel(isa)
        icache, dcache = timing.icache, timing.dcache
        names = self._reg_names
        R = self._regs
        # Ready times of the registers, then the sink, pad and wide slots.
        RD = [timing.ready.get(name, 0.0) for name in names] + [0.0] * 3
        FB, WIDE = self._fb, self._wide
        M = self._memory
        mg = M.get
        oa = self._output.append
        segments = self._segments
        executions = [0] * len(segments)    # per segment: times run
        first_runs = []     # segment indices in first-execution order
        icd, dcd = icache.data, dcache.data
        pt = timing.predictor.table
        ptg = pt.get
        fuel = self.fuel
        # Locals, not globals, in the dispatch chain.
        (MOV, FRAME, LEA, INT2, FN2, FN1, CMP, CMOV, PRINT, JMP, RAISE, LD,
         ST, BR, CALL, RET, MEMSET, MEMCPY) = _OP_CODES
        MIN64, MAX64 = _MIN64, _MAX64
        # Cycle costs are host floats, not simulated IR values.  Every
        # one is a float so that the scoreboard adds float to float.
        inv_w = 1.0 / isa.issue_width  # replint: disable=R003
        iways = icache.ways
        icmiss = float(isa.icache["miss"])
        # Line and set by shift and mask.
        dline, dsets, dways = dcache.line, dcache.sets, dcache.ways
        if dline & (dline - 1) or dsets & (dsets - 1):
            raise ValueError(f"D-cache line {dline} and sets {dsets} "
                             f"must be powers of two")
        dshift = dline.bit_length() - 1
        dmask, dset_shift = dsets - 1, dsets.bit_length() - 1
        mispredict = float(isa.branch_mispredict)
        call_overhead = float(isa.call_overhead)
        ld_lat = isa.latency_table.get("ld", 1)
        ld_hit = float(isa.dcache["hit"] + ld_lat - 1)
        ld_miss = float(isa.dcache["miss"] + ld_lat - 1)
        st_extra = isa.dcache["miss"] * 0.25
        per_cell = 0.5 if isa.issue_width >= 4 else 2.0
        issue = timing.issue
        ict, ich, icm = icache.tick, icache.hits, icache.misses
        dct, dch, dcm = dcache.tick, dcache.hits, dcache.misses
        msp = timing.mispredicts
        icnt = self.instructions_executed
        pc, slots = entry
        sp = _STACK_BASE - slots
        R[FB] = sp
        stack = []
        try:
            while pc >= 0:
                times = executions[pc]
                if not times:
                    first_runs.append(pc)
                executions[pc] = times + 1
                count, body, pc = segments[pc]
                icnt += count
                if icnt > fuel:
                    raise SimulationError("simulator fuel exhausted")
                for op, d, a, b, c, s0, s1, s2, dst, lat, fetch in body:
                    # -- values (before the instruction issues) --
                    if op == MOV:
                        R[d] = R[a]
                    elif op == LD:
                        adr = R[a] + R[b]
                        if adr <= 0:
                            raise SimulationError(
                                f"load from invalid address {adr}")
                        R[d] = mg(adr, 0)
                        # The seed's ``Cache.access``, inlined.
                        dct += 1
                        line = adr >> dshift
                        ways = dcd[line & dmask]
                        tag = line >> dset_shift
                        if tag in ways:
                            dch += 1
                            lat = ld_hit
                        else:
                            dcm += 1
                            if len(ways) >= dways:
                                del ways[min(ways, key=ways.get)]
                            lat = ld_miss
                        ways[tag] = dct
                    elif op == INT2:
                        v = c(R[a], R[b])
                        R[d] = v if MIN64 <= v <= MAX64 else arith.wrap64(v)
                    elif op == ST:
                        adr = R[a] + R[b]
                        if adr <= 0:
                            raise SimulationError(
                                f"store to invalid address {adr}")
                        M[adr] = R[d]
                        dct += 1
                        line = adr >> dshift
                        ways = dcd[line & dmask]
                        tag = line >> dset_shift
                        hit = tag in ways
                        if hit:
                            dch += 1
                        else:
                            dcm += 1
                            if len(ways) >= dways:
                                del ways[min(ways, key=ways.get)]
                        ways[tag] = dct
                    elif op == JMP:
                        pc = a
                    elif op == BR:
                        taken = c[0](R[a], R[b])
                        if taken:
                            pc = c[1]
                    elif op == CMP:
                        R[d] = 1 if c(R[a], R[b]) else 0
                    elif op == FN2:
                        R[d] = c(R[a], R[b])
                    elif op == LEA:
                        R[d] = R[a] + R[b] * c
                    elif op == CMOV:
                        c, wide = c
                        R[d] = R[b] if R[a] else R[c]
                        # ``s2`` is the wide slot: fold in the sources
                        # past the first two.
                        RD[WIDE] = max(map(RD.__getitem__, wide))
                    elif op == FRAME:
                        R[d] = R[FB] + a
                    elif op == FN1:
                        R[d] = c(R[a])
                    elif op == PRINT:
                        oa(c(R[a]))
                    elif op == MEMSET:
                        start, value, n = R[d], R[a], int(R[b])
                        if n > 0 and start <= 0:
                            raise SimulationError(
                                f"store to invalid address {start}")
                        for i in range(n):
                            M[start + i] = value
                    elif op == MEMCPY:
                        start, source, n = R[d], R[a], int(R[b])
                        if n > 0:
                            if source <= 0:
                                raise SimulationError(
                                    f"load from invalid address {source}")
                            values = [mg(source + i, 0) for i in range(n)]
                            if start <= 0:
                                raise SimulationError(
                                    f"store to invalid address {start}")
                            for i in range(n):
                                M[start + i] = values[i]
                    elif op == RAISE:
                        raise SimulationError(c)
                    # -- fetch: one I-cache access per line run --
                    if fetch is not None:
                        iset, itag, irun = fetch
                        ict += irun
                        ways = icd[iset]
                        if itag in ways:
                            ich += irun
                        else:
                            icm += 1
                            ich += irun - 1
                            if len(ways) >= iways:
                                del ways[min(ways, key=ways.get)]
                            issue += icmiss
                        ways[itag] = ict
                    # -- scoreboard (the seed's ``_issue_instr``) --
                    t = issue
                    if RD[s0] > t:
                        t = RD[s0]
                    if RD[s1] > t:
                        t = RD[s1]
                    if RD[s2] > t:
                        t = RD[s2]
                    RD[dst] = t + lat
                    issue = t + inv_w
                    if op < ST:
                        continue
                    # -- after issue --
                    if op == ST:
                        if not hit:
                            issue += st_extra
                    elif op == BR:
                        state = ptg(d, 2)
                        if taken:
                            pt[d] = state + 1 if state < 3 else 3
                            if state < 2:
                                msp += 1
                                issue += mispredict
                        else:
                            pt[d] = state - 1 if state > 0 else 0
                            if state >= 2:
                                msp += 1
                                issue += mispredict
                    elif op == CALL:
                        issue += call_overhead
                        stack.append((pc, R[FB], sp))
                        if len(stack) > 400:
                            raise SimulationError("call stack overflow")
                        pc, slots = c
                        sp -= slots
                        R[FB] = sp
                    elif op == RET:
                        if stack:
                            pc, R[FB], sp = stack.pop()
                        else:
                            pc = -1
                    else:   # MEMSET, MEMCPY: the real cache, synced
                        cells = n * per_cell
                        issue += cells
                        dcache.tick, dcache.hits, dcache.misses = \
                            dct, dch, dcm
                        for i in range(0, n, dline):
                            dcache.access(c + i)
                        dct, dch, dcm = \
                            dcache.tick, dcache.hits, dcache.misses
        finally:
            self.instructions_executed = icnt
            timing.issue = issue
            icache.tick, icache.hits, icache.misses = ict, ich, icm
            dcache.tick, dcache.hits, dcache.misses = dct, dch, dcm
            timing.mispredicts = msp
            timing.ready.update({names[i]: RD[i] for i in range(len(names))
                                 if RD[i] != 0.0})
            histogram = self.dynamic_histogram
            histograms = self._histograms
            for index in first_runs:
                times = executions[index]
                for opcode, n in histograms[index]:
                    histogram[opcode] = histogram.get(opcode, 0) + n * times
        value = R[self._ret_index]
        return MachineResult(arith.wrap64(value), self._output,
                             self.instructions_executed,
                             self.dynamic_histogram, self.timing)
