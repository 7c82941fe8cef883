"""Analytical pipeline timing model.

A scoreboard model in the style of interval analysis: instructions issue
at ``1/issue_width`` cycles apiece, stall on operands produced by long-
latency instructions, and pay penalties for branch mispredictions (2-bit
predictor), D-cache misses (set-associative LRU), and I-cache misses.
The x86 target's width-4 configuration approximates an out-of-order core;
the RISC-V target is a scalar in-order embedded core.
"""

from repro.backend.mir import PhysReg


class BranchPredictor:
    """2-bit saturating counters indexed by branch address."""

    def __init__(self, entries=256):
        self.entries = entries
        self.table = {}

    def predict_and_update(self, address, taken):
        index = (address >> 1) % self.entries
        counter = self.table.get(index, 2)  # weakly taken
        predicted = counter >= 2
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self.table[index] = counter
        return predicted == taken


class Cache:
    """Set-associative LRU cache over cell (or byte) addresses."""

    def __init__(self, line, sets, ways):
        self.line = line
        self.sets = sets
        self.ways = ways
        self.data = [dict() for _ in range(sets)]  # tag -> lru tick
        self.tick = 0
        self.hits = 0
        self.misses = 0

    def access(self, address):
        """Returns True on hit."""
        self.tick += 1
        line_address = address // self.line
        set_index = line_address % self.sets
        tag = line_address // self.sets
        ways = self.data[set_index]
        if tag in ways:
            ways[tag] = self.tick
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.ways:
            victim = min(ways, key=ways.get)
            del ways[victim]
        ways[tag] = self.tick
        return False


class PipelineModel:
    """Accumulates cycles from the simulator's instruction stream."""

    def __init__(self, isa):
        self.isa = isa
        self.issue = 0.0                  # next issue time (cycles)
        self.ready = {}                   # reg name -> ready time
        self.predictor = BranchPredictor()
        self.dcache = Cache(isa.dcache["line"], isa.dcache["sets"],
                            isa.dcache["ways"])
        self.icache = Cache(isa.icache["line_bytes"], isa.icache["lines"],
                            1 if isa.icache["lines"] < 128 else 2)
        self.mispredicts = 0

    # -- helpers -----------------------------------------------------------
    def _fetch(self, instr):
        if not self.icache.access(instr.address):
            self.issue += self.isa.icache["miss"]

    def _operand_ready(self, instr):
        latest = 0.0
        for operand in instr.operands:
            if isinstance(operand, PhysReg):
                latest = max(latest, self.ready.get(operand.name, 0.0))
        return latest

    def _issue_instr(self, instr, latency):
        self._fetch(instr)
        start = max(self.issue, self._operand_ready(instr))
        self.issue = start + 1.0 / self.isa.issue_width
        finish = start + latency
        # Mark destinations.
        dst = instr.operands[0] if instr.operands else None
        if isinstance(dst, PhysReg):
            self.ready[dst.name] = finish
        return start

    # -- event hooks (called by the simulator) -------------------------------
    def on_simple(self, instr):
        self._issue_instr(instr, self.isa.latency(instr))

    def on_jump(self, instr):
        self._issue_instr(instr, 1)

    def on_branch(self, instr, taken):
        self._issue_instr(instr, 1)
        if not self.predictor.predict_and_update(instr.address, taken):
            self.mispredicts += 1
            self.issue += self.isa.branch_mispredict

    def on_call(self, instr):
        self._issue_instr(instr, 1)
        self.issue += self.isa.call_overhead

    def on_load(self, instr, address):
        hit = self.dcache.access(address)
        latency = self.isa.dcache["hit"] if hit else self.isa.dcache["miss"]
        self._issue_instr(instr, latency + self.isa.latency(instr) - 1)

    def on_store(self, instr, address):
        # Stores retire through a write buffer: the miss penalty is mostly
        # hidden, charge a fraction.
        hit = self.dcache.access(address)
        extra = 0 if hit else self.isa.dcache["miss"] * 0.25
        self._issue_instr(instr, 1)
        self.issue += extra

    def on_block_op(self, instr, count):
        self._issue_instr(instr, 1)
        # Block ops stream through memory: ~2 cells/cycle on the wide
        # target, 1 cell per 2 cycles on the embedded one.
        per_cell = 0.5 if self.isa.issue_width >= 4 else 2.0
        self.issue += count * per_cell
        for i in range(0, count, self.dcache.line):
            self.dcache.access(instr.address + i)

    # -- results ---------------------------------------------------------------
    def cycles(self):
        return self.issue

    def seconds(self):
        return self.issue / (self.isa.frequency_ghz * 1e9)
