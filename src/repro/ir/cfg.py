"""CFG analyses: orderings, dominators, dominance frontiers, natural loops.

The dominator computation is the Cooper–Harvey–Kennedy iterative algorithm,
which is simple and fast enough for the function sizes this compiler sees.
"""


def predecessors_map(function):
    """{block: per-edge predecessor list} read from the IR-maintained
    reverse links: entries come in function block order, a predecessor
    reaching the block through both arms of one ``condbr`` appearing
    once per edge — bit-identical to the historical from-scratch
    successor scan (kept as :func:`recompute_predecessors_map` for the
    differential tests), at O(V + E) without touching terminators.

    Only the verifier (which reports predecessors by name, in block
    order) and the differential tests call this: the dominator, frontier
    and loop builds below read each block's maintained links directly,
    in any order, since none of their results depends on it.
    """
    positions = function.block_positions()
    preds = {}
    for block in function.blocks:
        entry = []
        maintained = block._preds
        if maintained:
            ordered = sorted(
                (positions[id(pred)], pred, count)
                for pred, count in maintained.items()
                if id(pred) in positions)
            for _position, pred, count in ordered:
                entry.extend([pred] * count)
        preds[block] = entry
    return preds


def recompute_predecessors_map(function):
    """The from-scratch successor scan (one per-edge entry, function
    block order).  Only the differential tests use this; the verifier
    runs its own edge-count recompute, and everything else reads the
    maintained links through :func:`predecessors_map`."""
    preds = {block: [] for block in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            if succ in preds:
                preds[succ].append(block)
    return preds


def split_edge(pred, succ, name=None):
    """Insert a fresh block on the CFG edge ``pred -> succ``.

    The new block is placed right after ``pred`` in the function's
    block order, ends in an unconditional branch to ``succ``, and
    ``succ``'s phis are retargeted to it.  When ``pred`` reaches
    ``succ`` through both arms of a ``condbr`` the two edges are
    subdivided together (phis report such a predecessor once, so a
    single landing block keeps their incoming lists consistent).
    Returns the new block.
    """
    from repro.ir.basicblock import BasicBlock
    from repro.ir.instructions import BranchInst

    function = pred.parent
    block = BasicBlock(name or function.next_name("split"))
    block.insert_after(pred)
    pred.terminator().replace_successor(succ, block)
    block.append(BranchInst(succ))
    for phi in succ.phis():
        phi.replace_incoming_block(pred, block)
    return block


def reverse_postorder(function):
    """Blocks in reverse postorder from the entry (unreachable excluded)."""
    entry = function.entry
    if entry is None:
        return []
    visited = set()
    order = []

    # Iterative DFS to avoid recursion limits on long CFG chains.
    stack = [(entry, iter(entry.successors()))]
    visited.add(entry)
    while stack:
        block, succs = stack[-1]
        advanced = False
        for succ in succs:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    order.reverse()
    return order


def reachable_blocks(function):
    """The set of blocks reachable from the entry (a plain DFS; callers
    holding a :class:`DominatorTree` use ``set(dom.rpo)`` instead)."""
    entry = function.entry
    if entry is None:
        return set()
    seen = {entry}
    stack = [entry]
    while stack:
        for succ in stack.pop().successors():
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


class DominatorTree:
    """Immediate-dominator tree for the reachable part of a function."""

    def __init__(self, function):
        self.function = function
        self.rpo = reverse_postorder(function)
        self._index = {b: i for i, b in enumerate(self.rpo)}
        self.idom = self._compute()
        self.children = {b: [] for b in self.rpo}
        for block, dom in self.idom.items():
            if dom is not None:
                self.children[dom].append(block)

    def _compute(self):
        """Cooper–Harvey–Kennedy on RPO indices: ``doms[i]`` is the RPO
        index of block ``i``'s immediate dominator.  Predecessors come
        straight from the maintained links, in whatever order they were
        linked: the immediate-dominator tree is unique, so the order
        cannot change it."""
        rpo = self.rpo
        if not rpo:
            return {}
        index = self._index
        preds = [[index[p] for p in block._preds if p in index]
                 for block in rpo]
        doms = [-1] * len(rpo)
        doms[0] = 0
        changed = True
        while changed:
            changed = False
            for i in range(1, len(rpo)):
                new = -1
                for a in preds[i]:
                    if doms[a] < 0:
                        continue
                    if new < 0:
                        new = a
                        continue
                    while a != new:
                        while a > new:
                            a = doms[a]
                        while new > a:
                            new = doms[new]
                if new != doms[i]:
                    doms[i] = new
                    changed = True
        idom = {rpo[0]: None}
        for i in range(1, len(rpo)):
            idom[rpo[i]] = rpo[doms[i]]
        return idom

    def dominates(self, a, b):
        """True if block ``a`` dominates block ``b`` (reflexive)."""
        while b is not None:
            if a is b:
                return True
            b = self.idom.get(b)
        return False

    def strictly_dominates(self, a, b):
        return a is not b and self.dominates(a, b)

    def instruction_dominates(self, inst, other, positions=None):
        """True if the definition ``inst`` dominates the use site
        ``other``.

        Same-block queries are a single pass over the block (the
        historical double ``list.index`` walked it twice); pass an
        :class:`InstructionPositions` memo to make repeated same-block
        queries O(1) amortized (verifier sweeps, gvn leader checks,
        LCSSA formation)."""
        if inst.parent is other.parent:
            if inst is other:
                return False
            if positions is not None:
                return positions.index_of(inst) < positions.index_of(other)
            for candidate in inst.parent.instructions:
                if candidate is inst:
                    return True
                if candidate is other:
                    return False
            raise ValueError("instructions missing from their block")
        return self.strictly_dominates(inst.parent, other.parent)

    def dominance_frontiers(self):
        """{block: set of frontier blocks} — the CHK runner walk from
        each predecessor of a join up to the join's immediate dominator."""
        index = self._index
        idom = self.idom
        frontiers = {b: set() for b in self.rpo}
        for block in self.rpo:
            maintained = block._preds
            block_preds = [p for p in maintained if p in index]
            # A join has two in-edges; both arms of one condbr count.
            if sum(maintained[p] for p in block_preds) < 2:
                continue
            stop = idom[block]
            for runner in block_preds:
                while runner is not None and runner is not stop:
                    frontiers[runner].add(block)
                    runner = idom[runner]
        return frontiers


class InstructionPositions:
    """Memoized per-block instruction positions for repeated same-block
    dominance queries (verifier operand sweeps, gvn leader checks).

    A block's memo is rebuilt whenever its instruction count changes;
    pure erasures between queries preserve relative order, so cached
    indices stay comparison-correct until the length check fires.
    Callers interleaving insertions *and* removals that cancel out must
    drop the memo themselves (no pass does today)."""

    __slots__ = ("_by_block",)

    def __init__(self):
        self._by_block = {}

    def index_of(self, inst):
        block = inst.parent
        memo = self._by_block.get(id(block))
        if memo is None or memo[0] is not block or \
                len(memo[1]) != len(block.instructions):
            table = {id(i): k for k, i in enumerate(block.instructions)}
            memo = (block, table)
            self._by_block[id(block)] = memo
        return memo[1][id(inst)]


class Loop:
    """A natural loop: header plus the body blocks of its back edges."""

    def __init__(self, header):
        self.header = header
        self.blocks = {header}
        self.parent = None
        self.children = []

    @property
    def depth(self):
        depth = 1
        loop = self.parent
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def contains(self, block):
        return block in self.blocks

    def ordered_blocks(self):
        """The loop's blocks in the function's (deterministic) block
        order.  ``blocks`` is a set: iterating it directly follows
        object addresses, which vary run-to-run — transformation passes
        must use this accessor so their output is a pure function of the
        input program.

        Adaptive cost: a small loop in a big function position-sorts
        its members via the function-maintained block-position index
        (O(|loop| log |loop|), historically an O(|function.blocks|)
        scan per query); a loop covering a sizable fraction of the
        function keeps the scan, whose per-block constant is lower.
        Both paths produce the identical list."""
        blocks = self.blocks
        function_blocks = self.header.parent.blocks
        if len(blocks) * 4 >= len(function_blocks):
            return [b for b in function_blocks if b in blocks]
        positions = self.header.parent.block_positions()
        present = [b for b in blocks if id(b) in positions]
        present.sort(key=lambda b: positions[id(b)])
        return present

    def exit_blocks(self):
        """Blocks outside the loop targeted from inside.

        Deterministically ordered: exiting blocks are visited in the
        function's block order (``blocks`` is a set; iterating it
        directly would follow object addresses, which vary
        run-to-run — multi-exit fixups must be a pure function of the
        input program)."""
        exits = []
        for block in self.ordered_blocks():
            for succ in block.successors():
                if succ not in self.blocks and succ not in exits:
                    exits.append(succ)
        return exits

    def exiting_blocks(self):
        """In-loop blocks with an edge out of the loop, in the
        function's (deterministic) block order."""
        return [b for b in self.ordered_blocks()
                if any(s not in self.blocks for s in b.successors())]

    def exit_edges(self):
        """Ordered ``(exiting_block, exit_block)`` pairs, one per
        distinct CFG edge out of the loop."""
        edges = []
        for block in self.exiting_blocks():
            seen = set()
            for succ in block.successors():
                if succ not in self.blocks and id(succ) not in seen:
                    seen.add(id(succ))
                    edges.append((block, succ))
        return edges

    def has_dedicated_exits(self):
        """True when every exit block's predecessors are all inside the
        loop (the LoopSimplify invariant multi-exit fixups rely on)."""
        for exit_block in self.exit_blocks():
            for pred in exit_block.predecessors():
                if pred not in self.blocks:
                    return False
        return True

    def latches(self):
        return [p for p in self.header.predecessors() if p in self.blocks]

    def preheader(self):
        """The unique out-of-loop predecessor of the header, if any, and
        only if it unconditionally branches to the header."""
        outside = [p for p in self.header.predecessors()
                   if p not in self.blocks]
        if len(outside) != 1:
            return None
        candidate = outside[0]
        if candidate.successors() == [self.header]:
            return candidate
        return None

    def __repr__(self):
        return (f"<Loop header={self.header.name} "
                f"blocks={len(self.blocks)} depth={self.depth}>")


class LoopInfo:
    """Discovers the natural-loop nest of a function.

    ``domtree`` optionally reuses an already-computed (valid)
    :class:`DominatorTree` instead of rebuilding one — the analysis
    manager passes its cached tree here.
    """

    def __init__(self, function, domtree=None):
        self.function = function
        self.loops = []       # all loops, outermost first
        self.top_level = []
        self._block_loop = {}
        self._compute(domtree)

    def _compute(self, dom=None):
        if dom is None:
            dom = DominatorTree(self.function)
        headers = {}
        index = dom._index
        for position, block in enumerate(dom.rpo):
            for succ in block.successors():
                # A back edge's target dominates its source, so it
                # cannot come later in RPO: skip the dominance walk for
                # every forward edge.
                if index[succ] <= position and dom.dominates(succ, block):
                    loop = headers.setdefault(succ, Loop(succ))
                    self._collect(loop, block)
        loops = list(headers.values())
        # Establish nesting: a loop is a child of the smallest loop strictly
        # containing its header (other than itself).
        loops.sort(key=lambda lp: len(lp.blocks))
        for i, inner in enumerate(loops):
            for outer in loops[i + 1:]:
                if outer is not inner and inner.header in outer.blocks:
                    inner.parent = outer
                    outer.children.append(inner)
                    break
        self.loops = sorted(loops, key=lambda lp: lp.depth)
        self.top_level = [lp for lp in loops if lp.parent is None]
        for loop in sorted(loops, key=lambda lp: -len(lp.blocks)):
            for block in loop.blocks:
                self._block_loop[block] = loop

    @staticmethod
    def _collect(loop, latch):
        """Add to ``loop`` every block reaching ``latch`` backwards
        without passing the header (a set: link order is irrelevant)."""
        blocks = loop.blocks
        worklist = [latch]
        while worklist:
            block = worklist.pop()
            if block in blocks:
                continue
            blocks.add(block)
            worklist.extend(block._preds)

    def loop_of(self, block):
        """Innermost loop containing ``block``, or None."""
        return self._block_loop.get(block)

    def depth_of(self, block):
        loop = self.loop_of(block)
        return 0 if loop is None else loop.depth

    def innermost_loops(self):
        return [lp for lp in self.loops if not lp.children]

    def max_depth(self):
        return max((lp.depth for lp in self.loops), default=0)
