"""Function-granular transform cache: content-addressed reuse of
FunctionPass results.

The compile→profile loop applies thousands of phase sequences to the
same workloads; sequences share prefixes and converge, so the same
(pass, function-content) pair is evaluated over and over.  A
``FunctionPass`` is a deterministic function of its function's content
(plus the purity attributes of called functions, folded into the cache
key), so its outcome can be cached:

- an *inactive* outcome (``run_on_function`` returned False, which by
  the pass contract means "did not mutate") lets a later identical
  application skip the pass body entirely;
- an *active* outcome stores a detached snapshot of the transformed
  body; a later identical application materializes the snapshot (a
  plain clone) instead of re-running the pass algorithm.

Materialized output equals the pass's own output up to local value
names, which the canonical fingerprint normalizes away — activity bits,
fingerprints and behaviour are bit-identical either way (enforced by
the differential suite).  Any doubt during snapshot or materialization
(function-pointer operands, missing global/callee names in the target
module, signature drift) falls back to simply running the pass.

The cache is process-global (content-addressed keys are module- and
session-independent), bounded LRU, and disabled whenever the calling
AnalysisManager is disabled (the legacy cost model) or via
``TRANSFORM_CACHE.enabled``.
"""

import threading
from collections import OrderedDict

from repro.ir.function import Function
from repro.ir.instructions import CallInst
from repro.ir.values import (
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    UndefValue,
)

_INACTIVE = "inactive"
_SEEN_ACTIVE = "seen-active"


def callee_signature(function):
    """Everything a FunctionPass may read about OTHER functions: the
    purity attributes of each non-intrinsic callee.  Part of the cache
    key so two content-identical functions whose callees differ in
    attributes never share an entry."""
    signature = set()
    for block in function.blocks:
        for inst in block.instructions:
            if isinstance(inst, CallInst) and not inst.is_intrinsic():
                callee = inst.callee
                signature.add((callee.name, callee.is_pure,
                               callee.accesses_memory,
                               tuple(sorted(callee.attributes))))
    return tuple(sorted(signature))


class FunctionSnapshot:
    """A detached copy of a transformed function body.

    Globals and constants are replaced by placeholders so the snapshot
    never appears in any live module's use lists; callees are recorded
    by name.  ``materialize`` clones the snapshot into a target function
    of a (content-identical) module, remapping placeholders to the
    target module's objects by name.
    """

    def __init__(self, shell, arg_count, global_names, callee_names):
        self.shell = shell
        self.arg_count = arg_count
        self.global_names = global_names    # name -> placeholder
        self.callee_names = callee_names    # name -> placeholder shell
        self.result_fingerprint = None      # canonical post-state hash
        self.verified = False               # passed verify_function once
        # Cloning temporarily registers forward-reference uses on the
        # shell's instructions; concurrent materializations (threads
        # sharing one transform cache) must not interleave those
        # use-list edits.
        self._lock = threading.Lock()

    # -- capture ----------------------------------------------------------
    @classmethod
    def capture(cls, function):
        """Snapshot ``function``'s current body, or None when the body
        holds something the snapshot cannot make module-independent."""
        from repro.passes.cloning import clone_blocks_into

        value_map = {}
        global_names = {}
        callee_names = {}
        for block in function.blocks:
            for inst in block.instructions:
                for op in inst.operands:
                    if isinstance(op, GlobalVariable):
                        if id(op) not in value_map:
                            placeholder = GlobalVariable(
                                op.name, op.value_type, op.initializer,
                                op.is_constant_global)
                            value_map[id(op)] = placeholder
                            global_names[op.name] = placeholder
                    elif isinstance(op, Function):
                        return None  # function-pointer-ish operand
        shell = Function(function.name, function.ftype)
        shell.is_pure = function.is_pure
        shell.accesses_memory = function.accesses_memory
        shell.attributes = set(function.attributes)
        for old_arg, new_arg in zip(function.args, shell.args):
            new_arg.name = old_arg.name
            value_map[id(old_arg)] = new_arg

        def on_clone(_inst, clone):
            # Callees are recorded as placeholder shells by name;
            # materialization rebinds them in the target module.
            if isinstance(clone, CallInst) and not clone.is_intrinsic():
                name = clone.callee.name
                placeholder = callee_names.get(name)
                if placeholder is None:
                    placeholder = Function(name, clone.callee.ftype)
                    callee_names[name] = placeholder
                clone.callee = placeholder

        clone_blocks_into(
            function.blocks, shell, value_map, {},
            make_block=lambda b: shell.append_block(b.name),
            on_clone=on_clone)
        return cls(shell, len(function.args), global_names,
                   callee_names)

    # -- materialization --------------------------------------------------
    def materialize(self, function):
        """Replace ``function``'s body with a clone of the snapshot.

        Returns True on success; on any mismatch the target is left
        untouched and the caller runs the pass normally.
        """
        with self._lock:
            built = self._build(function)
            if built is None:
                return False
            self._commit(function, built)
            return True

    def _build(self, function):
        """Clone the snapshot body against ``function``'s module without
        touching the function; returns the new block list or None.  The
        split from :meth:`_commit` lets the module-pass memo build every
        function's clone before committing any — replay stays atomic.
        """
        from repro.passes.cloning import clone_blocks_into

        module = function.module
        if module is None or len(function.args) != self.arg_count:
            return None
        value_map = {}
        for name, placeholder in self.global_names.items():
            target_global = module.globals.get(name)
            if target_global is None or \
                    target_global.value_type != placeholder.value_type:
                return None
            value_map[id(placeholder)] = target_global
        callee_map = {}
        for name, placeholder in self.callee_names.items():
            target_callee = module.functions.get(name)
            if target_callee is None or \
                    target_callee.ftype != placeholder.ftype:
                return None
            callee_map[name] = target_callee
        for snap_arg, target_arg in zip(self.shell.args, function.args):
            if snap_arg.type != target_arg.type:
                return None
            value_map[id(snap_arg)] = target_arg

        from repro.ir.basicblock import BasicBlock

        def prepare(inst):
            # Constants are copied (never shared with the snapshot) so
            # no use-list grows across modules.
            for op in inst.operands:
                if id(op) in value_map:
                    continue
                if isinstance(op, ConstantInt):
                    value_map[id(op)] = ConstantInt(op.type, op.value)
                elif isinstance(op, ConstantFloat):
                    value_map[id(op)] = ConstantFloat(op.type, op.value)
                elif isinstance(op, UndefValue):
                    value_map[id(op)] = UndefValue(op.type)

        def on_clone(_inst, clone):
            if isinstance(clone, CallInst) and not clone.is_intrinsic():
                clone.callee = callee_map[clone.callee.name]

        block_map = {}
        try:
            return clone_blocks_into(
                self.shell.blocks, function, value_map, block_map,
                make_block=lambda b: BasicBlock(b.name, function),
                prepare=prepare, on_clone=on_clone)
        except Exception:  # pragma: no cover - abort leaves target intact
            for clone_block in block_map.values():
                clone_block.clear_instructions()
            return None

    def _commit(self, function, new_blocks):
        """Detach the old body, install the built clone (cannot fail)."""
        function.set_blocks(new_blocks)
        function.attributes = set(self.shell.attributes)


class TransformCacheStats:
    def __init__(self):
        self.inactive_hits = 0
        self.materialized = 0
        self.materialize_failures = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    def as_dict(self):
        return dict(self.__dict__)

    def __repr__(self):
        return (f"<TransformCacheStats inactive={self.inactive_hits} "
                f"materialized={self.materialized} misses={self.misses}>")


class FunctionTransformCache:
    """Bounded LRU of (pass, function-content) -> outcome."""

    def __init__(self, max_entries=4096, eager_capture=False):
        self.enabled = True
        #: True captures a snapshot on the first active encounter.
        #: Measured on the cold compile->profile benchmark this LOSES:
        #: most (pass, content) pairs are unique, so the per-outcome
        #: clone tax exceeds the saved re-runs.  Lazy capture (default)
        #: marks the first encounter and clones on the second.
        self.eager_capture = eager_capture
        self.max_entries = max_entries
        self.stats = TransformCacheStats()
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def key(self, pass_name, fingerprint, signature):
        return (pass_name, fingerprint, signature)

    def apply(self, key, function):
        """Serve a cached outcome for ``function``.

        Returns ``(outcome, snapshot)`` where outcome is ``False``
        (known inactive: skip the pass), ``True`` (snapshot
        materialized: function transformed; the snapshot rides along so
        the caller can seed its analysis manager and track
        verification), or ``None`` (miss / unusable entry: run the
        pass).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None or entry == _SEEN_ACTIVE:
            self.stats.misses += 1
            return None, None
        if entry == _INACTIVE:
            self.stats.inactive_hits += 1
            return False, None
        if entry.materialize(function):
            self.stats.materialized += 1
            return True, entry
        self.stats.materialize_failures += 1
        return None, None

    def record(self, key, function, changed, am=None):
        """Store the just-observed outcome for ``key``.

        Snapshots are captured lazily: the first active encounter only
        marks the key (capturing every one-off transform would tax cold
        evaluations), the second captures the transformed body, and
        later encounters materialize it.  For a captured snapshot the
        post-transform fingerprint is computed once, stored, and seeded
        into ``am`` (the change just invalidated it, and the evaluation
        loop is about to ask for it anyway).
        """
        if changed:
            with self._lock:
                existing = self._entries.get(key)
            if isinstance(existing, FunctionSnapshot):
                return  # keep the snapshot (materialize failed only
                        # for THIS module's global/callee layout)
            if not self.eager_capture and existing != _SEEN_ACTIVE:
                entry = _SEEN_ACTIVE
            else:
                snapshot = FunctionSnapshot.capture(function)
                if snapshot is None:
                    return
                from repro.ir.printer import function_fingerprint
                snapshot.result_fingerprint = function_fingerprint(
                    function)
                if am is not None:
                    am.put("fingerprint", function,
                           snapshot.result_fingerprint)
                entry = snapshot
        else:
            entry = _INACTIVE
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        return len(self._entries)


#: Process-global cache consulted by FunctionPass.run_with_changes.
TRANSFORM_CACHE = FunctionTransformCache()


# -- module-pass outcome memo ---------------------------------------------

def module_pass_digest(module, am):
    """Everything a module pass may read: the composed module
    fingerprint (globals header + every function's content, attributes
    and name, in module order) plus the per-function signature and
    purity flags the fingerprint does not carry (declarations included —
    inline and the SCCP call oracle read them)."""
    from repro.ir.printer import module_fingerprint

    meta = tuple((name, str(f.ftype), f.is_pure, f.accesses_memory)
                 for name, f in module.functions.items())
    return (module_fingerprint(module, am), meta)


class ModuleSnapshot:
    """The recorded outcome of one active module-pass run: a
    :class:`FunctionSnapshot` for every function whose canonical
    fingerprint changed.

    Only captured when the run changed nothing a per-function body
    snapshot cannot replay — same function and global sets, same
    signatures, same purity flags (``capture`` returns None otherwise,
    and the entry stays uncacheable).  Replay is atomic: every
    function's clone is built against the target module first, then all
    are committed; a build failure leaves the module untouched.
    """

    def __init__(self, snapshots):
        self.snapshots = snapshots  # name -> FunctionSnapshot
        self._lock = threading.Lock()

    @classmethod
    def capture(cls, module, am, pre_fingerprints, pre_meta):
        digest_meta = tuple(
            (name, str(f.ftype), f.is_pure, f.accesses_memory)
            for name, f in module.functions.items())
        if digest_meta != pre_meta:
            return None  # signature/purity/function-set drift
        snapshots = {}
        for name, function in module.functions.items():
            if function.is_declaration():
                if pre_fingerprints.get(name) is None:
                    continue
                return None  # definition became a declaration
            fingerprint = am.fingerprint(function)
            if fingerprint == pre_fingerprints.get(name):
                continue
            snapshot = FunctionSnapshot.capture(function)
            if snapshot is None:
                return None
            snapshot.result_fingerprint = fingerprint
            snapshots[name] = snapshot
        return cls(snapshots)

    def materialize(self, module, am):
        """Replay the recorded outcome onto ``module``; returns the set
        of replaced functions, or None (module left untouched)."""
        with self._lock:
            built = {}
            for name, snapshot in self.snapshots.items():
                function = module.functions.get(name)
                if function is None:
                    return None
                blocks = snapshot._build(function)
                if blocks is None:
                    return None
                built[name] = (function, snapshot, blocks)
            changed = set()
            for name, (function, snapshot, blocks) in built.items():
                snapshot._commit(function, blocks)
                am.invalidate(function, frozenset())
                if snapshot.result_fingerprint is not None:
                    am.put("fingerprint", function,
                           snapshot.result_fingerprint)
                changed.add(function)
            return changed


class ModuleTransformCache:
    """Bounded LRU of (pass, module-content) -> module-pass outcome.

    The compile→profile loop re-runs inline/ipsccp/globalopt on the
    same module states thousands of times during search (every sequence
    candidate sharing a prefix replays them); outcomes are content
    deterministic, so the memo either skips the pass (known inactive)
    or replays the recorded per-function bodies.
    """

    def __init__(self, max_entries=512, eager_capture=False):
        self.enabled = True
        self.eager_capture = eager_capture
        self.max_entries = max_entries
        self.stats = TransformCacheStats()
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def key(self, pass_name, digest):
        return (pass_name, digest)

    def apply(self, key, module, am):
        """Serve a cached outcome: ``(False, None)`` known inactive,
        ``(True, changed_functions)`` snapshot replayed, ``(None,
        last_seen)`` miss (run the pass; pass ``last_seen`` back to
        :meth:`record`)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None or entry == _SEEN_ACTIVE:
            self.stats.misses += 1
            return None, entry
        if entry == _INACTIVE:
            self.stats.inactive_hits += 1
            return False, None
        changed = entry.materialize(module, am)
        if changed is not None:
            self.stats.materialized += 1
            return True, changed
        self.stats.materialize_failures += 1
        return None, None

    def record(self, key, module, am, changed, pre_fingerprints,
               pre_meta, last_seen):
        """Store the just-observed outcome (lazy capture, like the
        function-level cache: first active encounter marks, the second
        captures)."""
        if not changed:
            entry = _INACTIVE
        else:
            with self._lock:
                existing = self._entries.get(key)
            if isinstance(existing, ModuleSnapshot):
                return  # keep it (replay failed only for THIS module)
            if last_seen != _SEEN_ACTIVE and not self.eager_capture:
                entry = _SEEN_ACTIVE
            else:
                snapshot = ModuleSnapshot.capture(
                    module, am, pre_fingerprints, pre_meta)
                if snapshot is None:
                    return
                entry = snapshot
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        return len(self._entries)


#: Process-global module-pass memo consulted by Pass.run_with_changes.
MODULE_TRANSFORM_CACHE = ModuleTransformCache()
