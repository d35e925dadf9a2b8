"""The flattened Rete match kernel (ROADMAP item 2).

The reference engine (:mod:`repro.rete._reference`) dispatches every
working-memory delta through a graph of node *objects*: each activation
is a Python method call, each token an immutable :class:`Token`
allocation, and each alpha test a scan over every pattern in the
network.  This module compiles the same network — built by the ordinary
:class:`~repro.rete.builder.NetworkBuilder` — into flat parallel arrays
and executes waves with an explicit LIFO work stack:

* **Alpha dispatch** is indexed by wme class: only the patterns that
  could possibly match are tested, as tuple-compare loops over the
  pattern's constant tests.  When numpy is available (and the class has
  enough eligible patterns) the EQ-against-constant batteries of a whole
  class are evaluated in one vectorized shot over interned value ids —
  see :data:`NUMPY_MIN_PATTERNS` and :func:`resolve_numpy`.
* **Beta nodes** become rows of parallel arrays (kind, bucket-key
  positions, residual tests, binding-merge plans, children), indexed by
  a compact integer.  Bucket state lives in
  :class:`~repro.rete.memory.FlatMemories`, keyed by bare value tuples.
* **Tests** — residual, intra-CE and scalar constant — are plain
  functions picked per predicate at compile time by :mod:`.predicates`.
* **Tokens** are integer slots in a :class:`~repro.rete.tokens.TokenPool`
  — three parallel lists (ids, wmes, binding values) with free-list
  reuse — instead of per-match ``Token`` objects.  Binding *names* are
  static per node (the node's sorted variable layout), so a token
  carries only a value tuple and variable lookups are index reads.

The executor replicates the reference engine's observable behaviour bit
for bit: conflict sets preserve terminal/insertion order and memory
buckets are deleted when they empty.  When the network has a ``sink``
(a :class:`~repro.trace.recorder.TraceRecorder` sets one), the same
walk appends one flat row per activation, in the reference's pre-order
with the reference's act ids — the Figure 4-1 trace without any
per-activation event object.  The ``rete_fast_vs_reference``
conformance oracle and the differential fuzz suite pin this
equivalence.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from ..ops5.ast import Constant, Predicate
from ..ops5.conflict import Instantiation
from ..ops5.values import NIL
from ..ops5.wme import WME
from .hashing import intern_value
from .memory import FlatMemories
from .nodes import JoinNode, NegativeNode, ProductionNode
from .predicates import compile_constant_test, compile_predicate
from .tokens import MINUS, PLUS, TokenPool

#: Compiled node kinds (values of ``ReteKernel.kind``).
KIND_JOIN = 0
KIND_NEGATIVE = 1
KIND_TERMINAL = 2

#: Minimum EQ-constant-eligible patterns a wme class must have before
#: the vectorized alpha path engages.  Below this, a plain Python loop
#: beats the cost of encoding the wme into value ids.
NUMPY_MIN_PATTERNS = 8


def resolve_numpy(use_numpy: Optional[bool] = None):
    """The capability check gating the vectorized alpha path.

    Returns the numpy module when the path should be used, else None.
    ``use_numpy`` is an explicit override (constructor kwarg); when it
    is None the ``REPRO_RETE_NUMPY`` environment variable decides
    (``0``/``off``/``false``/``no`` disables), defaulting to *enabled
    if importable*.  Import failure always falls back to pure Python.
    """
    if use_numpy is False:
        return None
    if use_numpy is None:
        env = os.environ.get("REPRO_RETE_NUMPY", "").strip().lower()
        if env in {"0", "off", "false", "no"}:
            return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the CI leg
        return None
    return numpy


class _AlphaSlot:
    """One alpha pattern's compiled tests and delivery list."""

    __slots__ = ("np_row", "const_tests", "intra_tests", "subs")

    def __init__(self, pattern) -> None:
        self.np_row = -1          # row in the class's vectorized block
        #: (attr, test fn, expected): ``fn(wme value, expected)``
        self.const_tests = tuple(
            compile_constant_test(t) for t in pattern.const_tests)
        #: (first attr, test fn, attr): ``fn(wme value, first value)``
        self.intra_tests = tuple(
            (first_attr, compile_predicate(pred), attr)
            for first_attr, pred, attr in pattern.intra_tests)
        #: (compact node index, unit_attrs or None) — None means the
        #: subscription feeds the node's *right* input with the raw wme;
        #: a tuple of attributes means unit tokens on the left input.
        self.subs: List[Tuple[int, Optional[Tuple[str, ...]]]] = []


class _AlphaGroup:
    """All patterns of one wme class, in global registration order."""

    __slots__ = ("slots", "np_attrs", "np_pat", "np_attr_idx", "np_val",
                 "np_rows", "np_slots", "py_slots", "val_ids")

    def __init__(self) -> None:
        self.slots: List[_AlphaSlot] = []
        self.np_rows = 0          # vectorized pattern count (0 = off)
        self.np_attrs: Tuple[str, ...] = ()
        self.np_pat = None        # test -> pattern row
        self.np_attr_idx = None   # test -> index into np_attrs
        self.np_val = None        # test -> expected value id
        #: the untraced path visits only nonzero ok-rows, so the
        #: vectorized and scalar slots are also kept split by row order
        #: (recording walks ``slots`` to keep the reference's order).
        self.np_slots: List[_AlphaSlot] = []
        self.py_slots: List[_AlphaSlot] = []
        self.val_ids: Dict[Any, int] = {}


def _numpy_eligible(pattern) -> bool:
    """True when a pattern's tests are all EQ-against-constant.

    Disjunctions, relational predicates and intra-CE tests keep the
    (still class-indexed) Python loop; bool constants are excluded
    because dict-key encoding would conflate ``True`` with ``1`` where
    OPS5 equality does not.
    """
    if pattern.intra_tests or pattern.always_false:
        return False
    for test in pattern.const_tests:
        if test.predicate is not Predicate.EQ:
            return False
        if not isinstance(test.operand, Constant):
            return False
        if isinstance(test.operand.value, bool):
            return False
    return True


class ReteKernel:
    """A compiled, array-of-struct execution engine for one network.

    Built from a :class:`~repro.rete.network.ReteNetwork`'s registration
    state (alpha patterns, subscriptions, beta-node topology) after all
    productions are added.  The network delegates ``add_wme`` /
    ``remove_wme`` / ``conflict_set`` here; structural introspection
    stays on the network's node objects.
    """

    def __init__(self, network, use_numpy: Optional[bool] = None) -> None:
        self.net = network
        self.np = resolve_numpy(use_numpy)
        self.pool = TokenPool()

        # -- beta nodes: one row of parallel arrays per node ----------------
        node_objs = sorted(network._beta_nodes.values(),
                           key=lambda n: n.node_id)
        n = len(node_objs)
        ci_of: Dict[int, int] = {node.node_id: ci
                                 for ci, node in enumerate(node_objs)}
        self.kind: List[int] = [0] * n
        self.node_id: List[int] = [0] * n
        self.label: List[str] = [""] * n
        self.kind_str: List[str] = [""] * n
        self.children: List[Tuple[int, ...]] = [()] * n
        self.left_key_pos: List[Tuple[int, ...]] = [()] * n
        self.right_key_attrs: List[Tuple[str, ...]] = [()] * n
        #: residual tests as (value index, test fn, wme attr), run as
        #: ``fn(wme value, token value)``
        self.residuals: List[Tuple] = [()] * n
        #: join output plans: (from_wme, index-or-attr) per output slot
        self.merge_plan: List[Tuple] = [()] * n
        #: joins whose CE binds no new variables: the output value tuple
        #: is the parent's, shared, with no per-extension rebuild
        self.copy_values: List[bool] = [False] * n
        self.neg_counts: List[Optional[Dict]] = [None] * n
        self.term_prod: List[Any] = [None] * n
        self.term_names: List[Tuple[str, ...]] = [()] * n
        self.term_insts: List[Optional[Dict]] = [None] * n
        self._terminal_cis: List[int] = [
            ci_of[t.node_id] for t in network._terminals]

        # Left-input variable layouts.  A node's input is either unit
        # tokens from an alpha subscription (layout = the sorted unit
        # binding variables) or its parent's output; parents always have
        # smaller node ids, so one ascending pass resolves everything.
        in_layout: List[Tuple[str, ...]] = [()] * n
        for subs in network._subscriptions.values():
            for sub in subs:
                if sub.side == "left":
                    in_layout[ci_of[sub.node.node_id]] = tuple(
                        var for var, _ in sub.unit_bindings)

        for ci, node in enumerate(node_objs):
            self.node_id[ci] = node.node_id
            self.label[ci] = node.label
            self.kind_str[ci] = node.kind
            layout = in_layout[ci]
            if isinstance(node, ProductionNode):
                self.kind[ci] = KIND_TERMINAL
                self.term_prod[ci] = node.production
                self.term_names[ci] = layout
                self.term_insts[ci] = {}
                continue
            self.left_key_pos[ci] = tuple(
                layout.index(var) for var, _ in node.eq_tests)
            self.right_key_attrs[ci] = tuple(
                attr for _, attr in node.eq_tests)
            self.residuals[ci] = tuple(
                (layout.index(var), compile_predicate(pred), attr)
                for var, pred, attr in node.residual_tests)
            if isinstance(node, NegativeNode):
                self.kind[ci] = KIND_NEGATIVE
                self.neg_counts[ci] = {}
                out_layout = layout
            else:
                assert isinstance(node, JoinNode)
                self.kind[ci] = KIND_JOIN
                new_by_var = dict(node.new_bindings)
                out_layout = tuple(sorted(set(layout) | set(new_by_var)))
                self.merge_plan[ci] = tuple(
                    (True, new_by_var[var]) if var in new_by_var
                    else (False, layout.index(var))
                    for var in out_layout)
                self.copy_values[ci] = not new_by_var
            self.children[ci] = tuple(
                ci_of[child.node_id] for child in node.children)
            for child in node.children:
                in_layout[ci_of[child.node_id]] = out_layout

        # Children split by kind (kinds are known once every row is
        # compiled — children always have larger node ids than parents).
        # The untraced walk delivers join outputs to terminal children
        # inline, without allocating a pool slot for tokens that exist
        # only to become a conflict-set entry.
        self.term_children: List[Tuple[int, ...]] = [
            tuple(c for c in self.children[ci]
                  if self.kind[c] == KIND_TERMINAL) for ci in range(n)]
        self.beta_children: List[Tuple[int, ...]] = [
            tuple(c for c in self.children[ci]
                  if self.kind[c] != KIND_TERMINAL) for ci in range(n)]
        # Recording numbers activations in the reference's pre-order,
        # so it delivers nothing inline and pushes children reversed.
        self.rev_children: List[Tuple[int, ...]] = [
            kids[::-1] for kids in self.children]
        self.no_children: List[Tuple[int, ...]] = [()] * n

        self.memories = FlatMemories(n)

        # -- alpha network: class-indexed pattern groups --------------------
        self._alpha: Dict[str, _AlphaGroup] = {}
        slot_of: Dict[int, _AlphaSlot] = {}
        for pattern in network._alpha_patterns:
            if pattern.always_false:
                continue  # can never match; no observable effect
            group = self._alpha.setdefault(pattern.cls, _AlphaGroup())
            slot = _AlphaSlot(pattern)
            group.slots.append(slot)
            slot_of[pattern.pattern_id] = slot
            if self.np is not None and _numpy_eligible(pattern):
                slot.np_row = 0  # provisional; rows assigned below
        for pattern_id, subs in network._subscriptions.items():
            slot = slot_of.get(pattern_id)
            if slot is None:
                continue
            for sub in subs:
                unit_attrs = (tuple(attr for _, attr in sub.unit_bindings)
                              if sub.side == "left" else None)
                slot.subs.append((ci_of[sub.node.node_id], unit_attrs))

        self.numpy_engaged = False
        if self.np is not None:
            for group in self._alpha.values():
                self._vectorize_group(group)

    def _vectorize_group(self, group: _AlphaGroup) -> None:
        """Build the vectorized EQ-constant block for one class group."""
        np = self.np
        eligible = [s for s in group.slots if s.np_row >= 0]
        if len(eligible) < NUMPY_MIN_PATTERNS:
            for slot in eligible:
                slot.np_row = -1
            return
        attrs: List[str] = []
        attr_idx: Dict[str, int] = {}
        pat_rows: List[int] = []
        test_attr: List[int] = []
        test_val: List[int] = []
        val_ids = group.val_ids
        for row, slot in enumerate(eligible):
            slot.np_row = row
            for attr, _, value in slot.const_tests:
                if attr not in attr_idx:
                    attr_idx[attr] = len(attrs)
                    attrs.append(attr)
                vid = val_ids.setdefault(value, len(val_ids))
                pat_rows.append(row)
                test_attr.append(attr_idx[attr])
                test_val.append(vid)
        group.np_rows = len(eligible)
        group.np_attrs = tuple(attrs)
        group.np_pat = np.asarray(pat_rows, dtype=np.intp)
        group.np_attr_idx = np.asarray(test_attr, dtype=np.intp)
        group.np_val = np.asarray(test_val, dtype=np.int64)
        group.np_slots = eligible
        group.py_slots = [s for s in group.slots if s.np_row < 0]
        self.numpy_engaged = True

    # -- wave execution -----------------------------------------------------

    def dispatch(self, wme: WME, tag: str) -> None:
        """Run one +/- wave: alpha match, then beta propagation.

        When the network has a ``sink`` list, every activation of the
        wave is also appended to it as a row (see :meth:`_walk`).
        """
        group = self._alpha.get(wme.cls)
        if group is None:
            return
        pool = self.pool
        allocs: List[int] = []
        sink = self.net.sink
        alpha_match = self._alpha_match
        if group.np_rows:
            np = self.np
            val_ids = group.val_ids
            get = wme.attrs.get
            encoded = [(-1 if type(v) is bool else val_ids.get(v, -1))
                       for v in [get(a, NIL) for a in group.np_attrs]]
            vals = np.asarray(encoded, dtype=np.int64)
            ok = np.ones(group.np_rows, dtype=bool)
            # A row fails when any of its tests mismatches; scatter
            # False into the failing rows (equivalent to
            # logical_and.at, far cheaper per wave).
            ok[group.np_pat[vals[group.np_attr_idx] != group.np_val]] \
                = False
            if sink is not None:
                # Rows must come in the reference engine's activation
                # order, so walk every slot in registration order.
                hits = ok.tolist()
                matched = [s for s in group.slots
                           if (hits[s.np_row] if s.np_row >= 0
                               else alpha_match(s, wme))]
            else:
                # Untraced final state is wave-order independent, so
                # visit only the rows the vector pass accepted.
                np_slots = group.np_slots
                matched = [np_slots[r] for r in ok.nonzero()[0].tolist()]
                matched += [s for s in group.py_slots
                            if alpha_match(s, wme)]
        else:
            matched = [s for s in group.slots if alpha_match(s, wme)]
        for slot in matched:
            for ci, unit_attrs in slot.subs:
                if unit_attrs is None:
                    self._right(ci, wme, tag, allocs, sink)
                else:
                    get = wme.attrs.get
                    tok = pool.alloc(
                        (wme.wme_id,), (wme,),
                        tuple([intern_value(get(a, NIL))
                               for a in unit_attrs]))
                    allocs.append(tok)
                    self._walk([(ci, tok, tag, None)], allocs, sink)
        release = pool.release_if_unused
        for idx in allocs:
            release(idx)

    @staticmethod
    def _alpha_match(slot: _AlphaSlot, wme: WME) -> bool:
        get = wme.attrs.get
        for attr, test, expected in slot.const_tests:
            if not test(get(attr, NIL), expected):
                return False
        for first_attr, test, attr in slot.intra_tests:
            if not test(get(attr, NIL), get(first_attr, NIL)):
                return False
        return True

    def _right(self, ci: int, wme: WME, tag: str, allocs: List[int],
               sink: Optional[list]) -> None:
        """One root right (wme) activation, then its left descendants.

        Store the wme, probe the node's left bucket and hand the
        resulting left activations to :meth:`_walk`, under the same
        recording rules.
        """
        get = wme.attrs.get
        key = tuple([get(a, NIL) for a in self.right_key_attrs[ci]])
        rbuckets = self.memories.right[ci]
        if tag == PLUS:
            bucket = rbuckets.get(key)
            if bucket is None:
                rbuckets[key] = [wme]
            else:
                bucket.append(wme)
        else:
            bucket = rbuckets.get(key)
            if bucket:
                try:
                    bucket.remove(wme)
                except ValueError:
                    pass
                else:
                    if not bucket:
                        del rbuckets[key]
        act = None
        if sink is None:
            tchildren = self.term_children[ci]
            join_kids = self.beta_children[ci]
            neg_kids = self.children[ci]
        else:
            net = self.net
            act = net._next_act_id
            net._next_act_id = act + 1
            sink.append((act, None, ci, "right", tag, key))
            tchildren = ()
            join_kids = neg_kids = self.rev_children[ci]
        left = self.memories.left[ci].get(key)
        if not left:
            return
        if sink is not None:
            left = reversed(left)
        pool = self.pool
        stack: List[Tuple[int, int, str, Optional[int]]] = []
        push = stack.append
        residuals = self.residuals[ci]
        values_arr = pool.values
        if self.kind[ci] == KIND_JOIN:
            if self.children[ci]:
                copy_vals = self.copy_values[ci]
                plan = self.merge_plan[ci]
                ids_arr = pool.ids
                wmes_arr = pool.wmes
                alloc = pool.alloc
                term_insts = self.term_insts
                term_prod = self.term_prod
                term_names = self.term_names
                wid = (wme.wme_id,)
                wtup = (wme,)
                plus = tag == PLUS
                for tok in left:
                    values = values_arr[tok]
                    for pos, test, attr in residuals:
                        if not test(get(attr, NIL), values[pos]):
                            break
                    else:
                        nvalues = values if copy_vals else tuple([
                            intern_value(get(src, NIL)) if from_wme
                            else values[src]
                            for from_wme, src in plan])
                        nids = ids_arr[tok] + wid
                        nwmes = wmes_arr[tok] + wtup
                        for tci in tchildren:
                            insts = term_insts[tci]
                            if plus:
                                insts[nids] = Instantiation(
                                    term_prod[tci], nwmes,
                                    dict(zip(term_names[tci], nvalues)))
                            else:
                                insts.pop(nids, None)
                        if join_kids:
                            ntok = alloc(nids, nwmes, nvalues)
                            allocs.append(ntok)
                            for cci in join_kids:
                                push((cci, ntok, tag, act))
        else:
            counts = self.neg_counts[ci]
            ids_arr = pool.ids
            for tok in left:
                values = values_arr[tok]
                for pos, test, attr in residuals:
                    if not test(get(attr, NIL), values[pos]):
                        break
                else:
                    ids = ids_arr[tok]
                    if tag == PLUS:
                        count = counts.get(ids, 0) + 1
                        counts[ids] = count
                        if count == 1:
                            # Was propagated; retract downstream.
                            for cci in neg_kids:
                                push((cci, tok, MINUS, act))
                    else:
                        count = counts.get(ids, 1) - 1
                        counts[ids] = count
                        if count == 0:
                            for cci in neg_kids:
                                push((cci, tok, PLUS, act))
        if stack:
            self._walk(stack, allocs, sink)

    def _walk(self, stack: List[Tuple[int, int, str, Optional[int]]],
              allocs: List[int], sink: Optional[list]) -> None:
        """Propagate left activations: the kernel's one walk.

        Stack items are ``(ci, token, tag, parent act id)``.  Within one
        root activation the final memory/count/conflict-set state is
        independent of sibling processing order: every node has a
        unique left-input path from the root, and right buckets are
        only mutated at roots.  So with nobody recording, a bare LIFO
        stack suffices, and join outputs reach terminal children
        inline, without a pool slot for tokens that exist only to
        become a conflict-set entry.

        With a ``sink`` list, each popped activation appends the row
        ``(act_id, parent_id, ci, side, tag, key)`` and takes the next
        act id.  Siblings are then pushed in reverse (bucket entries
        backwards, children from :attr:`rev_children`) and terminal
        children go through the stack too, so LIFO pops visit the
        activation forest in the reference engine's pre-order: rows
        arrive in ascending act-id order with the reference's ids.
        """
        pool = self.pool
        pop = stack.pop
        push = stack.append
        kinds = self.kind
        key_pos_arr = self.left_key_pos
        left_mem = self.memories.left
        right_mem = self.memories.right
        residuals_arr = self.residuals
        children_arr = self.children
        copy_values_arr = self.copy_values
        merge_plan_arr = self.merge_plan
        term_insts_arr = self.term_insts
        term_prod_arr = self.term_prod
        term_names_arr = self.term_names
        values_arr = pool.values
        ids_arr = pool.ids
        wmes_arr = pool.wmes
        alloc = pool.alloc
        allocs_append = allocs.append
        retain = pool.retain
        act = None
        if sink is None:
            tchildren_arr = self.term_children
            join_kids_arr = self.beta_children
            neg_kids_arr = children_arr
        else:
            record = sink.append
            net = self.net
            next_act = net._next_act_id
            tchildren_arr = self.no_children
            join_kids_arr = neg_kids_arr = self.rev_children
        while stack:
            ci, tok, tag, parent = pop()
            kind = kinds[ci]
            if kind == KIND_TERMINAL:
                if sink is not None:
                    record((next_act, parent, ci, "left", tag, ()))
                    next_act += 1
                insts = term_insts_arr[ci]
                ids = ids_arr[tok]
                if tag == PLUS:
                    insts[ids] = Instantiation(
                        production=term_prod_arr[ci],
                        wmes=wmes_arr[tok],
                        bindings=dict(zip(term_names_arr[ci],
                                          values_arr[tok])))
                else:
                    insts.pop(ids, None)
                continue
            values = values_arr[tok]
            key = tuple([values[p] for p in key_pos_arr[ci]])
            if sink is not None:
                act = next_act
                next_act += 1
                record((act, parent, ci, "left", tag, key))
            children = children_arr[ci]
            buckets = left_mem[ci]
            if kind == KIND_JOIN:
                if tag == PLUS:
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [tok]
                    else:
                        bucket.append(tok)
                    retain(tok)
                else:
                    self._remove_left(ci, key, ids_arr[tok])
                right = right_mem[ci].get(key)
                if right and children:
                    residuals = residuals_arr[ci]
                    tchildren = tchildren_arr[ci]
                    kids = join_kids_arr[ci]
                    if sink is not None:
                        right = reversed(right)
                    copy_vals = copy_values_arr[ci]
                    plan = merge_plan_arr[ci]
                    ids_tok = ids_arr[tok]
                    wmes_tok = wmes_arr[tok]
                    plus = tag == PLUS
                    for wme in right:
                        get = wme.attrs.get
                        if residuals:
                            matched = True
                            for pos, test, attr in residuals:
                                if not test(get(attr, NIL), values[pos]):
                                    matched = False
                                    break
                            if not matched:
                                continue
                        nvalues = values if copy_vals else tuple([
                            intern_value(get(src, NIL)) if from_wme
                            else values[src]
                            for from_wme, src in plan])
                        nids = ids_tok + (wme.wme_id,)
                        nwmes = wmes_tok + (wme,)
                        for tci in tchildren:
                            insts = term_insts_arr[tci]
                            if plus:
                                insts[nids] = Instantiation(
                                    term_prod_arr[tci], nwmes,
                                    dict(zip(term_names_arr[tci],
                                             nvalues)))
                            else:
                                insts.pop(nids, None)
                        if kids:
                            ntok = alloc(nids, nwmes, nvalues)
                            allocs_append(ntok)
                            for cci in kids:
                                push((cci, ntok, tag, act))
                continue
            # negative node
            counts = self.neg_counts[ci]
            ids = ids_arr[tok]
            if tag == PLUS:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [tok]
                else:
                    bucket.append(tok)
                retain(tok)
                count = 0
                right = right_mem[ci].get(key)
                if right:
                    residuals = residuals_arr[ci]
                    if residuals:
                        for wme in right:
                            get = wme.attrs.get
                            for pos, test, attr in residuals:
                                if not test(get(attr, NIL), values[pos]):
                                    break
                            else:
                                count += 1
                    else:
                        count = len(right)
                counts[ids] = count
                if count == 0:
                    for cci in neg_kids_arr[ci]:
                        push((cci, tok, PLUS, act))
            else:
                self._remove_left(ci, key, ids)
                if counts.pop(ids, 0) == 0:
                    for cci in neg_kids_arr[ci]:
                        push((cci, tok, MINUS, act))
        if sink is not None:
            net._next_act_id = next_act

    def _remove_left(self, ci: int, key: tuple,
                     ids: Tuple[int, ...]) -> None:
        """Delete one stored token equal (by wme ids) to a minus token.

        Silently tolerates absence, like the reference memories.
        """
        buckets = self.memories.left[ci]
        bucket = buckets.get(key)
        if not bucket:
            return
        pool = self.pool
        pool_ids = pool.ids
        for i, idx in enumerate(bucket):
            if pool_ids[idx] == ids:
                del bucket[i]
                if not bucket:
                    del buckets[key]
                pool.release(idx)
                return

    # -- results --------------------------------------------------------------

    def conflict_set(self) -> List[Instantiation]:
        """Live instantiations, in terminal-creation/insertion order."""
        out: List[Instantiation] = []
        for ci in self._terminal_cis:
            out.extend(self.term_insts[ci].values())
        return out
