"""Layer-by-layer tracing of tapecalc from outside the program.

``Tracer.install`` replaces the public functions of each layer with
timing wrappers, at every place the name is bound: in the module that
imports it (``suites.eval_tape``, ``cli.eval_tape``,
``render.type_of_tape``, ...) and, for functions that do not recurse
through their own module, in the defining module too.  Recursive walkers
(typing, evaluation, the tape builders) keep their own module binding, so
recursion adds no frames and deep terms fail at the same depth as
untraced; their recursive call counts come from walking the term instead.

Each wrapper that enters a layer opens a span: layer, start, end, parent,
operation id, and bookkeeping seconds after it and inside it.  A call into
the layer that is already innermost is counted but opens no span, so a
layer's self time is its span time minus the time of child spans, which
all belong to other layers.  Work the tracer itself does around a call
(counting nonzeros, hashing terms) is timed as bookkeeping and subtracted
from the span it falls in.  Unattributed time is the traced wall time
minus all self times: code in no listed layer, plus the bookkeeping.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "parser", "surface.elaborate", "surface.interpretation",
          "render", "tape.type", "tape.build", "interp.eval", "kleisli.then",
          "kleisli.tensor", "kleisli.oplus", "kleisli.build",
          "suites.compare", "suites.fresh")

COUNTERS = ("parser.calls", "parser.tokens", "surface.elaborate.calls",
            "surface.nodes", "render.bytes", "tape.type.calls",
            "tape.build.calls", "interp.eval.calls", "interp.eval.repeats",
            "interp.eval_circuit.calls", "kleisli.then.calls",
            "kleisli.then.madds", "kleisli.then.perm", "kleisli.tensor.calls",
            "kleisli.tensor.out_nnz", "kleisli.oplus.calls",
            "kleisli.oplus.out_nnz", "suites.instances", "suites.sem_eq.calls")

MAXIMA = ("kleisli.max_dim", "kleisli.max_nnz")

TAPE_BUILDERS = ("tensor_tape", "whisker_left", "whisker_right",
                 "whisker_left_mono", "whisker_right_mono", "distributor",
                 "dl_nary", "symplus_tape", "codiag_tape", "copier_tape",
                 "op_inj_tape", "term_tape")

KLEISLI_BUILDERS = ("identity", "sym_tensor", "sym_plus", "dl", "dr",
                    "copier", "discharger", "codiag", "cobang", "op_matrix")


def is_permutation(m, entries) -> bool:
    """Square, one nonzero in each column and each row, all weights 1;
    entries are m's nonzeros."""
    return (m.dom == m.cod and len(entries) == m.dom
            and len({x for _, x, _ in entries}) == m.dom
            and len({y for y, _, _ in entries}) == m.dom
            and all(w == 1 for _, _, w in entries))


class Terms:
    """Structural facts about core terms, computed without recursion.

    Each node gets a structural hash (equal terms, equal hashes) and the
    number of tape and circuit nodes in its tree, counting a shared
    subterm once per occurrence as the recursive walkers do.  Nodes are
    cached by identity, holding a reference so that identities stay
    unique until ``clear``.
    """

    def __init__(self, term_types, tape_type):
        self.term_types = term_types
        self.tape_type = tape_type
        self.cache: dict[int, tuple] = {}
        self.fields: dict[type, tuple[str, ...]] = {}

    def clear(self) -> None:
        self.cache.clear()

    def _values(self, node):
        names = self.fields.get(type(node))
        if names is None:
            names = tuple(f.name for f in dataclasses.fields(node))
            self.fields[type(node)] = names
        return [getattr(node, n) for n in names]

    def info(self, root) -> tuple:
        """(node, hash, tape nodes, circuit nodes, tape children)."""
        cache = self.cache
        if id(root) in cache:
            return cache[id(root)]
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in cache:
                continue
            values = self._values(node)
            if not ready:
                stack.append((node, True))
                stack.extend((v, False) for v in values
                             if isinstance(v, self.term_types)
                             and id(v) not in cache)
                continue
            is_tape = isinstance(node, self.tape_type)
            parts = [type(node).__name__]
            tapes, circuits, kids = int(is_tape), int(not is_tape), []
            for v in values:
                if isinstance(v, self.term_types):
                    entry = cache[id(v)]
                    parts.append(entry[1])
                    tapes += entry[2]
                    circuits += entry[3]
                    if isinstance(v, self.tape_type):
                        kids.append(v)
                else:
                    parts.append(v)
            cache[id(node)] = (node, hash(tuple(parts)), tapes, circuits,
                               kids)
        return cache[id(root)]


def interpretation_key(interp) -> int:
    """Hash of what evaluation depends on: carriers, generator types and
    matrices, and the operation weights."""
    def matrix_key(m):
        return m.dom, m.cod, tuple(sorted(m.nonzeros()))

    weights = sorted(((op.name, op.arity, op.params), w)
                     for op, w in interp.model.weights.items())
    return hash((tuple(sorted(interp.carriers.items())),
                 tuple(sorted(interp.sig.gens.items())),
                 tuple(sorted((n, matrix_key(m))
                              for n, m in interp.gen_matrices.items())),
                 interp.model.theory.name, tuple(weights)))


class Tracer:
    """Spans and counters for one traced run, grouped by input size."""

    def __init__(self, tc):
        self.tc = tc
        self.layer_index = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_bk = array("d")        # bookkeeping after the call
        self.span_inner_bk = array("d")  # bookkeeping of calls inside it
        self.stack: list[int] = []
        self.op_id = 0
        self.group = "all"
        self.op_groups: dict[int, str] = {0: "all"}
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.terms = Terms((tc.tape.TapeTerm, tc.circuit.CircuitTerm),
                           tc.tape.TapeTerm)
        self.interp_keys: dict[int, tuple] = {}
        self.seen: set[int] = set()
        self.repeat_unmeasured = False
        self.patches: list[tuple[object, str, object]] = []

    # -- operations and counters -------------------------------------------------

    def begin_op(self, group: str) -> None:
        """Start a new operation; later spans and counts belong to it."""
        self.op_id += 1
        self.group = group
        self.op_groups[self.op_id] = group
        self.terms.clear()
        self.interp_keys.clear()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[self.group][name] += value

    def raise_max(self, name: str, value: float) -> None:
        bucket = self.counts[self.group]
        bucket[name] = max(bucket[name], value)

    def note_matrix(self, m) -> int:
        nnz = sum(1 for _ in m.nonzeros())
        self.raise_max("kleisli.max_dim", max(m.dom, m.cod))
        self.raise_max("kleisli.max_nnz", nnz)
        return nnz

    # -- wrappers -----------------------------------------------------------------

    def wrap(self, fn, layer: str | None, counter: str | None = None,
             after=None):
        """A wrapper for fn that opens a span of `layer` (unless that layer
        is already innermost, or layer is None), adds 1 to `counter` and
        then runs after(tracer, args, result) as bookkeeping."""
        index = -1 if layer is None else self.layer_index[layer]
        stack = self.stack

        def traced(*args, **kwargs):
            if index < 0 or (stack and self.span_layer[stack[-1]] == index):
                result = fn(*args, **kwargs)
                begin = perf_counter()
                if counter:
                    self.add(counter)
                if after:
                    after(self, args, result)
                if stack:
                    self.span_inner_bk[stack[-1]] += perf_counter() - begin
                return result
            span = len(self.span_start)
            self.span_layer.append(index)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_bk.append(0.0)
            self.span_inner_bk.append(0.0)
            self.span_end.append(0.0)
            self.span_start.append(0.0)
            stack.append(span)
            start = perf_counter()
            self.span_start[span] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.span_end[span] = end
                stack.pop()
            if counter:
                self.add(counter)
            if after:
                after(self, args, result)
            self.span_bk[span] = perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, value) -> None:
        self.patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, home, name: str, layer, counter=None, after=None,
                       in_home: bool = True) -> None:
        """Wrap home.name wherever a tapecalc module binds it."""
        fn = getattr(home, name)
        traced = self.wrap(fn, layer, counter, after)
        for module in self.tc.modules:
            if module.__dict__.get(name) is fn and (in_home or module is not home):
                self._patch(module, name, traced)

    def patch_method(self, cls, name: str, layer, counter=None, after=None):
        raw = cls.__dict__[name]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        traced = self.wrap(fn, layer, counter, after)
        self._patch(cls, name, staticmethod(traced) if static else traced)

    def install(self) -> None:
        tc = self.tc
        pf, pm = self.patch_function, self.patch_method
        pf(tc.cli, "main", "cli")
        pf(tc.parser, "parse_module", "parser", "parser.calls")
        pf(tc.parser, "parse_object_expr", "parser", "parser.calls")
        pf(tc.parser, "tokenize", "parser", after=_after_tokenize)
        pf(tc.surface, "elaborate", "surface.elaborate",
           "surface.elaborate.calls", _after_elaborate)
        pm(tc.surface.SourceModule, "interpretation", "surface.interpretation")
        pf(tc.render, "render_svg", "render", after=_after_render)
        pf(tc.tape, "type_of_tape", "tape.type", after=_after_type,
           in_home=False)
        pf(tc.circuit, "type_of_circuit", "tape.type", in_home=False)
        for name in TAPE_BUILDERS:
            pf(tc.tape, name, "tape.build", "tape.build.calls", in_home=False)
        pf(tc.interp, "eval_tape", "interp.eval", after=_after_eval,
           in_home=False)
        pm(tc.kleisli.Matrix, "then", "kleisli.then", "kleisli.then.calls",
           _after_then)
        pm(tc.kleisli.Matrix, "tensor", "kleisli.tensor",
           "kleisli.tensor.calls", _after_product("kleisli.tensor.out_nnz"))
        pm(tc.kleisli.Matrix, "oplus", "kleisli.oplus", "kleisli.oplus.calls",
           _after_product("kleisli.oplus.out_nnz"))
        for name in ("make", "identity"):
            pm(tc.kleisli.Matrix, name, "kleisli.build", after=_after_build)
        for name in KLEISLI_BUILDERS:
            pf(tc.kleisli, name, "kleisli.build", after=_after_build)
        pf(tc.suites, "sem_eq", None, "suites.sem_eq.calls")
        pf(tc.suites, "first_difference", "suites.compare")
        for name in ("rand_substochastic", "rand_natural", "rand_matrix"):
            pf(tc.suites, name, "suites.fresh")
        for name in ("circuit", "tape", "interp"):
            pm(tc.suites.Freshener, name, "suites.fresh")

    def uninstall(self) -> None:
        while self.patches:
            owner, name, value = self.patches.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------------

    def bookkeeping(self) -> float:
        return sum(self.span_bk) + sum(self.span_inner_bk)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self seconds per group and layer, from the spans alone."""
        child = list(self.span_inner_bk)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += (self.span_end[i] - self.span_start[i]
                                  + self.span_bk[i])
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, busy in enumerate(child):
            group = self.op_groups[self.span_op[i]]
            out[group][LAYERS[self.span_layer[i]]] += (
                self.span_end[i] - self.span_start[i] - busy)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("layer\tstart\tend\tparent\top\tbookkeeping_after"
                      "\tbookkeeping_inside\n")
            for row in zip(self.span_layer, self.span_start, self.span_end,
                           self.span_parent, self.span_op, self.span_bk,
                           self.span_inner_bk):
                layer, start, end, parent, op, after, inside = row
                out.write(f"{LAYERS[layer]}\t{start:.9f}\t{end:.9f}\t"
                          f"{parent}\t{op}\t{after:.9f}\t{inside:.9f}\n")


# --- bookkeeping after calls -------------------------------------------------

def _after_tokenize(tr: Tracer, args, tokens) -> None:
    tr.add("parser.tokens", len(tokens))


def _after_elaborate(tr: Tracer, args, term) -> None:
    info = tr.terms.info(term)
    tr.add("surface.nodes", info[2] + info[3])


def _after_render(tr: Tracer, args, svg) -> None:
    tr.add("render.bytes", len(svg.encode("utf-8")))


def _after_type(tr: Tracer, args, result) -> None:
    tr.add("tape.type.calls", tr.terms.info(args[0])[2])


def _after_eval(tr: Tracer, args, result) -> None:
    """Count the recursive calls eval_tape made, and how many were on an
    (interpretation, term) pair already seen in this run.  A pair seen
    before had its whole subtree evaluated then, so its subtree repeats."""
    term, interp = args[0], args[1]
    root = tr.terms.info(term)
    tr.add("interp.eval.calls", root[2])
    tr.add("interp.eval_circuit.calls", root[3])
    try:
        entry = tr.interp_keys.get(id(interp))
        if entry is None:
            entry = (interp, interpretation_key(interp))
            tr.interp_keys[id(interp)] = entry
        ikey = entry[1]
    except TypeError:
        tr.repeat_unmeasured = True
        return
    seen, repeats, stack = tr.seen, 0, [root]
    while stack:
        node = stack.pop()
        key = hash((ikey, node[1]))
        if key in seen:
            repeats += node[2]
            continue
        seen.add(key)
        stack.extend(tr.terms.info(k) for k in reversed(node[4]))
    tr.add("interp.eval.repeats", repeats)


def _after_then(tr: Tracer, args, result) -> None:
    first, second = list(args[0].nonzeros()), list(args[1].nonzeros())
    sizes = [0] * args[1].dom          # nonzeros in each column of second
    for _, x, _ in second:
        sizes[x] += 1
    tr.add("kleisli.then.madds", sum(sizes[y] for y, _, _ in first))
    if is_permutation(args[0], first) or is_permutation(args[1], second):
        tr.add("kleisli.then.perm")
    tr.note_matrix(result)


def _after_product(counter: str):
    def after(tr: Tracer, args, result) -> None:
        tr.add(counter, tr.note_matrix(result))
    return after


def _after_build(tr: Tracer, args, result) -> None:
    tr.note_matrix(result)
