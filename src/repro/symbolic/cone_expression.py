"""Multi-iteration cone expressions with enforced data reuse.

A *cone* of depth ``m`` and output window ``W`` computes every element of
``W`` at iteration ``i+m`` directly from iteration-``i`` elements.  The naive
way to obtain its equations — substituting the single-iteration expression
into itself ``m`` times — explodes exponentially; the paper avoids this by
storing every intermediate element (and every repeated operation) in a
register that is reused whenever the same value is needed again.

Here that strategy is the memo table: each ``(field, component, offset,
level)`` element is expanded exactly once, and the hash-consing expression
builder collapses repeated operations.  The number of distinct DAG nodes
reachable from a cone's outputs is therefore exactly the number of registers
of the generated VHDL — the ``Reg_i`` quantity of Equation 1.

**Reuse across cones.**  An element is the same expression in every cone of
a kernel, so a :class:`ConeExpressionBuilder` keeps one
:class:`ExpressionBuilder` and one element memo for its kernel and params,
shared by every :meth:`~ConeExpressionBuilder.build`.  An element that an
earlier cone expanded is never expanded again: characterizing the 45 cones
of a paper kernel expands each element of its largest cone once.

**The lowered step.**  The kernel's updates are lowered once per builder
(:class:`~repro.symbolic.executor.KernelStep`), and every expansion runs
that one flat instruction list at its spot: one expansion computes every
updated component of one element.

**The replay contract.**  Sharing must not change any cone.  A node's id
decides one thing, the operand order of a commutative operation (the
builder sorts operands by id), and that order decides the order of the
cone's DFG nodes, which the VHDL text and the technology mapper's float
sums follow.  A shared builder numbers nodes in the order *earlier* cones
met them.  So the first expansion of each element records what it did: the
ids of the nodes the lowered step's builder calls yielded and the
lower-level elements it asked for.  (The step makes the builder calls a
walk of the kernel's expression trees would make, in the same order; see
:mod:`repro.symbolic.executor`.)  ``build`` replays those records in the
order a builder private to the cone would make the calls.  That gives
every node its *creation rank*, the id such a builder would give it.  The
first build on an empty builder skips the replay, since its ids already
are those ranks.  The replay also counts the elements a private build
would expand (``element_register_count``).  Then one walk of the cone
counts its registers and operations, lists its input symbols in a private
build's order, and notes the commutative operations whose stored operands
are out of rank order (:attr:`ConeExpressions.swapped`).
:meth:`ConeExpressions.operands` gives every consumer, such as the DFG
lowering, the operands in a private build's order.

**The DAG memo.**  Whatever a consumer derives from one DAG node holds in
every cone that contains it.  So the builder keeps one memo dict per DAG,
and every cone it builds carries it (:attr:`ConeExpressions.dag_memo`).
Consumers key their part of it by everything their per-node data depends
on: the synthesizer keeps each node's operator cost, ASAP finish time,
pipeline stage and stage-crossing registers under its operator library and
clock, and computes them once per distinct node however many cones share
it.  The memo dies with the builder and its cones; no consumer keeps it.

**Threads.**  A builder, with its DAG, records and memo, is
single-threaded.  The explorer scopes one to each ``characterize_cones``
call and drops it on return, so no long-lived object keeps a DAG alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping,
                    Optional, Set, Tuple)

from repro.utils.geometry import Offset, Window
from repro.utils.validation import check_positive
from repro.frontend.kernel_ir import StencilKernel
from repro.symbolic.dependency import ConeDomain, analyze_footprint
from repro.symbolic.executor import ConstantFoldError, KernelStep
from repro.symbolic.expression import (
    COMMUTATIVE,
    Expression,
    ExpressionBuilder,
    FieldSymbol,
    OpKind,
    Operation,
)

ElementKey = Tuple[str, int, int, int, int]  # field, component, dx, dy, level
#: Where one expansion computes every updated element: ``(dx, dy, level)``.
_Spot = Tuple[int, int, int]


@dataclass
class ConeExpressions:
    """The symbolic result of unrolling a cone.

    Attributes
    ----------
    outputs:
        ``(field, component, offset) -> Expression`` for every element of the
        output window at the final level.
    register_count:
        Number of distinct DAG nodes (operations + element values + constants)
        reachable from the outputs — the registers of the generated VHDL.
    element_register_count:
        Number of distinct intermediate/output *element values* expanded
        (the memo size of a builder private to this cone), excluding raw
        input symbols.
    operation_counts:
        Distinct operation nodes per operator kind after reuse.
    input_symbols:
        The distinct level-0 / read-only symbols the cone reads.
    swapped:
        Ids of the commutative operations whose operands this cone orders
        the other way round from the shared DAG (see :meth:`operands`).
    dag_memo:
        The per-DAG memo shared by every cone of one builder: consumer key
        -> that consumer's per-node data (see the module docstring).
    """

    kernel_name: str
    domain: ConeDomain
    outputs: Dict[Tuple[str, int, Offset], Expression]
    register_count: int
    element_register_count: int
    operation_counts: Dict[OpKind, int]
    input_symbols: List[FieldSymbol]
    swapped: FrozenSet[int] = field(default=frozenset(), repr=False,
                                    compare=False)
    dag_memo: Dict[Hashable, Any] = field(default_factory=dict, repr=False,
                                          compare=False)

    @property
    def name(self) -> str:
        """``<kernel>_w<window>_d<depth>``: the cone's design name."""
        return (f"{self.kernel_name}_w{self.domain.window_side}"
                f"_d{self.domain.depth}")

    @property
    def operation_count(self) -> int:
        return sum(self.operation_counts.values())

    @property
    def input_count(self) -> int:
        return len(self.input_symbols)

    @property
    def output_count(self) -> int:
        return len(self.outputs)

    @property
    def critical_path_depth(self) -> int:
        """Longest operator chain from any input to any output (DAG depth)."""
        return max((expr.depth for expr in self.outputs.values()), default=0)

    def ordered_outputs(self) -> List[Tuple[Tuple[str, int, Offset],
                                            Expression]]:
        """``(port, expression)`` of every output in port order: by field,
        component, row, then column."""
        return sorted(self.outputs.items(),
                      key=lambda item: (item[0][0], item[0][1],
                                        item[0][2].dy, item[0][2].dx))

    def operands(self, node: Operation) -> Tuple[Expression, ...]:
        """``node``'s operands in the order a builder private to this cone
        stores them: commutative operands by creation rank."""
        if node.node_id in self.swapped:
            first, second = node.operands
            return (second, first)
        return node.operands


def _walk(roots: Iterable[Expression], rank: Optional[Mapping[int, int]]
          ) -> Tuple[int, Dict[OpKind, int], List[FieldSymbol], FrozenSet[int]]:
    """One pass over the DAG under ``roots``.

    Returns the distinct node count, the operations per kind, the input
    symbols and the swapped operations.  Nodes are visited depth first,
    last operand first, in the order they would be on a builder private to
    the cone: commutative operands in ``rank`` order (``None``: the node
    ids are the ranks).
    """
    seen: Set[int] = set()
    operations: Dict[OpKind, int] = {}
    symbols: List[FieldSymbol] = []
    swapped: Set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        node_id = node.node_id
        if node_id in seen:
            continue
        seen.add(node_id)
        if isinstance(node, Operation):
            kind = node.kind
            operations[kind] = operations.get(kind, 0) + 1
            operands = node.operands
            if rank is not None and kind in COMMUTATIVE:
                first, second = operands
                if rank[second.node_id] < rank[first.node_id]:
                    operands = (second, first)
                    swapped.add(node_id)
            stack.extend(operands)
        elif isinstance(node, FieldSymbol):
            symbols.append(node)
    return len(seen), operations, symbols, frozenset(swapped)


class ConeExpressionBuilder:
    """Builds the reused-expression DAG of the cones of one kernel.

    Every :meth:`build` shares one expression builder and element memo (see
    the module docstring); an instance is single-threaded.
    """

    def __init__(self, kernel: StencilKernel,
                 params: Optional[Mapping[str, float]] = None) -> None:
        self.kernel = kernel
        self.footprint = analyze_footprint(kernel)
        self._builder = ExpressionBuilder()
        self._step = KernelStep(kernel, params)
        self._components = {decl.name: decl.components
                            for decl in kernel.fields}
        #: Elements one expansion computes (one per updated component).
        self._updates = len(set(self._step.outputs))
        self._memo: Dict[ElementKey, Expression] = {}
        #: Spot -> its marker in the records, ``~index``: a negative int.
        self._markers: Dict[_Spot, int] = {}
        #: Marker -> what the spot's first expansion did, in call order and
        #: without repeats: ids of the nodes its builder calls yielded and
        #: markers of the lower-level expansions it asked for.
        self._records: Dict[int, Tuple[int, ...]] = {}
        #: The DAG memo every cone of this builder carries.
        self._dag_memo: Dict[Hashable, Any] = {}

    # ------------------------------------------------------------------ #

    def build(self, window_side: int, depth: int) -> ConeExpressions:
        """Unroll ``depth`` iterations for a ``window_side x window_side`` output tile.

        Raises :class:`~repro.symbolic.executor.ConstantFoldError`, naming
        this cone, when an iteration folds a divisor to zero or a square
        root's operand to a negative constant.  The builder stays usable:
        a later cone that never reaches the faulty spot builds as on a
        fresh builder, and one that does raises the same error again.
        """
        check_positive("window_side", window_side)
        check_positive("depth", depth)

        builder = self._builder
        fresh = builder.interned_node_count == 0
        window = Window.square(window_side)
        outputs: Dict[Tuple[str, int, Offset], Expression] = {}
        requests: List[int] = []
        builder.record = requests
        try:
            for field_name in self.kernel.state_field_names:
                for component in range(self._components[field_name]):
                    for offset in window.elements():
                        outputs[(field_name, component, offset)] = \
                            self._element(field_name, component, offset.dx,
                                          offset.dy, depth)
        except ConstantFoldError as error:
            raise ConstantFoldError(error.fault, error.iteration,
                                    (window_side, depth)) from error
        finally:
            builder.record = None

        if fresh:
            rank = None
            element_count = len(self._memo)
        else:
            rank, expansions = self._replay(requests)
            element_count = expansions * self._updates
        register_count, operation_counts, symbols, swapped = _walk(
            outputs.values(), rank)
        domain = ConeDomain(
            output_window=window,
            depth=depth,
            radius=self.footprint.radius,
            components=sum(self._components[f]
                           for f in self.kernel.state_field_names),
        )
        return ConeExpressions(
            kernel_name=self.kernel.name,
            domain=domain,
            outputs=outputs,
            register_count=register_count,
            element_register_count=element_count,
            operation_counts=operation_counts,
            input_symbols=symbols,
            swapped=swapped,
            dag_memo=self._dag_memo,
        )

    # ------------------------------------------------------------------ #

    def _element(self, field_name: str, component: int, dx: int, dy: int,
                 level: int) -> Expression:
        """Expression of ``field[component]`` at ``(dx, dy)`` of iteration
        ``level``."""
        builder = self._builder
        if level == 0:
            return builder.intern_symbol(field_name, component, dx, dy, 0)
        spot = (dx, dy, level)
        marker = self._markers.get(spot)
        if marker is None:
            marker = self._markers[spot] = ~len(self._markers)
        caller = builder.record
        caller.append(marker)
        key = (field_name, component, dx, dy, level)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        record: List[int] = []
        builder.record = record
        try:
            values = self._expand(dx, dy, level)
        finally:
            builder.record = caller
        self._records[marker] = tuple(dict.fromkeys(record))
        memo = self._memo
        for (ufield, ucomponent), expr in zip(self._step.outputs, values):
            memo[(ufield, ucomponent, dx, dy, level)] = expr
        result = memo.get(key)
        if result is None:
            raise KeyError(
                f"kernel {self.kernel.name!r} does not update "
                f"{field_name}[{component}]"
            )
        return result

    def _expand(self, dx: int, dy: int, level: int) -> List[Expression]:
        """Every updated element at one spot, in the step's output order:
        the lowered step run there, its state reads resolved one level
        down."""
        return self._step.run(self._builder, dx, dy, level - 1,
                              self._element)

    def _replay(self, requests: Iterable[int]) -> Tuple[Dict[int, int], int]:
        """Replay the records under the top-level ``requests`` of a build.

        Returns the creation rank of every node a builder private to the
        cone would create, and the number of expansions it would make.
        """
        records = self._records
        rank: Dict[int, int] = {}
        expanded: Set[int] = set()
        # depth-first, each record resuming after the expansions it asked
        # for: the call order of a private build
        pending = [iter(requests)]
        while pending:
            for item in pending[-1]:
                if item < 0:
                    if item not in expanded:
                        expanded.add(item)
                        pending.append(iter(records[item]))
                        break
                elif item not in rank:
                    rank[item] = len(rank)
            else:
                pending.pop()
        return rank, len(expanded)
