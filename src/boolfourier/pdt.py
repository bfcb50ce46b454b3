"""Parity decision trees: construction, checking, certificates, decompositions.

Every query mask stored in a tree or certificate lives in the ORIGINAL
coordinates of the input function.  Builders that work through a chain of
restrictions carry an affine frame (basis images, their duals and a shift)
and translate each chosen direction back before recording it, so the
recorded masks along any root-to-leaf path are linearly independent by
construction.

Trees and certificates share one walk.  It folds the +/-1 spectrum of f
and the frame along a query at each node, so trace l1 numerators stay over
the root denominator ``2**f.n`` and are comparable along every path.  Every
tree builder is a chooser over ``_grow``, which expands both branches.  A
span-query subtree, where every node of a level asks the same mask, is
built a level at a time instead (``_span_subtree``).  A certificate is one
root-to-leaf path of the greedy tree (``_greedy_path``), following either
the preferred branch or the one holding an anchor point.
Both take each fold from ``_fold_step``, turn an answer into a fold bit by
``_Frame.fold_bit`` and take the branch's frame from ``_Frame.branches``.
The frame is ``restrict._Frame``, the one code path that restricts: a
builder or certificate that needs the truth table of a restriction gathers
it once from the frame (``_Frame.restriction``).  Both norm-halving
sub-certificates are paths on the outer frame, so they come back in
original coordinates.
The degree-drop search needs no frame.  ``_Bases`` walks the candidates'
canonical bases as arrays, each prefix's next rows one run of a submask
table, and the rows give each kernel directly.  Candidates are tested in
chunks: ``_kernel_points`` fills a chunk's kernels with
``_bits.span_points``, and ``_drops`` runs ``core._mobius_levels``.  A
quadratic's search starts at its Dickson rank (``_first_codim``), and the
levels below it are charged to the budget unwalked.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ._bits import (
    dot,
    lex_key,
    lex_keys,
    mask_to_string,
    popcounts,
    span_points,
    string_to_mask,
)
from .core import (
    N_MAX,
    BooleanFunction,
    Spectrum,
    _as_arrays,
    _butterfly_level,
    _mobius_levels,
    _pair_counts,
    _pm_of_sums,
    _wht_sums,
    _xor_butterfly,
    anf_of,
    deg2,
    wht,
)
from .errors import (
    BoolFourierError,
    ConstantInput,
    DimensionMismatch,
    InvalidTree,
    NotFound,
    TooLarge,
)
from .gf2 import _greedy_coords, dickson_matrix, gf2_rank
from .restrict import (
    AffineConstraint,
    _Frame,
    derivative,
    fold,
    restrict_affine,
)

__all__ = [
    "PdtLeaf",
    "PdtNode",
    "Pdt",
    "TraceNode",
    "BuildTrace",
    "PdtCheckReport",
    "Certificate",
    "RankResult",
    "pdt_eval",
    "pdt_check",
    "build_greedy_l1",
    "build_heavy_hitter",
    "build_span_query",
    "build_degree_reduce",
    "rank_exact",
    "degree_reducing_subspace",
    "cert_greedy_l1",
    "cert_norm_halving",
    "cert_norm_halving_with_trace",
    "HalvingStep",
    "certificate_check",
    "green_sanders_decompose",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_dot",
    "DEGREE_SEARCH_BUDGET",
]

# Candidate-subspace budget for the degree-reducing search; exceeding it makes
# the search report NotFound so callers can fall back.
DEGREE_SEARCH_BUDGET = 50_000
_SEARCH_N_LIMIT = 12


# Slotted: callers keep whole trees, and a node without a __dict__ takes
# about half the memory.
@dataclass(frozen=True, slots=True)
class PdtLeaf:
    value: int


@dataclass(frozen=True, slots=True)
class PdtNode:
    mask: int
    child0: "PdtNodeOrLeaf"
    child1: "PdtNodeOrLeaf"


PdtNodeOrLeaf = Union[PdtLeaf, PdtNode]
# Leaves are immutable, so every tree a builder grows shares these two.
_LEAVES = (PdtLeaf(0), PdtLeaf(1))


def _shape(node: PdtNodeOrLeaf) -> Tuple[int, int, int]:
    """(depth, node count, leaf count) of the subtree at ``node``."""
    if isinstance(node, PdtLeaf):
        return 0, 1, 1
    d0, s0, c0 = _shape(node.child0)
    d1, s1, c1 = _shape(node.child1)
    return 1 + max(d0, d1), 1 + s0 + s1, c0 + c1


class Pdt:
    """A parity decision tree over {0,1}^n with query masks in original coords."""

    __slots__ = ("n", "root")

    def __init__(self, n: int, root: PdtNodeOrLeaf):
        self.n = n
        self.root = root
        self.validate()

    def validate(self) -> None:
        top = 1 << self.n

        def walk(node: PdtNodeOrLeaf, ech: List[int]) -> None:
            # ech: the path's masks, each reduced against those above it, so
            # their highest bits are distinct and one pass reduces a new mask.
            if isinstance(node, PdtLeaf):
                if node.value not in (0, 1):
                    raise InvalidTree(f"leaf value {node.value} not a bit")
                return
            if not 0 < node.mask < top:
                raise InvalidTree(f"query mask {node.mask} out of range for n={self.n}")
            r = node.mask
            for e in ech:
                r = min(r, r ^ e)
            if r == 0:
                raise InvalidTree("query masks along a path are dependent")
            ech.append(r)
            walk(node.child0, ech)
            walk(node.child1, ech)
            ech.pop()

        walk(self.root, [])

    def depth(self) -> int:
        return _shape(self.root)[0]

    def size(self) -> int:
        """Total node count, internal nodes plus leaves."""
        return _shape(self.root)[1]

    def num_leaves(self) -> int:
        return _shape(self.root)[2]

    def leaf_paths(self) -> Iterator[Tuple[List[AffineConstraint], int]]:
        """Yield (path constraints, leaf value) for every leaf, left to right."""

        def walk(node: PdtNodeOrLeaf, path: List[AffineConstraint]):
            if isinstance(node, PdtLeaf):
                yield list(path), node.value
                return
            for bit, child in ((0, node.child0), (1, node.child1)):
                path.append(AffineConstraint(node.mask, bit))
                yield from walk(child, path)
                path.pop()

        yield from walk(self.root, [])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pdt):
            return NotImplemented
        return self.n == other.n and self.root == other.root

    def __repr__(self) -> str:
        depth, size, _ = _shape(self.root)
        return f"Pdt(n={self.n}, depth={depth}, size={size})"


@dataclass(frozen=True, slots=True)
class TraceNode:
    """One node of a build trace.

    ``l0``/``l1_num`` describe the +/-1 spectrum of the subfunction handled at
    this node, with l1_num over the root denominator 2**n.  ``mask`` is the
    recorded (original-coordinates) query, None for leaves.  ``info`` carries
    builder-specific annotations; nodes of one build may share an info dict.
    """

    node_id: int
    parent_id: Optional[int]
    branch: Optional[int]
    mask: Optional[int]
    l0: int
    l1_num: int
    info: dict = field(default_factory=dict)


def _column(bits: int) -> array:
    """Empty array of the narrowest signed type holding -1 and every value below 2**bits."""
    return next(array(code) for code in "bhiq" if bits < 8 * array(code).itemsize)


def _put(column: array, values: np.ndarray) -> None:
    """Append an int64 array to a column, or raise OverflowError if a value does not fit."""
    bounds = np.iinfo(column.typecode)
    if values.size and (values.min() < bounds.min or values.max() > bounds.max):
        raise OverflowError(f"a trace value does not fit array type {column.typecode!r}")
    column.frombytes(values.astype(column.typecode).tobytes())


class BuildTrace(Sequence):
    """The nodes of one build in creation order, stored by column.

    A node takes one entry in each of six integer columns (parent, branch,
    mask, l0, l1_num and info; None stored as -1) instead of an object.
    The info column indexes the build's distinct info dicts, interned by
    value, so nodes with equal annotations share one dict.  The trace is a
    read-only sequence that builds each ``TraceNode`` on access; a slice is
    a list.  Each column has the narrowest type its bound allows: a tree on
    n variables has depth at most n, so fewer than 2**(n+1) nodes (and
    distinct infos), masks below 2**n and l0 <= 2**n, and l1_num over the
    root denominator 2**n is at most 2**(1.5n) by Parseval (2**36 at
    N_MAX).  A value that does not fit raises OverflowError rather than
    wrapping, and leaves the trace as it was.
    """

    __slots__ = ("n", "_columns", "_infos", "_info_ids")

    def __init__(self, n: int):
        self.n = n
        self._columns = (
            _column(n + 1),
            _column(1),
            _column(n + 1),
            _column(n + 1),
            _column(n + n // 2 + 1),
            _column(n + 1),
        )
        self._infos: List[dict] = []  # distinct info dicts, by first use
        self._info_ids: dict = {}  # items of each of them -> its index

    def add(
        self,
        parent_id: Optional[int],
        branch: Optional[int],
        mask: Optional[int],
        l0: int,
        l1_num: int,
        info: dict,
    ) -> int:
        """Append a node; returns its id."""
        node_id = len(self)
        key = tuple(info.items())
        info_id = self._info_ids.get(key, len(self._infos))
        row = (
            -1 if parent_id is None else parent_id,
            -1 if branch is None else branch,
            -1 if mask is None else mask,
            l0,
            l1_num,
            info_id,
        )
        try:
            for column, value in zip(self._columns, row):
                column.append(value)
        except OverflowError:
            for column in self._columns:
                del column[node_id:]
            raise
        if info_id == len(self._infos):
            self._info_ids[key] = info_id
            self._infos.append(info)
        return node_id

    def extend(self, columns: Iterable[np.ndarray], info: dict) -> None:
        """Append nodes by column, every one annotated ``info``.

        ``columns`` yields int64 arrays of the nodes' parents, branches,
        masks, l0 and l1_num, in that order and with None as -1; each is
        taken once the one before it is written.  As in ``add``, a value
        that does not fit raises OverflowError and leaves the trace as it was.
        """
        start = len(self)
        key = tuple(info.items())
        info_id = self._info_ids.get(key, len(self._infos))
        try:
            for column, values in zip(self._columns, columns):
                _put(column, values)
            _put(self._columns[-1], np.full(len(self) - start, info_id))
        except OverflowError:
            for column in self._columns:
                del column[start:]
            raise
        if info_id == len(self._infos):
            self._info_ids[key] = info_id
            self._infos.append(info)

    @property
    def nodes(self) -> "BuildTrace":
        """The trace itself, the sequence of its nodes."""
        return self

    def _node(self, i: int) -> TraceNode:
        parent, branch, mask, l0, l1_num, info_id = (column[i] for column in self._columns)
        return TraceNode(
            node_id=i,
            parent_id=None if parent < 0 else parent,
            branch=None if branch < 0 else branch,
            mask=None if mask < 0 else mask,
            l0=l0,
            l1_num=l1_num,
            info=self._infos[info_id],
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        ids = range(len(self))[i]  # negative indices, IndexError and slices as for a list
        if isinstance(ids, range):
            return [self._node(j) for j in ids]
        return self._node(ids)

    def __iter__(self) -> Iterator[TraceNode]:
        return map(self._node, range(len(self)))


@dataclass(frozen=True)
class PdtCheckReport:
    correct: bool
    depth: int
    size: int
    first_mismatch: Optional[int]


@dataclass(frozen=True, slots=True)
class Certificate:
    """Independent affine constraints forcing f to a constant value."""

    constraints: Tuple[AffineConstraint, ...]
    value: int

    @property
    def codim(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True, slots=True)
class RankResult:
    rank: int
    witness: Tuple[AffineConstraint, ...]


def pdt_eval(tree: Pdt, x: int) -> int:
    """Evaluate the tree on a point by following parity answers."""
    if not 0 <= x < (1 << tree.n):
        raise DimensionMismatch(f"point {x} out of range for n={tree.n}")
    node = tree.root
    while isinstance(node, PdtNode):
        node = node.child1 if dot(node.mask, x) else node.child0
    return node.value


def _eval_all(tree: Pdt) -> np.ndarray:
    """Tree output on every point, computed by index partitioning."""
    out = np.zeros(1 << tree.n, dtype=np.uint8)

    def walk(node: PdtNodeOrLeaf, idx: np.ndarray) -> None:
        if isinstance(node, PdtLeaf):
            out[idx] = node.value
            return
        bits = np.bitwise_count(np.bitwise_and(idx, np.int64(node.mask))) & 1
        walk(node.child0, idx[bits == 0])
        walk(node.child1, idx[bits == 1])

    walk(tree.root, np.arange(1 << tree.n, dtype=np.int64))
    return out


def pdt_check(f: BooleanFunction, tree: Pdt) -> PdtCheckReport:
    """Exhaustively compare the tree with f; report depth, size, first mismatch."""
    if tree.n != f.n:
        raise DimensionMismatch(f"tree on {tree.n} variables, f on {f.n}")
    outputs = _eval_all(tree)
    diff = np.nonzero(outputs != f.table)[0]
    correct = diff.size == 0
    depth, size, _ = _shape(tree.root)
    if correct:
        l0 = wht(f).l0()
        if l0 > 4 ** depth:
            raise BoolFourierError(
                f"internal: sparsity {l0} exceeds 4^depth with a correct tree"
            )
    return PdtCheckReport(
        correct=correct,
        depth=depth,
        size=size,
        first_mismatch=None if correct else int(diff[0]),
    )


def _pm_of(g: BooleanFunction) -> Spectrum:
    return _pm_of_sums(g.n, *_wht_sums(g.table))


def _leaf_bit(spectrum: Spectrum) -> int:
    """Leaf value of a constant +/-1 spectrum (f = (1 - f_pm) / 2)."""
    num = spectrum.coeffs.get(0, 0)
    unit = 1 << spectrum.denom_exp
    if num == unit:
        return 0
    if num == -unit:
        return 1
    raise BoolFourierError("internal: spectrum is not a +/-1 constant")


def _top_pair(spectrum: Spectrum) -> Tuple[int, int]:
    """The masks a1, a2 of the two largest-magnitude coefficients, ties in x1-first order.

    They are the two least coefficients in (-|c|, lex_key(mask)) order, as
    ``heapq.nsmallest`` over every coefficient picks them.  The magnitudes
    are ranked first, and only the masks tied at the magnitude that decides
    get a ``lex_key``: on dense spectra a key for every mask costs the
    greedy step most of its time.  ``spectrum`` has at least two coefficients.
    """
    n, coeffs = spectrum.n, spectrum.coeffs
    mags = list(map(abs, coeffs.values()))
    top = max(mags)
    tied = [m for m, g in zip(coeffs, mags) if g == top]
    if len(tied) > 1:
        a1, a2 = heapq.nsmallest(2, tied, key=lambda m: lex_key(m, n))
        return a1, a2
    second = max(g for g in mags if g != top)
    rest = [m for m, g in zip(coeffs, mags) if g == second]
    return tied[0], min(rest, key=lambda m: lex_key(m, n))


def _greedy_step(spectrum: Spectrum) -> Tuple[int, int, dict]:
    """Greedy pick (t, b, info): t = a1 ^ a2 for the two largest-magnitude coefficients.

    Ties go by x1-first mask order (``_top_pair``).  On fold bit b the
    merged coefficient is |a1| + |a2|.  The greedy builder annotates no
    node, so info is empty.
    """
    a1, a2 = _top_pair(spectrum)
    c1, c2 = spectrum.coeffs[a1], spectrum.coeffs[a2]
    return a1 ^ a2, 0 if c1 * c2 > 0 else 1, {}


def _fold_step(pick, spec: Spectrum) -> Tuple[int, int, dict]:
    """One fold of ``spec``: (direction t, preferred fold bit b, trace info).

    While l0 >= 2 ``pick(spec)`` gives all three.  A single character is
    folded along its own mask; a constant gives t = 0, a leaf.
    """
    if spec.l0() > 1:
        return pick(spec)
    return next(iter(spec.coeffs), 0), 0, {}


def _child(spec: Spectrum, frame: _Frame, q: int, t: int, beta: int) -> Tuple[Spectrum, _Frame]:
    """``spec`` and ``frame`` on the branch <q, x> = beta of the query q along t.

    The spectrum stays one of the restriction, at its own denom_exp (the
    identity ``restrict_affine`` documents).
    """
    b = frame.fold_bit(q, beta)
    return fold(spec, t, b), frame.branches(t)[b]


# ---------------------------------------------------------------------------
# Builders.


def _grow(pm: Spectrum, choose, state) -> Tuple[Pdt, BuildTrace]:
    """The one tree recursion: query, take both children, recurse.

    ``pm``, the +/-1 spectrum of f over the root denominator, and the
    frame are folded along every query.  At each node
    ``choose(spec, frame, state)`` returns ``(q, t, info, child_state)``:
    the original mask to query, its direction in the frame's coordinates,
    the trace annotations and the state both children get.  ``q`` is None
    for a leaf, whose value is the constant ``spec``, and ``_SPAN`` when
    span-query's subtree, every node annotated ``info``, takes the node
    (``_span_subtree``, a level at a time, with no fold).  ``state`` is the
    root's state.
    """
    n = pm.n
    trace = BuildTrace(n)
    # Equal subtrees share one node (and the trace equal annotations one
    # dict), so what a build leaves behind grows with its distinct parts.
    subtrees: dict = {}

    def rec(spec: Spectrum, frame: _Frame, state, parent, branch) -> PdtNodeOrLeaf:
        q, t, info, child_state = choose(spec, frame, state)
        if q is _SPAN:
            return _span_subtree(spec, frame, info, trace, subtrees, parent, branch)
        node_id = trace.add(
            parent_id=parent,
            branch=branch,
            mask=q,
            l0=spec.l0(),
            l1_num=spec.l1_num(),
            info=info,
        )
        if q is None:
            return _LEAVES[_leaf_bit(spec)]
        branches = frame.branches(t)
        b0 = frame.fold_bit(q, 0)  # answer beta folds on b0 ^ beta
        child0, child1 = (
            rec(fold(spec, t, b0 ^ beta), branches[b0 ^ beta], child_state, node_id, beta)
            for beta in (0, 1)
        )
        # the children are shared already, so equal subtrees get equal keys
        return subtrees.setdefault((q, id(child0), id(child1)), PdtNode(q, child0, child1))

    root = rec(pm, _Frame.identity(n), state, None, None)
    # rec refers to itself through its closure cell; breaking that cycle
    # frees the trace with its last reference, not at the next collection.
    del rec
    return Pdt(n, root), trace


def _fold_chooser(pick):
    """Chooser folding along ``_fold_step(pick, spec)`` until the spectrum is constant."""

    def choose(spec: Spectrum, frame: _Frame, _state):
        t, _, info = _fold_step(pick, spec)
        return frame.query_mask(t) if t else None, t, info, None

    return choose


def build_greedy_l1(f: BooleanFunction) -> Tuple[Pdt, BuildTrace]:
    """Fold along the XOR of the two largest-magnitude +/-1 coefficients.

    Ties are broken by x1-first mask order; both branches are expanded.
    """
    return _grow(_pm_of(f), _fold_chooser(_greedy_step), None)


def _heavy_direction(spec: Spectrum) -> Tuple[int, int]:
    """Direction maximizing the number of support pairs {s, s'} with s^s' = t.

    The pair count is half the autocorrelation of the support indicator at
    t != 0 (``_pair_counts``).  Ties go to the x1-first smallest mask, the
    least bit-reversed key.
    """
    n = spec.n
    keys, counts = _pair_counts(spec.coeffs, spec.l0(), n)
    keys, counts = keys[1:], counts[1:]  # t = 0 comes first
    best = int(counts.max())
    tied = keys[counts == best]
    return int(tied[np.argmin(lex_keys(tied, n))]), best // 2


def build_heavy_hitter(f: BooleanFunction) -> Tuple[Pdt, BuildTrace]:
    """Fold along the direction pairing up the most support masks.

    Every fold removes at least p(t) coefficients from each child's support.
    """

    def pick(spec: Spectrum):
        t, pairs = _heavy_direction(spec)
        return t, 0, {"pairs": pairs}

    return _grow(_pm_of(f), _fold_chooser(pick), None)


# A span of more than 20 dimensions would need more than 2**20 leaves.  A
# support of 2**20 or more nonzero masks spans more than 20 dimensions.
_SPAN_LEAVES = 1 << 20
_SPAN_TOO_LARGE = "span dimension more than 20 would need more than 2^20 leaves"
# A chooser's query for a node that span-query's subtree takes.
_SPAN = object()


def _span_array(spec: Spectrum, frame: _Frame) -> Tuple[List[int], np.ndarray]:
    """Span-query's queries at a node, and the node's numerators by their coordinates.

    The queries q_1..q_r are the greedy independent subset b_1..b_r of the
    support of ``spec`` scanned in x1-first order (mask 0 is never taken),
    mapped to original masks.  More than 20 would need more than 2**20
    leaves and raise TooLarge; a support of ``_SPAN_LEAVES`` or more
    nonzero masks is refused before the scan.  The numerator of the mask
    with coordinates c in b_1..b_r, times (-1)^<c, s>, is at index c of the
    array, c_1 its highest bit.  s_i = ``frame.fold_bit(q_i, 0)``.  A
    function of its own, so that the support's arrays are freed before the
    tree's levels are built.
    """
    if spec.l0() - (0 in spec.coeffs) >= _SPAN_LEAVES:
        raise TooLarge(_SPAN_TOO_LARGE)
    masks, nums = _as_arrays(spec.coeffs)
    order = np.argsort(lex_keys(masks, spec.n))
    basis, coords = _greedy_coords(masks[order])
    if (r := len(basis)) > 20:
        raise TooLarge(f"span dimension {r} would need 2^{r} leaves")
    queries = [frame.query_mask(b) for b in basis]
    shift = sum(frame.fold_bit(q, 0) << (r - 1 - i) for i, q in enumerate(queries))
    index = lex_keys(coords, r)  # coordinate c_1 to the highest bit
    a = np.zeros(1 << r, dtype=np.int64)
    a[index] = np.where(np.bitwise_count(index & shift) & 1, -nums[order], nums[order])
    return queries, a


def _span_subtree(
    spec: Spectrum,
    frame: _Frame,
    info: dict,
    trace: BuildTrace,
    subtrees: dict,
    parent: Optional[int],
    branch: Optional[int],
) -> PdtNodeOrLeaf:
    """Span-query's subtree at a node of ``_grow``, built a level at a time.

    Every path asks the queries of ``_span_array`` in order, so the node at
    depth k is the answers beta_1..beta_k, and spec is constant after q_r.
    On the frame's subspace <q_i, x> = beta_i is <b_i, y> = beta_i ^ s_i.
    So the node's restriction merges the masks that agree in their
    coordinates c past k, each with sign (-1)^<c, beta ^ s> on c_1..c_k.
    The butterfly level over c_k therefore leaves node beta's merged
    coefficients, up to one sign, in row beta of the array cut into 2**k
    rows.  Each level's l0 and l1_num are a count and a sum per row, and
    after level r each row is a leaf's +/-2**denom_exp.

    Trace rows go in ``_grow``'s preorder: the children of the node with
    id i at depth k get ids i + 1 and i + 2**(r-k).  Every row shares
    ``info``.  The nodes are made bottom-up, one per distinct pair of
    children a level, through ``_grow``'s ``subtrees``.
    """
    queries, a = _span_array(spec, frame)
    r = len(queries)
    # one entry per node, level after level: level k is [2**k - 1, 2**(k+1) - 1).
    # r <= 20, so node counts and ids fit int32.
    l0, at = np.empty((2, (2 << r) - 1), dtype=np.int32)
    l1 = np.empty((2 << r) - 1, dtype=np.int64)
    at[0] = 0  # each node's id in preorder, from the subtree's root
    for k in range(r + 1):
        level = slice((1 << k) - 1, (2 << k) - 1)
        if k:
            _butterfly_level(a, 1 << (r - k))
            above = at[(1 << (k - 1)) - 1 : (1 << k) - 1]
            at[level] = (above[:, None] + [1, 2 << (r - k)]).ravel()
        rows = a.reshape(1 << k, -1)
        l0[level] = np.count_nonzero(rows, axis=1)
        np.abs(rows).sum(axis=1, out=l1[level])
    if (l1[-(1 << r) :] != 1 << spec.denom_exp).any():
        raise BoolFourierError("internal: spectrum is not a +/-1 constant")

    # made: a level's distinct subtrees; kids: each of its rows' index in made
    made, kids = _LEAVES, (a < 0).astype(np.int64)
    del a  # freed before the trace's columns are made
    for q in reversed(queries):
        width = len(made)
        pairs, kids = np.unique(kids[0::2] * width + kids[1::2], return_inverse=True)
        children = [(made[p // width], made[p % width]) for p in pairs.tolist()]
        made = [subtrees.setdefault((q, id(c0), id(c1)), PdtNode(q, c0, c1)) for c0, c1 in children]

    base = len(trace)
    root = (-1 if parent is None else parent, -1 if branch is None else branch)

    def by_level() -> Iterator[np.ndarray]:
        """The columns one at a time, each one's rows level by level."""
        # the rows after the root, level by level, are the children of the
        # nodes above the leaves, level by level, two each
        yield np.concatenate([root[:1], np.repeat(at[: (1 << r) - 1] + base, 2)])
        yield np.concatenate([root[1:], np.tile([0, 1], (1 << r) - 1)])
        yield np.repeat([*queries, -1], [1 << k for k in range(r + 1)])
        yield l0
        yield l1

    def in_preorder(values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[at] = values
        return out

    trace.extend(map(in_preorder, by_level()), info)
    return made[int(kids[0])]


def _span_chooser(_spec: Spectrum, _frame: _Frame, info: dict):
    """Chooser handing the whole tree to span-query's subtree, annotated ``info``."""
    return _SPAN, None, info, None


def _span_root_pm(f: BooleanFunction) -> Spectrum:
    """``_pm_of(f)``, refused by ``_span_subtree``'s support gate before any dict.

    The gate counts the +/-1 support off mask 0, where each coefficient is
    -2 times the character sum.  Unless f is 0 everywhere, when nothing is
    nonzero, the sum at mask 0 (f's ones) is nonzero too.  So the count off
    mask 0 reaches ``_SPAN_LEAVES`` exactly when more than that many sums
    are nonzero, and ``_wht_sums`` counts them before it makes any array of
    masks.
    """
    found = _wht_sums(f.table, most=_SPAN_LEAVES)
    if found is None:
        raise TooLarge(_SPAN_TOO_LARGE)
    return _pm_of_sums(f.n, *found)


def build_span_query(f: BooleanFunction) -> Tuple[Pdt, BuildTrace]:
    """Query a basis of the span of the support; depth is the span's dimension."""
    return _grow(_span_root_pm(f), _span_chooser, {})


# ---------------------------------------------------------------------------
# Degree-drop subspace search.

# The submasks of every free set below 2**n, free sets in order and each
# one's submasks ascending: those of ``free`` are
# ``submasks[starts[free]:starts[free + 1]]``.  Built on first use and grown
# to the largest n searched, 3**n int16 entries (1 MiB at n = 12).
_SUBMASKS = (np.array([0, 1], dtype=np.intp), np.zeros(1, dtype=np.int16))


# The root's extension by ``_Bases`` on n coordinates, the same for every
# codimension and every search: built on first use, once per n.
_ROOTS: dict = {}


def _submask_table(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, submasks)`` covering every free set below 2**n."""
    global _SUBMASKS
    starts, subs = _SUBMASKS
    while len(starts) <= 1 << n:
        # free set top + f: the submasks of f, then each of them with top
        top = len(starts) - 1
        sizes = np.diff(starts)
        seg = np.repeat(np.arange(top), sizes)
        dest = starts[seg] + np.arange(len(subs))  # 2 * starts[f] + place in f
        high = np.empty_like(subs, shape=2 * len(subs))
        high[dest] = subs
        high[dest + sizes[seg]] = subs | top
        starts = np.concatenate([starts, len(subs) + 2 * starts[1:]])
        subs = np.concatenate([subs, high])
    _SUBMASKS = starts, subs
    return _SUBMASKS


class _Bases:
    """Canonical reduced-echelon bases (lowest-bit pivots) of k-dim mask spaces.

    Each subspace comes once, as its unique canonical basis: rows ascending,
    each row's pivot its lowest set bit, every row zero at the other rows'
    pivots.  ``take`` hands them out in ascending tuple order.

    The bases are a depth-first walk over prefixes, one row per level and a
    batch of prefixes per step.  A prefix is (rows, free, union, below): its
    next row is a submask of ``free``, the coordinates outside its pivots,
    beyond the first ``below`` of them (so above its last row), whose lowest
    bit is outside ``union`` (so the chosen rows are zero at the new pivot).
    Each prefix's next rows are one run of the submask table less those
    whose pivot is in the union, and a batch's are its runs concatenated.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.starts, self.subs = _submask_table(n)
        # batches still to walk, the next one last; complete bases are a
        # batch of their rows alone.  Every walk starts from the root's
        # extension, its codim-1 prefixes; they are complete bases for
        # k = 1, and n = 0 has none.
        first = _ROOTS.get(n)
        if first is None:
            first = _ROOTS[n] = self._root(n)
        self.pending = [first[:1] if k == 1 else first] if len(first[0]) else []

    def _root(self, n: int) -> tuple:
        """The root prefix extended by every row: no rows, every coordinate free, 0 no row."""
        free, below = np.array([(1 << n) - 1], dtype=np.intp), np.ones(1, dtype=np.intp)
        root = (np.zeros((1, 0), dtype=np.int16), free, np.zeros(1, dtype=np.intp), below)
        lo = self.starts[free] + below
        runs = self.starts[free + 1] - lo
        first = self._extend(root, lo, runs, np.cumsum(runs), None)
        for a in first:
            a.flags.writeable = False
        return first

    def take(self, count: int) -> np.ndarray:
        """The rows of the next ``count`` bases, or of all that are left: int16 (m, k)."""
        out, got = [], 0
        while got < count and self.pending:
            batch = self.pending.pop()
            rows = batch[0]
            complete = rows.shape[1] == self.k
            if complete:
                cut = count - got
            else:
                # extend the leading prefixes whose runs fit, at least one
                _, free, _, below = batch
                lo = self.starts[free] + below
                runs = self.starts[free + 1] - lo
                ends = np.cumsum(runs)
                cut = max(1, int(np.searchsorted(ends, max(count - got, _BLOCK), side="right")))
            if cut < len(rows):
                self.pending.append(tuple(a[cut:] for a in batch))
            if complete:
                out.append(rows[:cut])
                got += len(out[-1])
                continue
            extended = self._extend(batch, lo[:cut], runs[:cut], ends[:cut], self.k)
            if len(extended[0]):
                self.pending.append(extended)
        return np.concatenate(out) if out else np.zeros((0, self.k), dtype=np.int16)

    def _extend(
        self, batch, lo: np.ndarray, runs: np.ndarray, ends: np.ndarray, k: Optional[int]
    ) -> tuple:
        """The leading ``len(lo)`` prefixes of ``batch``, each extended by its valid next rows.

        Prefix i's run of the submask table is ``runs[i]`` long from
        ``lo[i]``, and the runs end at ``ends`` once concatenated.  Rows
        that reach ``k`` come back as complete bases alone; with k None
        the prefixes always come back whole.
        """
        rows, free, union, _ = batch
        parent = np.repeat(np.arange(len(runs)), runs)
        at = np.arange(int(ends[-1])) + (lo - ends + runs)[parent]
        t = self.subs[at]
        p = t & -t
        keep = np.flatnonzero((p & union[parent]) == 0)
        parent, t = parent[keep], t[keep]
        extended = np.concatenate([rows[parent], t[:, None]], axis=1)
        if extended.shape[1] == k:
            return (extended,)
        at, p, f = at[keep], p[keep], free[parent]
        # The submasks of f - p up to t are those of f up to t without bit
        # p.  If p is bit j of f's bits, those are the indices below m (the
        # count of f's submasks up to t) with bit j clear.
        m = at - self.starts[f] + 1
        j = np.bitwise_count(f & (p - 1)).astype(np.intp)
        below = ((m >> (j + 1)) << j) + np.minimum(m & ((2 << j) - 1), 1 << j)
        return extended, f ^ p, union[parent] | t, below


def _kernel_points(rows: np.ndarray, n: int) -> np.ndarray:
    """Column i: the 2**(n-k) points of the kernel of candidate i's rows.

    ``rows`` is a (candidates, k) int16 array of canonical bases, each
    row's pivot its lowest set bit.  For each free (non-pivot) coordinate j
    the kernel vector is e_j plus the pivot p_i of every row t_i with bit j
    set; the rows vanish on it because each is zero at the other rows'
    pivots.  ``span_points`` fills the points from the (n-k, candidates)
    vector array, on int16 since n <= _SEARCH_N_LIMIT; the candidates run
    along the contiguous axis, so every doubling step is one long XOR.
    """
    count, k = rows.shape
    pivots = rows & -rows
    bit = np.left_shift(np.int16(1), np.arange(n, dtype=np.int16))
    hits = (rows[:, :, None] & bit) != 0
    vectors = (hits * pivots[:, :, None]).sum(axis=1, dtype=np.int16) | bit
    free = (pivots.sum(axis=1, dtype=np.int16)[:, None] & bit) == 0
    return span_points(vectors[free].reshape(count, n - k).T)


def _drops(table: np.ndarray, pts: np.ndarray, heavy: np.ndarray) -> np.ndarray:
    """Per column of ``pts``: no monomial of weight >= d survives on its points.

    ``heavy`` lists the monomials (rows) of weight >= d.  One gather, packed
    eight columns to a byte, then ``core._mobius_levels`` down the columns
    and an OR over the heavy rows.  ``np.take`` copies its int16 indices to
    intp, so it gathers _GATHER_POINTS points at a time: the copy of a whole
    chunk would be four times the chunk.
    """
    values = np.empty(pts.shape, dtype=np.uint8)
    step = max(1, _GATHER_POINTS // pts.shape[1])
    for i in range(0, len(pts), step):
        np.take(table, pts[i : i + step], out=values[i : i + step])
    coeffs = _mobius_levels(np.packbits(values, axis=1))
    return np.unpackbits(np.bitwise_or.reduce(coeffs[heavy], axis=0), count=pts.shape[1]) == 0


def _subspace_count(n: int, k: int) -> int:
    """The Gaussian binomial [n k]_2: the number of k-dim subspaces of GF(2)^n."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _first_codim(f: BooleanFunction, d: int) -> int:
    """The least codimension the search walks: below it no subspace drops the degree of f.

    For d = 2 it is the exact answer, half the rank of the Dickson matrix:
    the degree drops on V exactly when the quadratic part's alternating
    form vanishes on V, and the largest such V of a form of rank 2h has
    codimension h.  Otherwise 1.
    """
    if d != 2:
        return 1
    return gf2_rank(dickson_matrix(anf_of(f)).rows) // 2


# A chunk starts at _CHUNK_START candidates and doubles, up to _CHUNK_POINTS
# kernel points: searches that end early stay cheap, and the arrays of one
# chunk stay well below a MiB.  Bases are made _BLOCK or more at a time.
_CHUNK_START = 16
_CHUNK_POINTS = 1 << 16
_GATHER_POINTS = 1 << 14
_BLOCK = 256


def _first_drop(
    f: BooleanFunction, max_codim: int, max_candidates: Optional[int]
) -> Tuple[int, ...]:
    """First constraint basis whose subspace drops the GF(2) degree of f.

    Let d = deg2(f) and f_d the degree-d part of f.  On a coset a + V, the
    degree-d part of f restricted to the coset is the degree-d part of f_d
    composed with V's linear embedding, which does not depend on a.  So the
    degree drops on one coset of V exactly when it drops on every coset, and
    each candidate is tested on the coset through 0 only.

    Candidates are the canonical reduced-echelon bases of ``_Bases``, in
    increasing codimension and ascending tuple order.  They are tested in
    chunks that keep that order (``_kernel_points``, then ``_drops``), so
    the first hit of a chunk is the first candidate that drops, and a chunk
    never reaches past the budget.  The codimensions below
    ``_first_codim`` (those under the Dickson rank of a quadratic)
    hold no drop and are not walked, but each is charged its full count
    [n k]_2 against the budget, so the budget runs out where a walk of them
    would run out.  Raises NotFound when the candidate budget (None:
    unbounded) runs out or no drop exists within max_codim.
    """
    n = f.n
    if n > _SEARCH_N_LIMIT:
        raise TooLarge(f"subspace search supports n <= {_SEARCH_N_LIMIT}")
    d = deg2(f)
    first = _first_codim(f, d)
    left = math.inf if max_candidates is None else max_candidates  # candidates still allowed
    for k in range(1, min(max_codim, n) + 1):
        if k < first:  # no drop at this codimension: charge it whole, unwalked
            left -= _subspace_count(n, k)
            if left < 0:
                raise NotFound(f"candidate budget {max_candidates} exhausted at codim {k}")
            continue
        heavy = np.flatnonzero(popcounts(n - k) >= d)
        cap = _CHUNK_POINTS >> (n - k)
        bases = _Bases(n, k)
        size = min(_CHUNK_START, cap)
        while len(rows := bases.take(min(size, left))):
            drops = _drops(f.table, _kernel_points(rows, n), heavy)
            if drops.any():
                return tuple(rows[int(drops.argmax())].tolist())
            left -= len(rows)
            size = min(2 * size, cap)
        if left == 0 and len(bases.take(1)):
            raise NotFound(f"candidate budget {max_candidates} exhausted at codim {k}")
    raise NotFound(f"no degree drop within codimension {max_codim}")


def rank_exact(
    f: BooleanFunction, max_codim: int = 4, max_candidates: Optional[int] = None
) -> RankResult:
    """Least codimension of an affine subspace where the GF(2) degree drops.

    The witness is the first basis of ``_first_drop`` with every constraint
    bit 0: if the degree drops on some coset it drops on the one through 0.
    Raises NotFound when no drop exists within max_codim (or the optional
    candidate budget is exhausted).
    """
    if f.is_constant():
        raise ConstantInput("rank is undefined for constant functions")
    basis_masks = _first_drop(f, max_codim, max_candidates)
    witness = tuple(AffineConstraint(t, 0) for t in basis_masks)
    return RankResult(rank=len(basis_masks), witness=witness)


def degree_reducing_subspace(
    f: BooleanFunction,
    max_codim: int = 4,
    max_candidates: int = DEGREE_SEARCH_BUDGET,
) -> List[int]:
    """Minimal independent constraint set dropping the degree on every coset.

    The masks of ``rank_exact``'s witness (see ``_first_drop``); raises
    NotFound on budget exhaustion or when no subspace within max_codim works.
    """
    if f.is_constant():
        raise ConstantInput("constant functions have no degree to reduce")
    return list(_first_drop(f, max_codim, max_candidates))


def build_degree_reduce(
    f: BooleanFunction,
    max_codim: int = 4,
    max_candidates: int = DEGREE_SEARCH_BUDGET,
) -> Tuple[Pdt, BuildTrace]:
    """Rounds of degree-reducing subspace queries; span-query fallback.

    Each round finds a minimal constraint set whose every coset drops the
    GF(2) degree of the current restriction, queries all of it (expanding the
    subtree over every answer combination), restricts, and repeats; at most
    deg2(f) rounds on any path.  A round's queries are walked by ``_grow``
    a node at a time, since each node where they run out starts a round of
    its own.  If the subspace search exceeds its budget (or the function is
    too large for it), span-query's level pass (``_span_subtree``) finishes
    the subtree, under its size gate, and flags it in the trace.
    """

    def choose(spec: Spectrum, frame: _Frame, state):
        # state: (the round's pending original masks, info); a round starts
        # where the pending masks run out and the restriction is not constant
        pending, info = state
        if pending:
            q = pending[0]
            return q, frame.pullback(q), info, (pending[1:], info)
        if spec.l0() == 1 and 0 in spec.coeffs:
            return None, 0, info, None
        round_no = info["round"] + 1
        try:
            subspace = degree_reducing_subspace(
                frame.restriction(f), max_codim, max_candidates
            )
        except (NotFound, TooLarge):
            return _SPAN, None, {"fallback": True, "round": round_no}, None
        rest = tuple(frame.query_mask(t) for t in subspace[1:])
        info = {"round": round_no, "round_queries": len(subspace)}
        t = subspace[0]
        return frame.query_mask(t), t, info, (rest, {"round": round_no})

    # Above _SEARCH_N_LIMIT a non-constant root is a span-query fallback, and
    # below it the support has fewer than _SPAN_LEAVES masks, so the span
    # gate may refuse from the root's transform here too.
    return _grow(_span_root_pm(f), choose, ((), {"round": 0}))


# ---------------------------------------------------------------------------
# Certificates.


def certificate_check(f: BooleanFunction, cert: Certificate) -> bool:
    """Exhaustively verify that f is constant cert.value on the subspace."""
    g = restrict_affine(f, list(cert.constraints))
    return g.is_constant() and int(g.table[0]) == cert.value


def _greedy_path(
    spec: Spectrum, frame: _Frame, anchor: Optional[int] = None
) -> Tuple[List[AffineConstraint], int]:
    """One root-to-leaf path of the greedy tree: (original constraints, leaf value).

    ``spec`` is a +/-1 spectrum in the frame's coordinates, and the path is
    the one ``build_greedy_l1``'s walk would take from them.  Without an
    anchor each step follows the fold bit ``_greedy_step`` prefers, on which
    the merged coefficient is |a1| + |a2|.  ``anchor`` is a point of the
    frame's subspace in original coordinates; with it each step follows the
    branch holding the anchor, so each constraint holds there and the leaf
    value is the function's value at the anchor.
    """
    out: List[AffineConstraint] = []
    while True:
        t, b, _ = _fold_step(_greedy_step, spec)
        if t == 0:
            return out, _leaf_bit(spec)
        q = frame.query_mask(t)
        beta = frame.fold_bit(q, b) if anchor is None else dot(q, anchor)
        out.append(AffineConstraint(q, beta))
        spec, frame = _child(spec, frame, q, t, beta)


def cert_greedy_l1(f: BooleanFunction) -> Certificate:
    """The sign-aligned root-to-leaf path of ``build_greedy_l1``'s tree.

    At each step the two largest-magnitude +/-1 coefficients a1, a2 (ties by
    x1-first mask order) give the direction a1 ^ a2; the branch making the
    merged coefficient |a1| + |a2| is taken, so the max coefficient grows
    until the restriction is constant.
    """
    if f.is_constant():
        raise ConstantInput("constant functions need no certificate")
    constraints, value = _greedy_path(_pm_of(f), _Frame.identity(f.n))
    return Certificate(tuple(constraints), value)


def cert_norm_halving(f: BooleanFunction) -> Certificate:
    """Certificate whose outer iterations halve the +/-1 l1 numerator."""
    cert, _ = cert_norm_halving_with_trace(f)
    return cert


@dataclass(frozen=True)
class HalvingStep:
    """Outer-iteration record: l1 numerators over the root denominator."""

    derivative_mask: int
    chosen_branch: int
    l1_before: int
    l1_split: Tuple[int, int]
    l1_after: int
    sub_codims: Tuple[int, int]


def cert_norm_halving_with_trace(
    f: BooleanFunction,
) -> Tuple[Certificate, List[HalvingStep]]:
    """Derivative-driven certificate plus its outer-iteration trace.

    Loop on the current restriction g: degree <= 2 finishes by the greedy
    path (an affine g is a single character, one query or none);
    otherwise take the x1-first direction t with a non-constant derivative,
    certify both values of the derivative on recursively chosen subspaces,
    adopt the branch whose split l1 is at most half the total (ties toward
    0), restrict and repeat.  The adopted restriction's l1 numerator is at
    most half its predecessor; violation would be an internal error and
    raises.
    """
    if f.is_constant():
        raise ConstantInput("constant functions need no certificate")
    # +/-1 spectrum of the current restriction g over the root denominator
    # 2**f.n, folded along with the frame rather than transformed again; g's
    # table is gathered from the frame once per iteration.
    spec = _pm_of(f)
    frame = _Frame.identity(f.n)
    g = f
    constraints: List[AffineConstraint] = []
    steps: List[HalvingStep] = []
    while True:
        monomials = np.flatnonzero(_xor_butterfly(g.table) != 0)
        weights = np.bitwise_count(monomials)
        if not (weights > 2).any():
            break
        # The directions with a constant derivative form a subspace, since
        # D_{a^b} g(x) = D_a g(x) ^ D_b g(x ^ a), and it holds e_j exactly
        # when x_j is in no monomial of degree >= 2.  Every mask on
        # x_{j+1}..x_m comes before e_j in x1-first order, so the first
        # direction outside it is e_j for the highest such j.
        t = 1 << (int(np.bitwise_or.reduce(monomials[weights >= 2])).bit_length() - 1)
        deriv = derivative(g, t)
        # split the l1 numerator by <s, t>: l1_1 is the part off t's kernel
        l1_total = spec.l1_num()
        l1_1 = sum(abs(num) for s, num in spec.coeffs.items() if dot(s, t))
        l1_0 = l1_total - l1_1
        # both certificates on the frame, each through the original point of
        # the first index where the derivative takes its value
        deriv_spec = _pm_of(deriv)
        ys = [int(np.argmax(deriv.table == bit)) for bit in (0, 1)]
        subs = [_greedy_path(deriv_spec, frame, frame.point(y))[0] for y in ys]
        b_star = 0 if 2 * l1_0 <= l1_total else 1
        for c in subs[b_star]:
            spec, frame = _child(spec, frame, c.mask, frame.pullback(c.mask), c.bit)
        constraints.extend(subs[b_star])
        step = HalvingStep(
            derivative_mask=t,
            chosen_branch=b_star,
            l1_before=l1_total,
            l1_split=(l1_0, l1_1),
            l1_after=spec.l1_num(),
            sub_codims=(len(subs[0]), len(subs[1])),
        )
        steps.append(step)
        if 2 * step.l1_after > step.l1_before:
            raise BoolFourierError("internal: l1 numerator failed to halve")
        g = frame.restriction(f)
    tail, value = _greedy_path(spec, frame)
    return Certificate(tuple(constraints + tail), value), steps


# ---------------------------------------------------------------------------
# Green-Sanders style decomposition from the 1-leaves of a tree.


def green_sanders_decompose(
    tree: Pdt, f: BooleanFunction
) -> List[Tuple[int, Tuple[int, ...]]]:
    """Signed linear-subspace indicators summing pointwise to f.

    The tree must compute f.  Each 1-leaf's affine subspace H (constraints
    <l_i, x> = a_i) contributes 1_H = 1_V1 - 1_V2 where V2 is the fully
    homogenized subspace (all constraints set to 0) and V1 drops the first
    constraint with a_i = 1, XORing its mask into the other inhomogeneous
    ones; when every a_i is 0, H is already linear and contributes a single
    +1 term.  Subspaces are returned as (sign, constraint masks); at most
    two terms per 1-leaf.
    """
    if not pdt_check(f, tree).correct:
        raise InvalidTree("tree does not compute the supplied function")
    terms: List[Tuple[int, Tuple[int, ...]]] = []
    for path, value in tree.leaf_paths():
        if value != 1:
            continue
        masks = [c.mask for c in path]
        hot = [i for i, c in enumerate(path) if c.bit == 1]
        if not hot:
            terms.append((1, tuple(masks)))
            continue
        j = hot[0]
        v1 = []
        for i, c in enumerate(path):
            if i == j:
                continue
            v1.append(c.mask ^ masks[j] if c.bit == 1 else c.mask)
        terms.append((1, tuple(v1)))
        terms.append((-1, tuple(masks)))
    return terms


# ---------------------------------------------------------------------------
# Serialization.


def _node_to_dict(node: PdtNodeOrLeaf, n: int) -> dict:
    if isinstance(node, PdtLeaf):
        return {"value": node.value}
    return {
        "query": mask_to_string(node.mask, n),
        "child0": _node_to_dict(node.child0, n),
        "child1": _node_to_dict(node.child1, n),
    }


def tree_to_dict(tree: Pdt) -> dict:
    """JSON-ready mirror: {"n": ..., "root": nested nodes with mask bitstrings}."""
    return {"n": tree.n, "root": _node_to_dict(tree.root, tree.n)}


def _node_from_dict(obj: dict, n: int) -> PdtNodeOrLeaf:
    if not isinstance(obj, dict):
        raise InvalidTree("tree nodes must be JSON objects")
    # the key sets tree.schema.json allows, with no extra keys
    if obj.keys() == {"value"}:
        value = obj["value"]
        if isinstance(value, bool) or value not in (0, 1):
            raise InvalidTree(f"leaf value {value!r} not a bit")
        return PdtLeaf(value)
    if obj.keys() != {"query", "child0", "child1"}:
        raise InvalidTree("tree nodes need exactly value, or query, child0 and child1")
    bits = obj["query"]
    if not isinstance(bits, str) or len(bits) != n:
        raise InvalidTree(f"query {bits!r} is not a length-{n} bitstring")
    try:
        mask = string_to_mask(bits)
    except ValueError as exc:
        raise InvalidTree(str(exc)) from exc
    return PdtNode(mask, _node_from_dict(obj["child0"], n), _node_from_dict(obj["child1"], n))


def tree_from_dict(obj: dict) -> Pdt:
    """Rebuild a tree from its JSON mirror, validating structure."""
    if not isinstance(obj, dict) or obj.keys() != {"n", "root"}:
        raise InvalidTree("tree JSON needs exactly the keys n and root")
    n = obj["n"]
    # checked before anything is sized by n: Pdt.validate takes 1 << n
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= N_MAX:
        raise InvalidTree(f"invalid n {n!r}: a tree has n in 0..{N_MAX}")
    return Pdt(n, _node_from_dict(obj["root"], n))


def tree_to_dot(tree: Pdt) -> str:
    """Graphviz rendering: boxes labeled with mask bitstrings, 0/1 edges."""
    lines = ["digraph pdt {"]
    counter = [0]

    def walk(node: PdtNodeOrLeaf) -> str:
        name = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, PdtLeaf):
            lines.append(f'  {name} [shape=circle, label="{node.value}"];')
            return name
        lines.append(f'  {name} [shape=box, label="{mask_to_string(node.mask, tree.n)}"];')
        for bit, child in ((0, node.child0), (1, node.child1)):
            cname = walk(child)
            lines.append(f'  {name} -> {cname} [label="{bit}"];')
        return name

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
