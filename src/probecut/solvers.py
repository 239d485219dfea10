"""Polynomial-time solvers for partitioned probe instances.

Three entry points:

* :func:`solve_mmc` / :func:`solve_pmc` - maximum matching cut and perfect
  matching cut for inputs promised probe (sP1+P4)-free.  A seed set whose
  closed neighbourhood covers all but an independent set is located, every
  red/blue assignment of that neighbourhood is branched on, and the
  independent remainder is completed exactly.
* :func:`solve_dcut` - d-cut for every d >= 1 on inputs promised probe
  (P1+P4)-free.  If the probe side contains an induced P4 it dominates the
  graph and plain neighbourhood branching decides; otherwise the probe side
  is a cograph and the solver dispatches on its component count, using the
  bounded-colour-class property of cographs and, for three or more
  components, a classification of the non-probes by their component
  adjacency profile.

Soundness is unconditional: a yes answer always carries a certificate that
re-validates.  Completeness relies on the promised class; on other inputs
the solvers may come back with a suboptimal or negative answer, never an
invalid certificate.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, tee
from typing import Callable, Iterable, Iterator, Optional

from .errors import NotConnected
from .colouring import (
    CutCertificate,
    _certify,
    _check_d,
    _within_budget,
    complete_independent_max_cut,
    complete_independent_perfect,
    extend_masks,
    process_masks,
)
from .graph import (
    Graph,
    PartitionedProbeGraph,
    _nbhd,
    connected_components,
    is_connected,
    is_p4_free,
    iter_bits,
)


@dataclass
class SolveReport:
    """Outcome of a solver run; a yes answer always carries a validated
    certificate.

    ``branches_explored`` counts, for d-cut, every total colouring that was
    validated or, in the lone-non-probe step, decided; for maximum matching
    cut, every branch leaf passed to the completion; for perfect matching
    cut, the leaves passed to the completion up to and including the first
    success.
    """

    answer: bool
    certificate: Optional[CutCertificate]
    branches_explored: int
    case_trace: list[str] = field(default_factory=list)


def _subsets(mask: int, hi: int) -> Iterator[int]:
    """Sub-masks of ``mask`` with at most hi vertices, by size and then in
    lexicographic order of their ascending vertex lists."""
    bits = [1 << v for v in iter_bits(mask)]
    for size in range(min(hi, len(bits)) + 1):
        for sel in combinations(bits, size):
            yield sum(sel)


def _branch_leaves(
    g: Graph, x0: int, y0: int, frontier_mask: int, d: int
) -> Iterator[tuple[int, int]]:
    """Depth-first enumeration of red/blue assignments to the frontier.

    Each prefix is closed under the forcing rules and dropped as soon as
    the closure rejects or some coloured vertex exceeds its budget among
    coloured vertices, which removes exactly the assignments that can
    never validate.  Leaves are yielded as processed (red, blue) masks in
    ascending-vertex, red-before-blue order.

    The start is closed and checked by :func:`process_masks`, and each
    step colours a frontier vertex v with :func:`extend_masks`.  The
    explicit stack holds each child as (x, y, i, v, red), uncoloured, so
    the steps run in the recursive order.
    """
    adj = g.adj_bits
    start = process_masks(adj, g.n, x0, y0, d)
    if start is None:
        return
    frontier = list(iter_bits(frontier_mask))
    stack = [(start[0], start[1], 0, -1, False)]
    while stack:
        x, y, i, v, red = stack.pop()
        if red:
            x = extend_masks(adj, x, y, v, d)
        elif v >= 0:
            y = extend_masks(adj, y, x, v, d)
        if x is None or y is None:
            continue
        while i < len(frontier) and ((x | y) >> frontier[i]) & 1:
            i += 1
        if i == len(frontier):
            yield (x, y)
            continue
        v = frontier[i]
        stack.append((x, y, i + 1, v, False))
        stack.append((x, y, i + 1, v, True))


class _DcutSolver:
    """One d-cut run; holds the shared masks and the branch counter."""

    def __init__(self, ppg: PartitionedProbeGraph, d: int):
        self.g = ppg.graph
        self.d = d
        self.n = self.g.n
        self.adj_bits = self.g.adj_bits
        self.full = (1 << self.n) - 1
        self.n_mask = sum(1 << v for v in ppg.nonprobes)
        self.p_mask = self.full & ~self.n_mask
        self.trace: list[str] = []
        self.branches = 0

    # -- small utilities -------------------------------------------------

    def _validate_total(self, x: int, y: int) -> Optional[CutCertificate]:
        self.branches += 1
        return _certify(self.g, x, y, self.d)

    def _search(
        self, x: int, y: int, frontier: int,
        second: Optional[Callable[[int], int]] = None,
    ) -> Optional[CutCertificate]:
        """Branch the frontier, fill every leaf and validate it; the first
        certificate wins.

        Fill: an uncoloured vertex whose neighbours are all coloured alike
        takes that shared colour (the lone-opposite alternative is covered
        by the single-non-probe pre-step).  One pass is the whole fixpoint
        of closure and fill, and it never rejects: a leaf is closed and no
        coloured vertex on it exceeds its budget, so the closure returns it
        unchanged; a filled vertex has no uncoloured neighbour, so the fill
        changes no uncoloured vertex's counts, and a coloured neighbour
        only gains neighbours of its own colour.

        Vertices left uncoloured on a filled leaf take the second round,
        :meth:`_guess` of ``second(uncoloured)`` (sound, as both colours
        are already on the probe side), when ``second`` is given, and are
        coloured blue otherwise (only reachable off-promise).
        """
        adj = self.adj_bits
        for lx, ly in _branch_leaves(self.g, x, y, frontier, self.d):
            unc = self.full & ~(lx | ly)
            for v in iter_bits(unc):
                av = adj[v]
                if av and not (av & unc):
                    if not (av & ly):
                        lx |= 1 << v
                    elif not (av & lx):
                        ly |= 1 << v
            unc &= ~(lx | ly)
            if unc and second:
                cert = self._guess(lx, ly, second(unc))
            else:
                cert = self._validate_total(lx, ly | unc)
            if cert:
                return cert
        return None

    def _guess(
        self, x: int, y: int, guessed: int,
        second: Optional[Callable[[int], int]] = None,
    ) -> Optional[CutCertificate]:
        """Search from the disjoint masks (x, y), branching the non-probe
        neighbourhood of ``guessed``.  Only here is a one-colour probe side
        skipped (the lone-non-probe step covers it), so a class may be empty."""
        if not (x & self.p_mask and y & self.p_mask):
            return None
        return self._search(x, y, _nbhd(self.adj_bits, guessed) & self.n_mask, second)

    def _classes(
        self, outer: Iterable[tuple[int, int, int]], part: int, hi: int,
        then: Callable, polarity: tuple[bool, ...] = (True, False),
    ) -> Optional[CutCertificate]:
        """The one guess product of :func:`solve_dcut`: each outer guess
        (x0, y0, g0), each polarity (red first) and each class xm of
        ``part`` from :meth:`_small_classes`, the rest of the part opposite,
        are joined and passed to ``then`` unless the joint masks overlap.
        Each non-empty outer guess is closed once with :func:`process_masks`,
        as a filter: colours only grow, so if it rejects, every joint would.
        Classes, the empty one first, are drawn only when first needed, then
        replayed from ``tee``."""
        classes = tee(self._small_classes(part, hi), 1)[0]
        for x0, y0, g0 in outer:
            if (x0 | y0) and process_masks(self.adj_bits, self.n, x0, y0, self.d) is None:
                continue
            for red in polarity:
                for xm in copy(classes):
                    x, y = (xm, part & ~xm) if red else (part & ~xm, xm)
                    if (x0 | x) & (y0 | y):
                        continue
                    cert = then(x0 | x, y0 | y, g0 | xm)
                    if cert:
                        return cert
        return None

    def _small_classes(self, part_mask: int, hi: int) -> Iterator[int]:
        """Guesses for a colour class of at most ``hi`` vertices inside
        ``part_mask`` while the rest of the part takes the other colour.

        Exactly the subsets S that :func:`_subsets` yields, in its order,
        whose masks ``(S, part_mask & ~S)`` pass ``local_masks_valid``;
        the others put some vertex over budget among the pre-coloured
        vertices, which the first closure rejects.

        Each size k is enumerated depth-first on an explicit stack.  A
        class member has at most k - 1 neighbours in its class and d in
        the rest, so only vertices of part-degree at most d + k - 1 form
        the pool.  A part vertex is fixed outside S once it is outside the
        pool or below the prefix's last vertex; its count of neighbours in
        S only grows, so a prefix is dropped once a fixed vertex exceeds
        d, and the neighbours of a fixed vertex at exactly d are banned.
        A finished guess then needs one check on its members and on the
        pool vertices above its last vertex.
        """
        adj, d = self.adj_bits, self.d
        deg = [(v, (adj[v] & part_mask).bit_count()) for v in iter_bits(part_mask)]
        for k in range(min(hi, len(deg)) + 1):
            pool = sum(1 << v for v, dv in deg if dv < d + k)
            # (prefix, pool vertices above its last, banned vertices)
            stack = [(0, pool, 0)]
            while stack:
                s, above, banned = stack.pop()
                need = k - s.bit_count()
                if not need:
                    if (_within_budget(adj, s, part_mask & ~s, d)
                            and _within_budget(adj, above, s, d)):
                        yield s
                    continue
                while (above & ~banned).bit_count() >= need:
                    low = above & -above
                    above ^= low
                    av = adj[low.bit_length() - 1]
                    out = (av & s).bit_count()  # its count when left out
                    if not low & banned:
                        inner, ban = s | low, banned
                        # fixed neighbours of low that reach d in inner
                        for w in iter_bits(av & part_mask & ~(inner | above)):
                            if (adj[w] & inner).bit_count() == d:
                                ban |= adj[w]
                        if out <= d:
                            left = banned | av if out == d else banned
                            stack.append((s, above, left))
                        stack.append((inner, above, ban))
                        break
                    if out > d:
                        break
                    if out == d:
                        banned |= av

    # -- main flow --------------------------------------------------------

    def run(self) -> SolveReport:
        if self.n < 2:
            return SolveReport(False, None, 0, ["degenerate"])
        if not is_connected(self.g):
            raise NotConnected("d-cut solver needs a connected input")

        cert = self._lone_nonprobe_step()
        if cert is None:
            cert = self._dispatch()
        return SolveReport(
            cert is not None, cert, self.branches, self.trace
        )

    def _lone_nonprobe_step(self) -> Optional[CutCertificate]:
        """A colouring with a monochromatic probe side exists iff one with
        a single oddly-coloured non-probe does.  Both tests of a non-probe
        v, lone red and lone blue, pass iff deg(v) <= d (any other vertex
        sees at most one opposite neighbour, v), so only the first such v
        is validated, lone red, after counting the tests before it."""
        self.trace.append("mono-probe")
        for i, v in enumerate(iter_bits(self.n_mask)):
            if self.adj_bits[v].bit_count() <= self.d:
                self.branches += i
                return self._validate_total(1 << v, self.full & ~(1 << v))
        self.branches += 2 * self.n_mask.bit_count()
        return None

    def _dispatch(self) -> Optional[CutCertificate]:
        witness = is_p4_free(self.g, self.p_mask)
        if witness is not True:
            return self._p4_dominating(witness)
        comps = connected_components(self.g, self.p_mask)
        if len(comps) == 1:
            return self._one_component()
        if len(comps) == 2:
            return self._two_components(*comps)
        return self._many_components(comps)

    def _p4_dominating(self, q: tuple[int, ...]) -> Optional[CutCertificate]:
        """An induced P4 inside the probe side dominates the whole graph
        (class promise), so branching its closed neighbourhood decides."""
        self.trace.append("p4-dominating")
        qm = sum(1 << v for v in q)
        return self._search(0, 0, qm | _nbhd(self.adj_bits, qm))

    def _one_component(self) -> Optional[CutCertificate]:
        """Connected cograph probe side: some colour class inside it has
        at most 2d vertices, so guess it (both polarities), branch its
        non-probe neighbourhood and fill the rest.  Only guesses that keep
        every probe within budget among the probes are made."""
        self.trace.append("cograph-1comp")
        return self._classes([(0, 0, 0)], self.p_mask, 2 * self.d, self._guess)

    def _two_components(self, c1m: int, c2m: int) -> Optional[CutCertificate]:
        """Guess a bounded red class x1 in c1 and a bounded class in c2,
        each pruned against its own component alone (the components share
        no edges), and let a second round cover the non-probes left
        uncoloured.  That round never runs when both classes are red: the
        non-probes are independent, so a non-probe the branching left
        uncoloured has only blue probe neighbours and the fill colours it
        blue."""
        self.trace.append("cograph-2comp")
        cap = 2 * self.d
        outer = ((x1m, c1m & ~x1m, x1m)
                 for x1m in self._small_classes(c1m, cap))
        then = partial(self._guess, second=partial(self._two_component_round, c1m, c2m))
        return self._classes(outer, c2m, cap, then)

    def _mixed_edge(self, b: int, cm: int) -> int:
        """Mask of an edge of the component with exactly one end adjacent
        to b; one exists because b has neighbours and non-neighbours in
        the connected component."""
        nb = self.adj_bits[b]
        for v in iter_bits(cm & nb):
            rest = self.adj_bits[v] & cm & ~nb
            if rest:
                return (1 << v) | (rest & -rest)

    def _two_component_round(self, c1m: int, c2m: int, unc: int) -> int:
        """Second-round guess for the non-probes still uncoloured after
        the guesses red x1 in c1 and blue x2 in c2.

        Such a vertex b has only probe neighbours, all coloured, of both
        colours, and none in x1 or x2 (their neighbourhood was branched):
        its red neighbours lie in c2 and its blue ones in c1.  So b is
        mixed on both components, and then a five-vertex induced path
        through b has probe ends to branch on, or b is complete to one
        component, and then that component's neighbourhood is branched.
        """
        adj = self.adj_bits
        for b in iter_bits(unc):
            ab = adj[b]
            if (ab & c1m) and (c1m & ~ab) and (ab & c2m) and (c2m & ~ab):
                return self._mixed_edge(b, c1m) | self._mixed_edge(b, c2m)
        b = (unc & -unc).bit_length() - 1
        return c1m if adj[b] & c1m == c1m else c2m

    def _many_components(self, comps: list[int]) -> Optional[CutCertificate]:
        """Three or more probe components: sort the non-probes by the bit
        sets of the components they touch and are complete to.  Type A is
        complete to every component, type B touches every component
        without being type A, type C touches two or more but not all, and
        type D (never used) touches at most one.  Branch on the least
        type-A vertex, else the least type-B vertex, else a dominating
        pair of type-C vertices."""
        every = (1 << len(comps)) - 1
        b_mask = 0
        c_complete: dict[int, int] = {}
        for v in iter_bits(self.n_mask):
            av = self.adj_bits[v]
            touched = complete = 0
            for i, cm in enumerate(comps):
                if av & cm:
                    touched |= 1 << i
                    if av & cm == cm:
                        complete |= 1 << i
            if complete == every:
                return self._type_a_case(v)
            if touched == every:
                b_mask |= 1 << v
            elif touched & (touched - 1):
                c_complete[v] = complete
        if b_mask:
            return self._type_b_case(b_mask, comps)
        return self._dominating_pair_case(c_complete, comps)

    def _type_a_case(self, v: int) -> Optional[CutCertificate]:
        """A non-probe complete to the probe side sees every probe, so its
        neighbourhood colouring bounds the red probes by d."""
        self.trace.append("multi-comp/type-a")
        for x, y in _branch_leaves(self.g, 0, 1 << v, self.p_mask, self.d):
            cert = self._guess(x, y, x & self.p_mask)
            if cert:
                return cert
        return None

    def _type_b_case(self, b_mask: int, comps: list[int]) -> Optional[CutCertificate]:
        """The least type-B non-probe v is complete to all components but
        one (the first it is not complete to); its neighbourhood guess
        colours everything except part of that component, which the
        bounded-class guess covers."""
        self.trace.append("multi-comp/type-b")
        v = (b_mask & -b_mask).bit_length() - 1
        nv = self.adj_bits[v]
        c1m = next(cm for cm in comps if nv & cm != cm)
        outer = ((xvm, (1 << v) | (nv & ~xvm), xvm)
                 for xvm in _subsets(nv, self.d))
        then = partial(self._guess, second=partial(self._type_b_round, b_mask, comps, c1m))
        return self._classes(outer, c1m, 2 * self.d, then)

    def _type_b_round(self, b_mask, comps, c1m, unc) -> int:
        """Second-round guess for the vertices the type-B guesses left
        uncoloured: the components complete to the first uncoloured type-B
        non-probe, or the exceptional component."""
        left = unc & b_mask
        if left:
            ab = self.adj_bits[(left & -left).bit_length() - 1]
            return sum(cm for cm in comps if ab & cm == cm)
        return c1m

    def _dominating_pair_case(
        self, c_complete: dict[int, int], comps: list[int]
    ) -> Optional[CutCertificate]:
        """Only type-C and type-D non-probes remain; a type-C pair (u, v)
        jointly complete to every component drives the guesses.  The anchor
        v is complete to the most components (least id on ties); u is the
        least type-C vertex that shares a complete component with v and is
        complete to the rest (``c_complete`` holds those component bits).
        A probe (P1+P4)-free instance with type-C vertices has such a pair.
        With u and v alike (blue), the red probes number at most 2d.  With
        u red and v blue (the swap is the mirror image), at most d blue
        neighbours of u are joined with at most d red ones of v.
        """
        self.trace.append("multi-comp/dominating-pair")
        if not c_complete:
            return None
        every = (1 << len(comps)) - 1
        v = max(c_complete, key=lambda w: (c_complete[w].bit_count(), -w))
        cv = c_complete[v]
        u = next((
            w for w, cw in c_complete.items()
            if cw & ~cv and cw & cv and cw | cv == every
        ), None)
        if u is None:
            return None  # class promise broken; nothing sound to report
        bu, bv = 1 << u, 1 << v
        cert = self._classes([(0, bu | bv, 0)], self.p_mask, 2 * self.d, self._guess, (True,))
        if cert:
            return cert
        nu, nv = self.adj_bits[u], self.adj_bits[v]
        outer = ((bu | (nu & ~xum), bv | xum, xum)
                 for xum in _subsets(nu, self.d))
        then = partial(self._pair_branch, comps=comps)
        return self._classes(outer, nv, self.d, then, (True,))

    def _pair_branch(self, x0, y0, guess_mask, comps) -> Optional[CutCertificate]:
        """Guess step whose second round branches the neighbourhoods of the
        least vertex of the first untouched component coloured red and of
        the first coloured blue.  A filled vertex has no uncoloured
        neighbour, so filling before that round changes no leaf."""
        untouched = [cm for cm in comps if not cm & guess_mask]
        extra = 0
        for colour in (x0, y0):
            for cm in untouched:
                if cm & colour == cm:
                    extra |= cm & -cm
                    break
        return self._guess(x0, y0, guess_mask, lambda unc: extra)


def solve_dcut(ppg: PartitionedProbeGraph, d: int) -> SolveReport:
    """Decide d-cut existence (every d >= 1) for a connected partitioned
    probe instance promised probe (P1+P4)-free; see the module docstring."""
    _check_d(d)
    return _DcutSolver(ppg, d).run()


def _matching_cut(
    ppg: PartitionedProbeGraph,
    s: int,
    complete: Callable[[Graph, int, int], Optional[CutCertificate]],
) -> SolveReport:
    """Branch over the closed neighbourhood of the first seed set, the
    first set of at most s + 4 vertices in :func:`_subsets` order whose
    closed neighbourhood leaves an independent rest, and complete every
    leaf with ``complete``; the largest certificate wins.  A perfect one
    ends the scan: it has n/2 cut edges, and no matching cut has more."""
    if s < 0:
        raise ValueError("s must be >= 0")
    g = ppg.graph
    if g.n < 2:
        return SolveReport(False, None, 0, ["degenerate"])
    if not is_connected(g):
        raise NotConnected("matching-cut solver needs a connected input")
    adj, full = g.adj_bits, (1 << g.n) - 1
    for seed in _subsets(full, s + 4):
        frontier = seed | _nbhd(adj, seed)
        rest = full & ~frontier
        if all(not adj[v] & rest for v in iter_bits(rest)):
            break
    else:
        return SolveReport(False, None, 0, ["no-seed"])
    best: Optional[CutCertificate] = None
    branches = 0
    for x, y in _branch_leaves(g, 0, 0, frontier, 1):
        branches += 1
        cert = complete(g, x, y)
        if cert and (best is None or cert.size > best.size):
            best = cert
            if best.perfect:
                break
    return SolveReport(best is not None, best, branches, [f"seed {list(iter_bits(seed))}"])


def solve_mmc(ppg: PartitionedProbeGraph, s: int) -> SolveReport:
    """Maximum matching cut for inputs promised probe (sP1+P4)-free.

    Branches over every red/blue assignment of the closed neighbourhood of
    the first seed set (size at most s+4) whose removal leaves an
    independent set, and completes each branch exactly over that remainder.
    Any such seed is sufficient: every valid total colouring restricted to
    the branched neighbourhood appears as a branch, and the completion is
    an exact maximisation, so the best certificate over the branch space is
    the true maximum whenever a seed exists - which the class promise
    guarantees.
    """
    return _matching_cut(ppg, s, complete_independent_max_cut)


def solve_pmc(ppg: PartitionedProbeGraph, s: int) -> SolveReport:
    """Perfect matching cut existence for inputs promised probe
    (sP1+P4)-free; same branch scheme as :func:`solve_mmc` with the
    perfect completion, first valid certificate wins."""
    return _matching_cut(ppg, s, complete_independent_perfect)
