"""Polynomial-time solvers for partitioned probe instances.

Three entry points:

* :func:`solve_mmc` / :func:`solve_pmc` - maximum matching cut and perfect
  matching cut for inputs promised probe (sP1+P4)-free.  A seed set whose
  closed neighbourhood covers all but an independent set is located, every
  red/blue assignment of that neighbourhood is branched on, and the
  independent remainder is completed exactly.
* :func:`solve_dcut` - d-cut for d >= 2 on inputs promised probe
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

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator, Optional

from .errors import NotConnected, StructureViolation, UnsupportedD, WrongCase
from .colouring import (
    CutCertificate,
    colouring_of,
    complete_independent_max_cut,
    complete_independent_perfect,
    local_masks_valid,
    process_masks,
    validate_colouring,
)
from .graph import (
    Graph,
    PartitionedProbeGraph,
    connected_components,
    is_connected,
    is_p4_free,
    iter_bits,
)


@dataclass(frozen=True)
class NonProbeType:
    """Adjacency profile of a non-probe against the probe components.

    Tags: ``A`` complete to the whole probe side; ``B`` a neighbour in
    every component but not complete (witness: the non-complete
    component); ``C`` anti-complete to some component with neighbours in
    at least two (witness: the components it is complete to); ``D``
    neighbours in exactly one component (witness: that component).
    """

    tag: str
    witness: object = None


@dataclass
class SolveReport:
    """Outcome of a solver run; a yes answer always carries a validated
    certificate.

    ``branches_explored`` counts, for d-cut, every total colouring that was
    validated (the lone-non-probe tests included) plus every branch leaf
    the closure-and-fill step rejected; for maximum matching cut, every
    branch leaf passed to the completion; for perfect matching cut, the
    leaves passed to the completion up to and including the first success.
    """

    answer: bool
    certificate: Optional[CutCertificate]
    branches_explored: int
    case_trace: list[str] = field(default_factory=list)


def seed_sets(ppg: PartitionedProbeGraph, k: int) -> Iterator[frozenset[int]]:
    """All vertex sets of size at most k whose closed neighbourhood covers
    everything except an independent set.

    Ordered by size then lexicographically, so consumers that stop at the
    first hit are deterministic.
    """
    g = ppg.graph
    full = (1 << g.n) - 1
    adj = g.adj_bits
    for size in range(k + 1):
        for sel in combinations(range(g.n), size):
            covered = 0
            for v in sel:
                covered |= adj[v] | (1 << v)
            rest = full & ~covered
            if all(not (adj[v] & rest) for v in iter_bits(rest)):
                yield frozenset(sel)


def _branch_leaves(
    g: Graph, x0: int, y0: int, frontier_mask: int, d: int
) -> Iterator[tuple[int, int]]:
    """Depth-first enumeration of red/blue assignments to the frontier.

    Each prefix is closed under the forcing rules and dropped as soon as
    the closure rejects or some coloured vertex exceeds its budget among
    coloured vertices, which removes exactly the assignments that can
    never validate.  Leaves are yielded as processed (red, blue) masks in
    ascending-vertex, red-before-blue order.
    """
    adj = g.adj_bits
    n = g.n
    start = process_masks(adj, n, x0, y0, d)
    if start is None or not local_masks_valid(adj, start[0], start[1], d):
        return
    frontier = list(iter_bits(frontier_mask))

    def rec(x: int, y: int, i: int) -> Iterator[tuple[int, int]]:
        while i < len(frontier) and ((x | y) >> frontier[i]) & 1:
            i += 1
        if i == len(frontier):
            yield (x, y)
            return
        bit = 1 << frontier[i]
        for nx, ny in ((x | bit, y), (x, y | bit)):
            nxt = process_masks(adj, n, nx, ny, d)
            if nxt is not None and local_masks_valid(adj, nxt[0], nxt[1], d):
                yield from rec(nxt[0], nxt[1], i + 1)

    yield from rec(start[0], start[1], 0)


def classify_nonprobe(
    ppg: PartitionedProbeGraph, components: list[list[int]]
) -> dict[int, NonProbeType]:
    """Classify every non-probe by its profile against the probe
    components; requires at least three components."""
    if len(components) < 3:
        raise WrongCase("classification needs >= 3 probe components")
    adj = ppg.graph.adj_bits
    comp_masks = [sum(1 << v for v in comp) for comp in components]
    p_mask = sum(comp_masks)
    result: dict[int, NonProbeType] = {}
    for v in sorted(ppg.nonprobes):
        av = adj[v]
        if av & p_mask == p_mask:
            result[v] = NonProbeType("A")
            continue
        touched = [i for i, cm in enumerate(comp_masks) if av & cm]
        complete = [i for i, cm in enumerate(comp_masks) if av & cm == cm]
        if len(touched) == len(components):
            missing = [i for i in touched if i not in complete]
            result[v] = NonProbeType("B", missing[0])
        elif len(touched) >= 2:
            result[v] = NonProbeType("C", tuple(complete))
        else:
            result[v] = NonProbeType("D", touched[0] if touched else None)
    return result


def find_p_dominating_pair(
    ppg: PartitionedProbeGraph,
    components: list[list[int]],
    typemap: dict[int, NonProbeType],
) -> Optional[tuple[int, int]]:
    """A pair of type-C non-probes with every probe component complete to
    at least one of them.

    The anchor v is a maximum type-C vertex (complete to the most
    components, ties by id); its partner u is the first type-C vertex
    complete to a component v misses, sharing a complete component with v,
    and closing the domination condition.  Returns None when there are no
    type-C vertices at all; raises :class:`StructureViolation` when type-C
    vertices exist but no pair works, which cannot happen for a genuinely
    probe (P1+P4)-free instance.
    """
    if any(t.tag in ("A", "B") for t in typemap.values()):
        raise WrongCase("dominating pair search assumes no type-A/B vertices")
    cs = [v for v in sorted(typemap) if typemap[v].tag == "C"]
    if not cs:
        return None
    complete_of = {v: set(typemap[v].witness) for v in cs}
    v_anchor = max(cs, key=lambda v: (len(complete_of[v]), -v))
    all_comps = set(range(len(components)))
    for u in cs:
        if u == v_anchor:
            continue
        cu, cv = complete_of[u], complete_of[v_anchor]
        if (cu - cv) and (cu & cv) and cu | cv == all_comps:
            return (u, v_anchor)
    raise StructureViolation(
        "no P-dominating type-C pair; instance breaks its class promise"
    )


class _DcutSolver:
    """One d-cut run; holds the shared masks and the branch counter."""

    def __init__(self, ppg: PartitionedProbeGraph, d: int):
        self.ppg = ppg
        self.g = ppg.graph
        self.d = d
        self.n = self.g.n
        self.adj_bits = self.g.adj_bits
        self.full = (1 << self.n) - 1
        self.p_list = sorted(ppg.probes)
        self.n_list = sorted(ppg.nonprobes)
        self.p_mask = sum(1 << v for v in self.p_list)
        self.n_mask = sum(1 << v for v in self.n_list)
        self.trace: list[str] = []
        self.branches = 0

    # -- small utilities -------------------------------------------------

    def _nbhd(self, mask: int) -> int:
        out = 0
        for v in iter_bits(mask):
            out |= self.adj_bits[v]
        return out

    def _leaves(self, x: int, y: int, frontier: int):
        return _branch_leaves(self.g, x, y, frontier & ~(x | y), self.d)

    def _validate_total(self, x: int, y: int) -> Optional[CutCertificate]:
        self.branches += 1
        result = validate_colouring(
            self.g, colouring_of(self.n, x, y), self.d
        )
        return result if isinstance(result, CutCertificate) else None

    def _process_and_fill(self, x: int, y: int) -> Optional[tuple[int, int]]:
        """Forcing closure interleaved with the safe monochromatic fill:
        an uncoloured vertex whose neighbours are all coloured alike takes
        that shared colour (the lone-opposite alternative is covered by
        the single-non-probe pre-step)."""
        adj = self.adj_bits
        while True:
            res = process_masks(adj, self.n, x, y, self.d)
            if res is None:
                return None
            x, y = res
            coloured = x | y
            add_x = add_y = 0
            for v in iter_bits(self.full & ~coloured):
                av = adj[v]
                if av and not (av & ~coloured):
                    if not (av & y):
                        add_x |= 1 << v
                    elif not (av & x):
                        add_y |= 1 << v
            if not add_x and not add_y:
                return x, y
            x |= add_x
            y |= add_y

    def _finish(self, x: int, y: int) -> Optional[CutCertificate]:
        """Close, fill, push leftovers blue (only reachable off-promise)
        and validate."""
        res = self._process_and_fill(x, y)
        if res is None:
            self.branches += 1
            return None
        x, y = res
        leftover = self.full & ~(x | y)
        if leftover:
            y |= leftover
        return self._validate_total(x, y)

    def _first(self, x: int, y: int, frontier: int) -> Optional[CutCertificate]:
        """Finish every leaf of one branch; the first certificate wins."""
        for lx, ly in self._leaves(x, y, frontier):
            cert = self._finish(lx, ly)
            if cert:
                return cert
        return None

    def _filled_leaves(
        self, x: int, y: int, frontier: int
    ) -> Iterator[tuple[int, int, int]]:
        """Leaves closed and filled, as (red, blue, uncoloured) masks; a
        closure or fill rejection counts as one branch."""
        for lx, ly in self._leaves(x, y, frontier):
            res = self._process_and_fill(lx, ly)
            if res is None:
                self.branches += 1
                continue
            fx, fy = res
            yield fx, fy, self.full & ~(fx | fy)

    def _subset_masks(
        self, pool: list[int], lo: int, hi: int
    ) -> Iterator[int]:
        hi = min(hi, len(pool))
        for size in range(lo, hi + 1):
            for sel in combinations(pool, size):
                yield sum(1 << v for v in sel)

    def _small_classes(self, part: list[int], lo: int, hi: int) -> Iterator[int]:
        """Guesses for a colour class of at most ``hi`` vertices inside
        ``part`` while the rest of ``part`` takes the other colour.

        A class member has fewer than ``hi`` neighbours in its class and at
        most d in the rest of ``part``, so its degree inside ``part`` is at
        most d + hi - 1.  A subset holding a vertex above that bound gives
        it more than d opposite-coloured neighbours among the pre-coloured
        vertices, which the first closure rejects; dropping those vertices
        from the pool skips exactly those subsets and keeps the order of
        the rest.
        """
        pm = sum(1 << v for v in part)
        cap = self.d + hi - 1
        pool = [v for v in part if (self.adj_bits[v] & pm).bit_count() <= cap]
        return self._subset_masks(pool, lo, hi)

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
        a single oddly-coloured non-probe does, so test each non-probe as
        the lone red and the lone blue vertex."""
        self.trace.append("mono-probe")
        for v in self.n_list:
            cert = self._validate_total(1 << v, self.full & ~(1 << v))
            if cert:
                return cert
        for v in self.n_list:
            cert = self._validate_total(self.full & ~(1 << v), 1 << v)
            if cert:
                return cert
        return None

    def _dispatch(self) -> Optional[CutCertificate]:
        witness = is_p4_free(self.g, self.p_mask)
        if witness is not True:
            return self._p4_dominating(witness)
        comps = connected_components(self.g, self.p_list)
        if len(comps) == 1:
            return self._one_component()
        if len(comps) == 2:
            return self._two_components(comps)
        return self._many_components(comps)

    def _p4_dominating(self, q: tuple[int, ...]) -> Optional[CutCertificate]:
        """An induced P4 inside the probe side dominates the whole graph
        (class promise), so branching its closed neighbourhood decides."""
        self.trace.append("p4-dominating")
        frontier = sum(1 << v for v in q) | self._nbhd(sum(1 << v for v in q))
        return self._first(0, 0, frontier)

    def _one_component(self) -> Optional[CutCertificate]:
        """Connected cograph probe side: some colour class inside it has
        at most hi = min(2d, |P| - 1) vertices, so guess it (both
        polarities), branch its non-probe neighbourhood and fill the rest.
        A member of that class has probe-degree at most d + hi - 1, so only
        such probes are guessed."""
        self.trace.append("cograph-1comp")
        for pol_red in (True, False):
            for xm in self._small_classes(
                self.p_list, 1, min(2 * self.d, len(self.p_list) - 1)
            ):
                rest = self.p_mask & ~xm
                x0, y0 = (xm, rest) if pol_red else (rest, xm)
                cert = self._first(x0, y0, self._nbhd(xm) & self.n_mask)
                if cert:
                    return cert
        return None

    def _two_components(
        self, comps: list[list[int]]
    ) -> Optional[CutCertificate]:
        self.trace.append("cograph-2comp")
        c1, c2 = comps
        c1m = sum(1 << v for v in c1)
        c2m = sum(1 << v for v in c2)
        cap = 2 * self.d
        for x1m in self._small_classes(c1, 0, cap):
            base_x = x1m
            base_y = c1m & ~x1m
            for pol2_red in (True, False):
                for x2m in self._small_classes(c2, 0, cap):
                    rest2 = c2m & ~x2m
                    if pol2_red:
                        px, py = base_x | x2m, base_y | rest2
                    else:
                        px, py = base_x | rest2, base_y | x2m
                    if px == 0 or py == 0:
                        continue  # monochromatic probe side: pre-step covers it
                    cert = self._two_component_branch(
                        px, py, x1m | x2m, pol2_red, c1m, c2m
                    )
                    if cert:
                        return cert
        return None

    def _two_component_branch(
        self, px, py, guessed, pol2_red, c1m, c2m
    ) -> Optional[CutCertificate]:
        frontier = self._nbhd(guessed) & self.n_mask
        if pol2_red:
            # both guessed sets red: every remaining non-probe only has
            # blue neighbours and the fill closes the colouring
            return self._first(px, py, frontier)
        for fx, fy, unc in self._filled_leaves(px, py, frontier):
            if not unc:
                cert = self._validate_total(fx, fy)
                if cert:
                    return cert
                continue
            cert = self._two_component_uncoloured(fx, fy, unc, c1m, c2m)
            if cert:
                return cert
        return None

    def _mixed_edge(self, b: int, cm: int) -> int:
        """Mask of an edge of the component with exactly one end adjacent
        to b, or 0."""
        nb = self.adj_bits[b]
        for v in iter_bits(cm & nb):
            rest = self.adj_bits[v] & cm & ~nb
            if rest:
                return (1 << v) | (rest & -rest)
        return 0

    def _two_component_uncoloured(
        self, x, y, unc, c1m, c2m
    ) -> Optional[CutCertificate]:
        """Still-uncoloured non-probes after the first guessing round."""
        # a vertex split over both components yields a five-vertex induced
        # path whose probe ends we can branch on
        for b in iter_bits(unc):
            ab = self.adj_bits[b]
            mixed1 = (ab & c1m) and (c1m & ~ab)
            mixed2 = (ab & c2m) and (c2m & ~ab)
            if mixed1 and mixed2:
                e1 = self._mixed_edge(b, c1m)
                e2 = self._mixed_edge(b, c2m)
                assert e1 and e2
                return self._first(x, y, self._nbhd(e1 | e2) & self.n_mask)
        # otherwise every uncoloured vertex is complete or anti-complete
        # to each component; completeness only needs the complete ones
        round_mask = 0
        for b in iter_bits(unc):
            ab = self.adj_bits[b]
            if ab & c1m == c1m:
                round_mask = c1m
                break
            if ab & c2m == c2m:
                round_mask = c2m
                break
        if not round_mask:
            return self._finish(x, y)
        return self._first(x, y, self._nbhd(round_mask) & self.n_mask)

    def _many_components(
        self, comps: list[list[int]]
    ) -> Optional[CutCertificate]:
        typemap = classify_nonprobe(self.ppg, comps)
        comp_masks = [sum(1 << v for v in c) for c in comps]
        a_verts = [v for v in self.n_list if typemap[v].tag == "A"]
        if a_verts:
            return self._type_a_case(a_verts[0])
        b_verts = [v for v in self.n_list if typemap[v].tag == "B"]
        if b_verts:
            return self._type_b_case(b_verts[0], typemap, comps, comp_masks)
        return self._dominating_pair_case(typemap, comps, comp_masks)

    def _type_a_case(self, v: int) -> Optional[CutCertificate]:
        """A non-probe complete to the probe side sees every probe, so its
        neighbourhood colouring bounds the red probes by d."""
        self.trace.append("multi-comp/type-a")
        for x, y in self._leaves(0, 1 << v, self.p_mask):
            qm = x & self.p_mask
            if qm == 0 or qm == self.p_mask:
                continue  # monochromatic probe side: pre-step covers it
            cert = self._first(x, y, self._nbhd(qm) & self.n_mask)
            if cert:
                return cert
        return None

    def _type_b_case(
        self, v, typemap, comps, comp_masks
    ) -> Optional[CutCertificate]:
        """A type-B non-probe is complete to all components but one; its
        neighbourhood guess colours everything except part of that
        component, which the bounded-class guess covers."""
        self.trace.append("multi-comp/type-b")
        exceptional = typemap[v].witness
        c1 = comps[exceptional]
        c1m = comp_masks[exceptional]
        nv = self.adj_bits[v]
        nv_list = sorted(iter_bits(nv))
        for xvm in self._subset_masks(nv_list, 0, self.d):
            x0 = xvm
            y0 = (1 << v) | (nv & ~xvm)
            for pol_red in (True, False):
                for xm in self._small_classes(c1, 0, 2 * self.d):
                    rest = c1m & ~xm
                    addx, addy = (xm, rest) if pol_red else (rest, xm)
                    x1, y1 = x0 | addx, y0 | addy
                    if x1 & y1:
                        continue  # conflicts with the neighbourhood guess
                    if (x1 & self.p_mask) == 0 or (y1 & self.p_mask) == 0:
                        continue
                    cert = self._type_b_branch(
                        x1, y1, xvm | xm, typemap, comp_masks, c1m
                    )
                    if cert:
                        return cert
        return None

    def _type_b_branch(
        self, x1, y1, guessed, typemap, comp_masks, c1m
    ) -> Optional[CutCertificate]:
        frontier = self._nbhd(guessed) & self.n_mask
        for fx, fy, unc in self._filled_leaves(x1, y1, frontier):
            if not unc:
                cert = self._validate_total(fx, fy)
                if cert:
                    return cert
                continue
            uncoloured_b = [
                b for b in iter_bits(unc) if typemap.get(b, NonProbeType("D")).tag == "B"
            ]
            if uncoloured_b:
                b = uncoloured_b[0]
                ym = 0
                for cm in comp_masks:
                    if self.adj_bits[b] & cm == cm:
                        ym |= cm
                round_frontier = self._nbhd(ym) & self.n_mask
            else:
                round_frontier = self._nbhd(c1m) & self.n_mask
            cert = self._first(fx, fy, round_frontier)
            if cert:
                return cert
        return None

    def _dominating_pair_case(
        self, typemap, comps, comp_masks
    ) -> Optional[CutCertificate]:
        """Only type-C and type-D non-probes remain; a pair of type-C
        vertices jointly complete to every component drives the guesses."""
        self.trace.append("multi-comp/dominating-pair")
        try:
            pair = find_p_dominating_pair(self.ppg, comps, typemap)
        except StructureViolation:
            return None  # class promise broken; nothing sound to report
        if pair is None:
            return None
        u, v = pair
        bu, bv = 1 << u, 1 << v
        # both endpoints alike (blue): the red probes number at most 2d
        for xm in self._small_classes(
            self.p_list, 1, min(2 * self.d, len(self.p_list) - 1)
        ):
            x0 = xm
            y0 = (self.p_mask & ~xm) | bu | bv
            cert = self._first(x0, y0, self._nbhd(xm) & self.n_mask)
            if cert:
                return cert
        # opposite colours: u red, v blue (the swapped case is the mirror
        # image and yields the swapped certificates)
        nu, nv = self.adj_bits[u], self.adj_bits[v]
        nu_list = sorted(iter_bits(nu))
        nv_list = sorted(iter_bits(nv))
        for xum in self._subset_masks(nu_list, 0, self.d):
            for xvm in self._subset_masks(nv_list, 0, self.d):
                x0 = bu | (nu & ~xum) | xvm
                y0 = bv | (nv & ~xvm) | xum
                if x0 & y0:
                    continue
                cert = self._pair_branch(x0, y0, xum | xvm, comps, comp_masks)
                if cert:
                    return cert
        return None

    def _pair_branch(
        self, x0, y0, guess_mask, comps, comp_masks
    ) -> Optional[CutCertificate]:
        c_u: list[int] = []  # untouched components coloured red
        c_v: list[int] = []  # untouched components coloured blue
        for i, cm in enumerate(comp_masks):
            if cm & guess_mask:
                continue
            if cm & x0 == cm:
                c_u.append(i)
            elif cm & y0 == cm:
                c_v.append(i)
        extra = 0
        if c_u:
            extra |= self.adj_bits[comps[c_u[0]][0]]
        if c_v:
            extra |= self.adj_bits[comps[c_v[0]][0]]
        frontier = self._nbhd(guess_mask) & self.n_mask
        for x, y in self._leaves(x0, y0, frontier):
            cert = self._first(x, y, extra & self.n_mask)
            if cert:
                return cert
        return None


def solve_dcut(ppg: PartitionedProbeGraph, d: int) -> SolveReport:
    """Decide d-cut existence (d >= 2) for a connected partitioned probe
    instance promised probe (P1+P4)-free; see the module docstring."""
    if d < 2:
        raise UnsupportedD("solve_dcut handles d >= 2; use the matching-cut solvers for d = 1")
    return _DcutSolver(ppg, d).run()


def _matching_cut(
    ppg: PartitionedProbeGraph,
    s: int,
    complete: Callable[[Graph, int, int], Optional[CutCertificate]],
    first: bool,
) -> SolveReport:
    """Branch over the closed neighbourhood of the first seed set and
    complete every leaf with ``complete``; the largest certificate wins, or
    the first one when ``first`` is set."""
    if s < 0:
        raise ValueError("s must be >= 0")
    g = ppg.graph
    if g.n < 2:
        return SolveReport(False, None, 0, ["degenerate"])
    if not is_connected(g):
        raise NotConnected("matching-cut solver needs a connected input")
    seed = next(seed_sets(ppg, s + 4), None)
    if seed is None:
        return SolveReport(False, None, 0, ["no-seed"])
    frontier = 0
    for v in seed:
        frontier |= g.adj_bits[v] | (1 << v)
    best: Optional[CutCertificate] = None
    branches = 0
    for x, y in _branch_leaves(g, 0, 0, frontier, 1):
        branches += 1
        cert = complete(g, x, y)
        if cert and (best is None or cert.size > best.size):
            best = cert
            if first:
                break
    return SolveReport(best is not None, best, branches, [f"seed {sorted(seed)}"])


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
    return _matching_cut(ppg, s, complete_independent_max_cut, first=False)


def solve_pmc(ppg: PartitionedProbeGraph, s: int) -> SolveReport:
    """Perfect matching cut existence for inputs promised probe
    (sP1+P4)-free; same branch scheme as :func:`solve_mmc` with the
    perfect completion, first valid certificate wins."""
    return _matching_cut(ppg, s, complete_independent_perfect, first=True)
