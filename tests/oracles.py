"""Independent reference computations used only by the test suite.

Nothing here touches normal forms, type maps, or coset tables; each oracle
recomputes its answer from first principles so that it can legitimately
check the corresponding engine path.  The one exception is
`brute_normal_decompose`, which reduces its cosets with
`WeylGroup.min_coset_rep`, itself checked against `brute_min_coset`.
"""

import functools
import heapq
import itertools
from math import comb, factorial


def rook_monoid_size(n: int) -> int:
    """Count all n-by-n rook matrices directly: choose rows, columns, matching."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def cheapest_word_costs(engine) -> dict:
    """Minimal word cost per element, reflection letters cost 1, idempotents 0.

    Plain Dijkstra over right multiplication by generators, starting at the
    unit (the empty word).
    """
    gens = [(p, 1 if g.kind == "s" else 0) for g, p in engine.generators.items()]
    dist = {engine.identity: 0}
    counter = itertools.count()
    heap = [(0, next(counter), engine.identity)]
    while heap:
        d, _, x = heapq.heappop(heap)
        if d > dist.get(x, d + 1):
            continue
        for p, c in gens:
            y = x * p
            nd = d + c
            if nd < dist.get(y, nd + 1):
                dist[y] = nd
                heapq.heappush(heap, (nd, next(counter), y))
    return dist


@functools.lru_cache(maxsize=None)
def _subgroup(weyl, gens):
    """W_I by breadth-first closure of the products of its reflections."""
    members = {weyl.identity}
    queue = [weyl.identity]
    for w in queue:
        for i in gens:
            v = weyl.s(i) * w
            if v not in members:
                members.add(v)
                queue.append(v)
    return frozenset(members)


def brute_min_coset(weyl, w, gens, side):
    """Minimal element of w*W_I or W_I*w by enumerating the whole coset.

    Also asserts the minimum is unique, which is what makes the greedy
    reduction in the engine well defined.
    """
    sub = _subgroup(weyl, frozenset(gens))
    coset = {w * h for h in sub} if side == "right" else {h * w for h in sub}
    lengths = sorted(weyl.length(v) for v in coset)
    assert lengths.count(lengths[0]) == 1, "coset minimum is not unique"
    return min(coset, key=weyl.length)


def brute_min_double_coset(weyl, w, left_gens, right_gens):
    """Minimal element of W_J*w*W_I by enumerating the double coset."""
    J = _subgroup(weyl, frozenset(left_gens))
    I = _subgroup(weyl, frozenset(right_gens))
    coset = {a * w * b for a in J for b in I}
    lengths = sorted(weyl.length(v) for v in coset)
    assert lengths.count(lengths[0]) == 1, "double-coset minimum is not unique"
    return min(coset, key=weyl.length)


def brute_coset_minima(weyl, gens, side):
    """The minima of all cosets w*W_I (or W_I*w), one coset at a time."""
    sub = _subgroup(weyl, frozenset(gens))
    seen, minima = set(), set()
    for w in weyl:
        if w not in seen:
            coset = {w * h for h in sub} if side == "right" else {h * w for h in sub}
            seen |= coset
            lengths = sorted(weyl.length(v) for v in coset)
            assert lengths.count(lengths[0]) == 1, "coset minimum is not unique"
            minima.add(min(coset, key=weyl.length))
    return frozenset(minima)


def brute_up_minima(engine, e):
    """Left and right coset minima for the reflections commuting with e,
    kept if they also centralize every idempotent f strictly above e.

    f is above e when e*f = f*e = e; the centralizer of f is W_I for the
    reflections s with s*f = f*s, closed by breadth-first search.
    """
    weyl = engine.weyl
    reflections = [(i, weyl.s(i)) for i in weyl.s_indices]
    commuting = lambda x: frozenset(i for i, s in reflections if s * x == x * s)
    above = [
        _subgroup(weyl, commuting(f.idem))
        for f in engine.lattice.elements
        if f.idem != e.idem and e.idem * f.idem == f.idem * e.idem == e.idem
    ]
    keep = lambda w: all(w in sub for sub in above)
    gens = commuting(e.idem)
    left = brute_coset_minima(weyl, gens, "left")
    right = brute_coset_minima(weyl, gens, "right")
    return frozenset(filter(keep, left)), frozenset(filter(keep, right))


def coxeter_graph_exponents(family, rank):
    """(i, j, m) for every pair i < j of simple reflections, read off the
    Coxeter graph as drawn for each family: A the simply laced chain s_1 ..
    s_{rank-1}; B the chain s_1 .. s_rank with m = 4 on its last edge; D the
    chain s_1 .. s_{rank-1} with s_rank joined to s_{rank-2}.  Non-edges get 2.
    """
    k = rank - 1 if family == "A" else rank
    out = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        m = 2
        if family == "D" and j == rank:
            m = 3 if i == rank - 2 else 2
        elif j == i + 1:
            m = 4 if family == "B" and j == rank else 3
        out.append((i, j, m))
    return out


def all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


@functools.lru_cache(maxsize=None)
def _conjugator(engine, dom):
    """A lattice element e and a unit w with w(dom) = dom(e), by scanning W."""
    for e in engine.lattice.elements:
        target = set(e.idem.domain())
        for w in engine.weyl:
            if {w(j) for j in dom} == target:
                return e, w
    raise AssertionError(f"domain {dom} is conjugate to no lattice element")


def brute_normal_decompose(engine, x):
    """The normal form (w1, e, w2) of x by scanning W, or None if no unit
    extends x.

    With ext a unit extending x and w a unit carrying dom(x) onto dom(e),
    x = ext * w2^-1 * e * w2 for every w2 in W_C * w, C the reflections
    commuting with e; w2 is its minimum, and w1 the minimum of
    ext * w2^-1 * W_A, A the reflections absorbed by e.
    """
    weyl = engine.weyl
    dom = x.domain()
    ext = next((w for w in weyl if all(w(j) == x(j) for j in dom)), None)
    if ext is None:
        return None
    e, w = _conjugator(engine, dom)
    commuting = [i for i in weyl.s_indices if weyl.s(i) * e.idem == e.idem * weyl.s(i)]
    absorbing = [i for i in commuting if weyl.s(i) * e.idem == e.idem]
    w2 = weyl.min_coset_rep(w, commuting, "left")
    w1 = weyl.min_coset_rep(ext * w2.inverse(), absorbing, "right")
    return w1, e, w2
