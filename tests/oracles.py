"""Independent reference computations used only by the test suite.

Nothing here touches normal forms, type maps, or coset tables; each oracle
recomputes its answer from first principles so that it can legitimately
check the corresponding engine path.  There are three exceptions.
`brute_normal_decompose` reduces its cosets with `WeylGroup.min_coset_rep`,
itself checked against `brute_min_coset`.  `product_multiply` decomposes
with the engine, so it checks only how `RennerMonoid.multiply` composes,
against the `PartialInjection` product of the two `value`s.
`conjugation_table` reduces its domains' conjugators with
`min_coset_rep` too, and reads the coset minima behind its left-factor
tables off `WeylGroup.coset_minima_images`, in its index order.
`coset_minima` is no oracle: it wraps those minima, which are checked
against `brute_coset_minima`, for the tests that read them as elements; a
right-side minimum is the inverse of `min_coset_rep` of the inverse, as
`brute_min_coset` checks on both sides.  `relation_sort_key` checks
order, not content: it reads each relation back.  `up_intersection_words`
re-derives the `typemap` words pair by pair from `brute_up_minima`, and
`join_domains` is no oracle either: it regroups `RennerMonoid.joins` by
pair for the tests that check it.  `byte_closure` acts by `byte_table`s,
themselves checked against `PartialInjection` products, so it checks only
what `enumerate_monoid` skips; `_subgroup`, the parabolic subgroup behind
the brute-force coset minima, closes its reflections by `byte_table`s too.
"""

import functools
import heapq
import itertools
import operator
from collections import deque
from math import comb, factorial

from rennermonoids import PartialInjection, build_generators
from rennermonoids.model import _unchecked, byte_table


def rook_monoid_size(n: int) -> int:
    """Count all n-by-n rook matrices directly: choose rows, columns, matching."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def weyl_order(family: str, rank: int) -> int:
    """Order of the unit group in closed form: n!, 2^n n! or 2^(n-1) n! at rank n."""
    return factorial(rank) << {"A": 0, "B": rank, "D": rank - 1}[family]


def image_bytes(x):
    """The image of x as bytes, 0 where undefined."""
    return bytes([v or 0 for v in x.image])


def product_closure(fam):
    """Breadth-first closure of the generators under `PartialInjection`
    products, unit included, in insertion order: the reference for
    `enumerate_monoid`, which walks the same closure on byte-encoded inverses."""
    gens = list(build_generators(fam).values())
    unit = PartialInjection.identity(fam.degree)
    seen = {unit: None}
    queue = deque([unit])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = x * g
            if y not in seen:
                seen[y] = None
                queue.append(y)
    return list(seen)


def byte_closure(fam):
    """Breadth-first closure of the generators on the image bytes of
    inverses, every element times every generator: the full search that
    `enumerate_monoid` prunes, as the list of its keys in insertion order."""
    tables = [byte_table(g.inverse()) for g in build_generators(fam).values()]
    unit = bytes(range(1, fam.degree + 1))
    seen = {unit: None}
    queue = deque([unit])
    while queue:
        inverse = queue.popleft()
        for table in tables:
            y = inverse.translate(table)
            if y not in seen:
                seen[y] = None
                queue.append(y)
    return list(seen)


def reflection_product(weyl, word):
    """Product of the simple reflections s_i, i in ``word``, read left to
    right: a fold of `PartialInjection` products, the reference for
    `WeylGroup.reduced_word`."""
    return functools.reduce(operator.mul, (weyl.s(i) for i in word), weyl.identity)


def tuple_weyl_tables(gens, degree):
    """`WeylGroup`'s tables built on image tuples, the reference for its
    byte-translate construction: a left BFS that picks each s * w from the
    padded image of s by `itemgetter`, right steps w * s picked from each w
    at the positions s(j), and descent masks read off both step tables.

    Returns the elements, the tuple index, lengths, supports, the step
    tables and the descent masks, each as `WeylGroup` stores or derives it
    (it stores the left steps and derives the right ones through inverses).
    """
    gens = dict(sorted(gens.items()))
    images = [tuple(range(1, degree + 1))]
    index = {images[0]: 0}
    length, support = [0], [0]
    padded = {i: (0, *s.image) for i, s in gens.items()}
    left = {i: [] for i in gens}
    for k, w in enumerate(images):
        act = operator.itemgetter(*w)
        for i, s in padded.items():
            v = act(s)
            j = index.get(v)
            if j is None:
                j = index[v] = len(images)
                images.append(v)
                length.append(length[k] + 1)
                support.append(support[k] | 1 << i)
            left[i].append(j)
    right = {}
    for i, s in gens.items():
        act = operator.itemgetter(*(v - 1 for v in s.image))
        right[i] = [index[act(w)] for w in images]
    step = {"left": left, "right": right}
    desc = {
        side: [
            sum(1 << i for i, col in table.items() if length[col[k]] < length[k])
            for k in range(len(images))
        ]
        for side, table in step.items()
    }
    return {
        "elements": tuple(PartialInjection(w) for w in images),
        "index": index,
        "length": length,
        "support": support,
        "step": step,
        "desc": desc,
    }


def cheapest_word_costs(engine) -> dict:
    """Minimal word cost per element, reflection letters cost 1, idempotents 0.

    Plain Dijkstra over right multiplication by generators, starting at the
    unit (the empty word).
    """
    gens = [(p, 1 if g.kind == "s" else 0) for g, p in engine.generators.items()]
    dist = {engine.weyl.identity: 0}
    counter = itertools.count()
    heap = [(0, next(counter), engine.weyl.identity)]
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


def word_costs_01(fam) -> dict:
    """Minimal word cost per element, as its image bytes (0 where undefined):
    reflection letters cost 1, idempotents 0.

    0-1 breadth-first search from the unit over left multiplication by
    generators, which reaches every word from its right end and so gives the
    same costs as right multiplication.  A free letter's product goes to the
    front of the deque and a reflection's to the back.  Each generator acts
    by its own 256-byte translate table, built here from its image.
    """
    moves = [
        (bytes([0, *[v or 0 for v in p.image]]).ljust(256, b"\0"), g.kind == "s")
        for g, p in build_generators(fam).items()
    ]
    unit = bytes(range(1, fam.degree + 1))
    dist = {unit: 0}
    queue = deque([(0, unit)])
    while queue:
        d, x = queue.popleft()
        if d > dist[x]:
            continue
        for table, costly in moves:
            y, nd = x.translate(table), d + costly
            if nd < dist.get(y, nd + 1):
                dist[y] = nd
                if costly:
                    queue.append((nd, y))
                else:
                    queue.appendleft((nd, y))
    return dist


@functools.lru_cache(maxsize=None)
def _subgroup(weyl, gens):
    """W_I by breadth-first closure of the products of its reflections, on
    image bytes: s_i * w is the bytes of w translated by the table of s_i."""
    tables = [byte_table(weyl.s(i)) for i in gens]
    unit = bytes(weyl.identity.image)
    members, queue = {unit}, [unit]
    for w in queue:
        for table in tables:
            v = w.translate(table)
            if v not in members:
                members.add(v)
                queue.append(v)
    return frozenset(_unchecked(w) for w in members)


def descents(weyl, w, side):
    """The i with l(s_i * w) < l(w) (side "left") or l(w * s_i) < l(w)
    (side "right"), from `PartialInjection` products and lengths."""
    lw = weyl.length(w)
    step = (lambda s: s * w) if side == "left" else (lambda s: w * s)
    return frozenset(i for i in weyl.s_indices if weyl.length(step(weyl.s(i))) < lw)


def brute_min_coset(weyl, w, gens, side):
    """Minimal element of w*W_I or W_I*w by enumerating the whole coset.

    Also asserts the minimum is unique, which is what makes the greedy
    reduction in the engine well defined.
    """
    sub = _subgroup(weyl, frozenset(gens))
    coset = [w * h for h in sub] if side == "right" else [h * w for h in sub]
    lengths = [weyl.length(v) for v in coset]
    least = min(lengths)
    assert lengths.count(least) == 1, "coset minimum is not unique"
    return coset[lengths.index(least)]


def brute_double_coset_minima(weyl, left_gens, right_gens):
    """The minimal element of each double coset W_J*w*W_I, every double
    coset enumerated as the products of its two subgroups' elements."""
    J = _subgroup(weyl, frozenset(left_gens))
    I = _subgroup(weyl, frozenset(right_gens))
    seen, minima = set(), set()
    for w in weyl:
        if w not in seen:
            coset = {a * w * b for a in J for b in I}
            seen |= coset
            lengths = sorted(weyl.length(v) for v in coset)
            assert lengths.count(lengths[0]) == 1, "double-coset minimum is not unique"
            minima.add(min(coset, key=weyl.length))
    return frozenset(minima)


def coset_minima(weyl, gens, side="right"):
    """`WeylGroup.coset_minima_images` as a frozenset of `PartialInjection`s:
    the minima of the cosets w*W_I (or W_I*w, side "left")."""
    return frozenset(map(_unchecked, weyl.coset_minima_images(gens, side)))


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
    w2 = weyl.min_coset_rep(w, commuting)
    w1 = weyl.min_coset_rep((ext * w2.inverse()).inverse(), absorbing).inverse()
    return w1, e, w2


def conjugation_table(engine):
    """`RennerMonoid`'s conjugation table walked on `PartialInjection`
    products, the reference for the engine's walk on W's indices.

    Per lattice element e, in lattice order: a breadth-first walk of the
    domains u(dom e), from u = 1 by left products with the simple
    reflections, each domain kept as first popped.  Each maps its mask
    (1 on the domain, 0 elsewhere), in the order walked, to e, the image
    bytes of w2, the minimum of W_C * u^-1 with C the reflections commuting
    with e, those of e * w2, and e's left-factor table (None at the unit):
    the values on dom(e), point by point, of each w1 minimal in w1 * W_A,
    A the reflections e absorbs, -> w1's image bytes.
    """
    weyl, n = engine.weyl, engine.fam.degree
    reflections = [weyl.s(i) for i in weyl.s_indices]
    table = {}
    for e in engine.lattice.elements:
        dom = e.idem.domain()
        commuting = [i for i in weyl.s_indices if weyl.s(i) * e.idem == e.idem * weyl.s(i)]
        absorbing = [i for i in commuting if weyl.s(i) * e.idem == e.idem]
        left = None
        if e.name is not None:
            minima = map(_unchecked, weyl.coset_minima_images(absorbing))
            left = {bytes([w(j) for j in dom]): w._b for w in minima}
        orbit = {}
        queue = [(dom, weyl.identity, weyl.identity)]
        for d, s, u in queue:
            if d in orbit:
                continue
            u = s * u
            w2 = weyl.min_coset_rep(u.inverse(), commuting)
            assert tuple(map(w2.inverse(), dom)) == d, "w2^-1 does not carry dom(e) in order"
            orbit[d] = (e, w2._b, (e.idem * w2)._b, left)
            queue += [(tuple(sorted(map(s, d))), s, u) for s in reflections]
        for d, entry in orbit.items():
            table[bytes([j in d for j in range(1, n + 1)])] = entry
    return table


def value(nf):
    """The element w1 * e * w2 of a normal form, by `PartialInjection` products."""
    return nf.w1 * nf.e.idem * nf.w2


def product_multiply(engine, a, b):
    """The normal form of a * b: the product of the two values, decomposed."""
    return engine.normal_decompose(value(a) * value(b))


def by_token(lat, token):
    """The element of the lattice ``lat`` named ``token``, "1" for the unit."""
    for e in lat.elements:
        if e.token == token:
            return e
    raise ValueError(f"no lattice element named {token!r}")


def join_domains(engine, reduced=False):
    """`RennerMonoid.joins` regrouped by pair, for the tests that read it:
    (e.token, f.token) -> {w: h} over every pair of nonunit lattice elements,
    only the upward w if ``reduced``; w is rebuilt from its word by
    `reflection_product`, and no pair yields a w twice."""
    lat = engine.lattice
    pairs = {(e.token, f.token): {} for e in lat.nonunit for f in lat.nonunit}
    for e, word, f, h, upward in engine.joins():
        if upward or not reduced:
            domain = pairs[e.token, f.token]
            w = reflection_product(engine.weyl, word)
            assert w not in domain, (e.token, word, f.token)
            domain[w] = h
    return pairs


def relation_sort_key(engine):
    """The order of a presentation's relations, read back from each one: by
    tag, COX1 by index, COX2 by its pair, TYM1 and TYM2 by the idempotent's
    position in the lattice and then the reflection, TYM3 by the positions
    of its outer idempotents and then its middle word; ties by letters."""
    position = {e.token: k for k, e in enumerate(engine.lattice.elements)}
    tags = ["COX1", "COX2", "TYM1", "TYM2", "TYM3"]

    def key(rel):
        tag_rank = tags.index(rel.tag)
        lhs_form = tuple((g.kind, g.index) for g in rel.lhs)
        if rel.tag == "COX1":
            return (tag_rank, rel.lhs[0].index)
        if rel.tag == "COX2":
            pair = sorted({g.index for g in rel.lhs})
            return (tag_rank, pair[0], pair[-1], lhs_form)
        if rel.tag in ("TYM1", "TYM2"):
            e = next(g for g in rel.lhs if g.kind != "s")
            s = next(g for g in rel.lhs if g.kind == "s")
            return (tag_rank, position[str(e)], s.index, lhs_form)
        mid = tuple(g.index for g in rel.lhs[1:-1])
        ends = (position[str(rel.lhs[0])], position[str(rel.lhs[-1])])
        return (tag_rank, *ends, len(mid), mid, lhs_form)

    return key


def up_intersection_words(engine):
    """`renner typemap`'s up-intersections derived pair by pair: for e, then
    f, over the nonunit lattice elements, the reduced words of the w in
    both e's left and f's right `brute_up_minima`, sorted by (length, word)."""
    weyl, lat = engine.weyl, engine.lattice
    up = {e.token: brute_up_minima(engine, e) for e in lat.nonunit}
    pairs = []
    for e in lat.nonunit:
        for f in lat.nonunit:
            words = sorted(
                (weyl.reduced_word(w) for w in up[e.token][0] & up[f.token][1]),
                key=lambda w: (len(w), w),
            )
            text = [" ".join(f"s{i}" for i in w) or "1" for w in words]
            pairs.append({"e": e.token, "f": f.token, "words": text})
    return pairs
