"""Finite Coxeter engine for the unit group of the matrix model.

Lengths come from breadth-first search over the Cayley graph of the simple
reflections, so the same machinery serves every embedding (types A, B, D)
with no per-type inversion formula.  The search walks image bytes, taking
s * w by one `bytes.translate` table per generator, and keeps each
element as those bytes alone: a PartialInjection the methods take is
looked up by its bytes, and one they return wraps W's own.  In a Coxeter
group l(s * w) = l(w) +- 1 (Bjorner-Brenti, GTM 231, ch. 1), so each Cayley
edge {w, s * w} joins two breadth-first levels and is computed once, from
its shorter end, which fills both ends' entries; an entry already filled
when the walk reaches w is a left descent of w.  Only the left
action is stored, with each element's inverse: the right side comes
through inversion, as w * s = (s * w^-1)^-1, so the right descents of w
are the left descents of w^-1.  Coset queries, one method each, are walks
and bitmask tests (bit i for s_i) on integer-indexed tables: w is minimal
in w * W_I iff no right descent of w lies in I (Bjorner-Brenti, GTM 231,
2.4), and `min_coset_rep` reduces in W_I * w only.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress, repeat
from typing import Iterable, Iterator

from .model import PartialInjection, _unchecked, byte_table


def _mask(I: Iterable[int]) -> int:
    return sum(1 << i for i in set(I))


class WeylGroup:
    """The group generated by the simple-reflection permutations.

    Elements are PartialInjections at the boundary and indices into
    ``images``, their image bytes, inside (0 is the identity, then
    breadth-first order).  The walk computes s_i * w only where its entry
    is still empty and writes the entries of both ends, so it makes about
    |W| * r / 2 products for r generators; the entries filled before it
    reaches w are w's left descents.  ``order`` is |W|, which sizes the
    tables once.  A generator that is not an involution or a wrong order
    raises ValueError, and an edge inside one level (no Coxeter system)
    RuntimeError.  Descent sets stay internal bitmasks: callers ask
    whether w is minimal in W_I * w as min_coset_rep(w, I) == w, and in
    w * W_I as the same question of w^-1.  Immutable after construction.
    """

    def __init__(self, gens: dict[int, PartialInjection], degree: int, order: int):
        self._s = dict(sorted(gens.items()))
        unit = bytes(range(1, degree + 1))
        left: dict[int, array] = {}
        steps = []
        for i, s in self._s.items():
            table = byte_table(s)
            if s._b.translate(table) != unit:
                raise ValueError(f"simple reflection {i} is not an involution")
            left[i] = array("i", [-1]) * order
            steps.append((1 << i, table, left[i]))
        images = [unit]
        index = {unit: 0}
        length = [0]
        ldesc = []
        for k, w in enumerate(images):
            d = 0
            for bit, table, col in steps:
                if col[k] >= 0:
                    d |= bit
                    continue
                v = w.translate(table)
                j = index.get(v)
                if j is None:
                    j = index[v] = len(images)
                    if j == order:
                        raise ValueError(f"the generators make more than {order} elements")
                    images.append(v)
                    length.append(length[k] + 1)
                elif length[j] == length[k]:
                    raise RuntimeError(
                        f"s{bit.bit_length() - 1} joins two elements of length {length[k]}:"
                        " the generators are not a Coxeter system"
                    )
                col[k] = j
                col[j] = k
            ldesc.append(d)
        if len(images) != order:
            raise ValueError(f"the generators make {len(images)} elements, not {order}")
        self.images, self._index = images, index
        inverses = map(unit.translate, map(bytes.maketrans, images, repeat(unit)))
        self._inv = list(map(index.__getitem__, inverses))
        self._length, self._step = length, left
        self._desc = {"left": ldesc, "right": list(map(ldesc.__getitem__, self._inv))}
        self._desc_counts = Counter(ldesc)

    @property
    def s_indices(self) -> tuple[int, ...]:
        return tuple(self._s)

    def s(self, i: int) -> PartialInjection:
        try:
            return self._s[i]
        except KeyError:
            raise ValueError(f"no simple reflection with index {i}") from None

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[PartialInjection]:
        return map(_unchecked, self.images)

    def __contains__(self, w: object) -> bool:
        return isinstance(w, PartialInjection) and w._b in self._index

    def index(self, w: PartialInjection) -> int:
        """The k with images[k] the image bytes of w."""
        k = self._index.get(w._b)
        if k is None:
            raise ValueError(f"not an element of the unit group: {w!r}")
        return k

    def _side(self, side: str) -> list[int]:
        """The descent masks on that side."""
        if side not in self._desc:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self._desc[side]

    def length(self, w: PartialInjection) -> int:
        return self._length[self.index(w)]

    def reduced_word(self, w: PartialInjection) -> tuple[int, ...]:
        """The fixed reduced word: repeatedly strip the lowest left descent."""
        desc, step = self._desc["left"], self._step
        k = self.index(w)
        word: list[int] = []
        while ds := desc[k]:
            i = (ds & -ds).bit_length() - 1
            word.append(i)
            k = step[i][k]
        return tuple(word)

    def min_coset_rep(self, w: PartialInjection, I: Iterable[int]) -> PartialInjection:
        """Minimal-length element of W_I * w: w with its lowest left descent
        in I stripped until none is left.  The minimum of w * W_I is the
        inverse of the minimum of W_I * w^-1."""
        desc, step, m = self._desc["left"], self._step, _mask(I)
        k = self.index(w)
        while ds := desc[k] & m:
            k = step[(ds & -ds).bit_length() - 1][k]
        return _unchecked(self.images[k])

    def _walk(self, I: Iterable[int], masks: list[int], m: int) -> list[int]:
        """The indices reached from 1 by left steps s_i, i in I, through the
        k with no bit of m in masks[k], in the order reached."""
        I = set(I)
        cols = [col for i, col in self._step.items() if i in I]
        seen = {0}
        queue = [0]
        for k in queue:
            for col in cols:
                j = col[k]
                if j not in seen and not masks[j] & m:
                    seen.add(j)
                    queue.append(j)
        return queue

    def coxeter_exponent(self, i: int, j: int) -> int:
        """m(i, j): the order of s_i * s_j, which is that of its conjugate
        s_j * s_i, walked on the left-action table."""
        si, sj = self._step[i], self._step[j]
        k, m = sj[si[0]], 1
        while k:
            k, m = sj[si[k]], m + 1
        return m

    def parabolic(self, I: Iterable[int]) -> frozenset[PartialInjection]:
        """All elements of the standard parabolic subgroup generated by I,
        walked from 1 by left steps by I: |W_I| elements visited."""
        return frozenset([_unchecked(self.images[k]) for k in self._walk(I, self._desc["left"], 0)])

    def parabolic_order(self, I: Iterable[int]) -> int:
        """|W_I|: |W| over the number of cosets W_I * w, one per w with no left
        descent in I, counted by descent mask without building the subgroup."""
        m = _mask(I)
        return len(self.images) // sum([n for d, n in self._desc_counts.items() if not d & m])

    def coset_minima_images(self, I: Iterable[int], side: str = "right") -> list[bytes]:
        """The image bytes of the w minimal in w * W_I or W_I * w (side
        "left"), in index order: those with no descent on that side in I."""
        m = _mask(I)
        return list(compress(self.images, [not d & m for d in self._side(side)]))
