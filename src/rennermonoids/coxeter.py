"""Finite Coxeter engine for the unit group of the matrix model.

Lengths come from breadth-first search over the Cayley graph of the simple
reflections, so the same machinery serves every embedding (types A, B, D)
with no per-type inversion formula.  Coset queries are walks and bitmask
tests (bit i for s_i) on integer-indexed tables: w is minimal in w * W_I
iff no right descent of w lies in I (Bjorner-Brenti, GTM 231, 2.4).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator

from .model import PartialInjection, _unchecked


def _mask(I: Iterable[int]) -> int:
    return sum(1 << i for i in set(I))


@lru_cache(maxsize=None)
def _indices(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _descents(step: dict[int, list[int]], length: list[int]) -> list[int]:
    """Per element, the mask of generators whose step shortens it."""
    desc = [0] * len(length)
    for i, col in step.items():
        desc = [d | (length[j] < l) << i for d, j, l in zip(desc, col, length)]
    return desc


class WeylGroup:
    """The group generated by the simple-reflection permutations.

    Elements are total PartialInjection values at the boundary and indices
    0..|W|-1 inside (0 is the identity, then breadth-first order).
    Immutable after construction.
    """

    def __init__(self, gens: dict[int, PartialInjection], degree: int):
        self.degree = degree
        self._s = dict(sorted(gens.items()))
        images = [tuple(range(1, degree + 1))]
        index = {images[0]: 0}
        length, support = [0], [0]
        # s * w has image s(w(j)): pick entries of the padded image of s.
        padded = {i: (0, *s.image) for i, s in self._s.items()}
        left: dict[int, list[int]] = {i: [] for i in self._s}
        for k, w in enumerate(images):
            act = itemgetter(*w)
            for i, s in padded.items():
                v = act(s)
                j = index.get(v)
                if j is None:
                    j = index[v] = len(images)
                    images.append(v)
                    length.append(length[k] + 1)
                    support.append(support[k] | 1 << i)
                left[i].append(j)
        # w * s has image w(s(j)): pick the entries of w at positions s(j).
        right: dict[int, list[int]] = {}
        for i, s in self._s.items():
            act = itemgetter(*(v - 1 for v in s.image))
            right[i] = [index[act(w)] for w in images]
        self.elements: tuple[PartialInjection, ...] = tuple(map(_unchecked, images))
        self._index, self._length, self._support = index, length, support
        self._step = {"left": left, "right": right}
        self._desc = {"left": _descents(left, length), "right": _descents(right, length)}

    @property
    def identity(self) -> PartialInjection:
        return self.elements[0]

    @property
    def s_indices(self) -> tuple[int, ...]:
        return tuple(self._s)

    def s(self, i: int) -> PartialInjection:
        try:
            return self._s[i]
        except KeyError:
            raise ValueError(f"no simple reflection with index {i}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[PartialInjection]:
        return iter(self.elements)

    def __contains__(self, w: object) -> bool:
        return isinstance(w, PartialInjection) and w.image in self._index

    def _at(self, w: PartialInjection) -> int:
        try:
            return self._index[w.image]
        except KeyError:
            raise ValueError(f"not an element of the unit group: {w!r}") from None

    def _side(self, side: str) -> tuple[list[int], dict[int, list[int]]]:
        if side not in self._desc:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self._desc[side], self._step[side]

    def length(self, w: PartialInjection) -> int:
        return self._length[self._at(w)]

    def left_descents(self, w: PartialInjection) -> frozenset[int]:
        return _indices(self._desc["left"][self._at(w)])

    def right_descents(self, w: PartialInjection) -> frozenset[int]:
        return _indices(self._desc["right"][self._at(w)])

    def evaluate(self, word: Iterable[int]) -> PartialInjection:
        """Product of simple reflections, word read left to right."""
        out = self.identity
        for i in word:
            out = out * self.s(i)
        return out

    def reduced_word(self, w: PartialInjection) -> tuple[int, ...]:
        """The fixed reduced word: repeatedly strip the lowest left descent."""
        desc, step = self._desc["left"], self._step["left"]
        k = self._at(w)
        word: list[int] = []
        while ds := desc[k]:
            i = (ds & -ds).bit_length() - 1
            word.append(i)
            k = step[i][k]
        return tuple(word)

    def min_coset_rep(
        self, w: PartialInjection, I: Iterable[int], side: str = "right"
    ) -> PartialInjection:
        """Minimal-length element of w * W_I (side "right") or W_I * w (side "left")."""
        desc, step = self._side(side)
        m = _mask(I)
        k = self._at(w)
        while ds := desc[k] & m:
            k = step[(ds & -ds).bit_length() - 1][k]
        return self.elements[k]

    def double_coset_minima(
        self, J: Iterable[int], I: Iterable[int]
    ) -> frozenset[PartialInjection]:
        """All w minimal in W_J * w * W_I: no left descent in J, no right descent in I.

        Walks right steps from 1 through the elements with no left descent in
        J.  Each such w != 1 steps down to one by deleting a right descent,
        which never adds a left descent, so the walk reaches all of them.
        Then drops those with a right descent in I.
        """
        left, right = self._desc["left"], self._desc["right"]
        mj, mi = _mask(J), _mask(I)
        seen = {0}
        queue = [0]
        for k in queue:
            for col in self._step["right"].values():
                j = col[k]
                if j not in seen and not left[j] & mj:
                    seen.add(j)
                    queue.append(j)
        return frozenset(self.elements[k] for k in queue if not right[k] & mi)

    def coxeter_exponent(self, i: int, j: int) -> int:
        """m(i, j): the order of s_i * s_j, walked on the right-action table."""
        si, sj = self._step["right"][i], self._step["right"][j]
        k, m = sj[si[0]], 1
        while k:
            k, m = sj[si[k]], m + 1
        return m

    def in_parabolic(self, w: PartialInjection, I: Iterable[int]) -> bool:
        """Whether w lies in W_I: whether I holds the letters of a reduced word of w."""
        return not self._support[self._at(w)] & ~_mask(I)

    def parabolic(self, I: Iterable[int]) -> frozenset[PartialInjection]:
        """All elements of the standard parabolic subgroup generated by I."""
        outside = ~_mask(I)
        return frozenset(compress(self.elements, [not m & outside for m in self._support]))

    def parabolic_order(self, I: Iterable[int]) -> int:
        """|W_I|, counted from the support masks without building the subgroup."""
        outside = ~_mask(I)
        return [m & outside for m in self._support].count(0)

    def iter_coset_minima(
        self, I: Iterable[int], side: str = "right"
    ) -> Iterator[PartialInjection]:
        """The w minimal in w * W_I or W_I * w (side "left"), in index order:
        those with no descent on that side in I."""
        desc, _ = self._side(side)
        m = _mask(I)
        return compress(self.elements, [not d & m for d in desc])

    def coset_minima(self, I: Iterable[int], side: str = "right") -> frozenset:
        """All w minimal in w * W_I or W_I * w (side "left"), as a set."""
        return frozenset(self.iter_coset_minima(I, side))
