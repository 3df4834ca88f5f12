import functools

import pytest

from rennermonoids import RennerMonoid


@functools.lru_cache(maxsize=None)
def build_engine(family: str, rank: int) -> RennerMonoid:
    return RennerMonoid(family, rank)


@functools.lru_cache(maxsize=None)
def enumerate_elements(family: str, rank: int) -> tuple:
    return build_engine(family, rank).elements()


@pytest.fixture(scope="session")
def engine():
    """Memoized engine factory shared by the whole suite."""
    return build_engine


@pytest.fixture(scope="session")
def elements():
    """Memoized element lists by (family, rank); the engine itself
    enumerates afresh on every call."""
    return enumerate_elements
