import itertools

import pytest

from reference_algebra import table_from_operation
from smaralg.semigroup import validate_table


@pytest.fixture(scope="session")
def t2_table():
    """Full transformation monoid on {1,2}: id, swap, const1, const2."""
    funcs = [(1, 2), (2, 1), (1, 1), (2, 2)]

    def compose(f, g):
        return tuple(f[g[x - 1] - 1] for x in (1, 2))

    return table_from_operation(funcs, compose)


@pytest.fixture(scope="session")
def s3_perms():
    return sorted(itertools.permutations(range(3)))


@pytest.fixture(scope="session")
def s3_table(s3_perms):
    def compose(f, g):
        return tuple(f[g[i]] for i in range(3))

    return table_from_operation(s3_perms, compose)


@pytest.fixture(scope="session")
def z3_table():
    return validate_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


@pytest.fixture(scope="session")
def z4_table():
    return validate_table([[(i + j) % 4 for j in range(4)] for i in range(4)])
