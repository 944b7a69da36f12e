"""Exact-rational Markov and Leontief machinery, classical and relaxed.

The relaxed ("Smarandache") variants keep the same update and solve
rules but lift the sign/sum constraints: transition entries may be
negative with column sums in [-1, 1], exchange matrices may miss the
unit-column-sum law (so equilibria can vanish or multiply), and open
models may have negative demand or consumption entries.  Everything is
Fraction arithmetic; no floats anywhere.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass
from fractions import Fraction

from . import Record, json_form, ratmat
from .ratmat import Matrix, Vector


class TransitionKind(str, enum.Enum):
    CLASSICAL = "classical_markov"
    SMARANDACHE = "smarandache_markov"
    INVALID = "invalid"


@dataclass(frozen=True)
class TransitionClassification(Record):
    kind: TransitionKind
    violations: tuple[str, ...]


def classify_transition(p: Matrix) -> TransitionClassification:
    """Classical: nonnegative with unit column sums.  Smarandache:
    entries and column sums inside [-1, 1] without being classical.
    Anything else is invalid.  Every square matrix gets exactly one kind."""
    dim = len(p)
    if any(len(row) != dim for row in p):
        raise ValueError("transition matrix must be square")
    one = Fraction(1)
    notes = []
    out_of_range = [
        (i, j) for i in range(dim) for j in range(dim) if abs(p[i][j]) > one
    ]
    for i, j in out_of_range:
        notes.append(f"entry ({i},{j}) = {p[i][j]} outside [-1, 1]")
    col_sums = [sum(p[i][j] for i in range(dim)) for j in range(dim)]
    negatives = [(i, j) for i in range(dim) for j in range(dim) if p[i][j] < 0]
    classical = not negatives and all(s == one for s in col_sums)
    if out_of_range:
        return TransitionClassification(TransitionKind.INVALID, tuple(notes))
    if classical:
        return TransitionClassification(TransitionKind.CLASSICAL, ())
    for j, s in enumerate(col_sums):
        if abs(s) > one:
            notes.append(f"column {j} sums to {s}, outside [-1, 1]")
    if notes:
        return TransitionClassification(TransitionKind.INVALID, tuple(notes))
    for i, j in negatives:
        notes.append(f"entry ({i},{j}) = {p[i][j]} negative")
    for j, s in enumerate(col_sums):
        if s != one:
            notes.append(f"column {j} sums to {s} != 1")
    return TransitionClassification(TransitionKind.SMARANDACHE, tuple(notes))


@dataclass(frozen=True)
class StepDiagnostic:
    total: Fraction
    negative_entries: tuple[int, ...]
    inside_unit_interval: bool

    def to_json(self):
        return {
            "sum": json_form(self.total),
            "negative_entries": list(self.negative_entries),
            "inside_unit_interval": self.inside_unit_interval,
        }


@dataclass(frozen=True)
class MarkovTrajectory(Record):
    classification: TransitionClassification
    states: tuple[Vector, ...]  # x^(1) .. x^(steps)
    diagnostics: tuple[StepDiagnostic, ...]


def markov_step(p: Matrix, x0, steps: int) -> MarkovTrajectory:
    """Iterate x -> P x exactly.  A classical matrix applied to a
    probability vector must preserve it (asserted); the relaxed kind
    gets per-step diagnostics instead of guarantees."""
    cls = classify_transition(p)
    if cls.kind is TransitionKind.INVALID:
        raise ValueError(f"not a transition matrix: {'; '.join(cls.violations)}")
    x = ratmat.vec(x0)
    if len(x) != len(p):
        raise ValueError("state dimension does not match the matrix")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    probability_input = all(v >= 0 for v in x) and sum(x) == 1
    states = []
    diags = []
    for _ in range(steps):
        x = ratmat.mat_vec(p, x)
        total = sum(x)
        if cls.kind is TransitionKind.CLASSICAL and probability_input:
            assert total == 1 and all(v >= 0 for v in x), (
                "classical step must preserve probability vectors"
            )
        diags.append(
            StepDiagnostic(
                total=total,
                negative_entries=tuple(i for i, v in enumerate(x) if v < 0),
                inside_unit_interval=all(abs(v) <= 1 for v in x) and abs(total) <= 1,
            )
        )
        states.append(x)
    return MarkovTrajectory(
        classification=cls, states=tuple(states), diagnostics=tuple(diags)
    )


NON_PRODUCTIVE_LABEL = "non-productive or not up to satisfaction"


@dataclass(frozen=True)
class LeontiefSolution(Record):
    model: str                       # "closed" | "open"
    path: str                        # "classical" | "smarandache"
    basis: tuple[Vector, ...] = ()   # closed: nullspace of I - A
    representative: Vector | None = None
    nonnegative_exists: bool | None = None
    unique: bool | None = None
    positive_power: int | None = None
    no_equilibrium: bool = False
    best: Vector | None = None       # closed S-path best-solution policy
    solution: Vector | None = None   # open: x with (I-C)x = d
    productive: bool | None = None
    row_sums_below_one: bool | None = None
    col_sums_below_one: bool | None = None
    label: str | None = None
    warnings: tuple[str, ...] = ()
    singular_nullspace: tuple[Vector, ...] = ()


def _first_positive_power(a: Matrix) -> int | None:
    """The least m with A^m > 0 entrywise, for a nonnegative d x d matrix
    A; None when there is none, which proves A is not primitive: by
    Wielandt's bound a primitive A has A^((d-1)^2+1) > 0.

    For nonnegative A, (A^m)_ij > 0 exactly when a walk of length m runs
    from i to j along positive entries, so only the zero pattern matters:
    each row is a bitmask, and row i of A^(m+1) is the OR of the rows of A
    that row i of A^m selects.
    """
    d = len(a)
    pattern = [sum(1 << j for j, x in enumerate(row) if x > 0) for row in a]
    full = (1 << d) - 1
    power = pattern
    for m in range(1, (d - 1) ** 2 + 2):
        if all(row == full for row in power):
            return m
        power = [_or_of_selected(row, pattern) for row in power]
    return None


def _or_of_selected(mask: int, rows: list[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _best_on_unit_ball(rows, pivots, dim: int) -> Vector:
    """The lexicographically least maximizer of sum(x) over the unit
    1-norm ball of the nullspace W, where rows (with their pivot columns)
    is the reduced row echelon form cutting out W.

    An exact simplex under Bland's rule over x = p - q with p, q >= 0 and
    a slack s: R(p - q) = 0 and sum(p) + sum(q) + s = 1.  It minimizes
    -sum(x), then x_0, ..., x_{dim-1}; after each phase every nonbasic
    column with a positive reduced cost is zero on the optimal face, so it
    leaves, and the next phase starts from the same basis on that face.
    """
    n = 2 * dim + 1  # columns p_0.., q_0.., s; each row ends with its rhs
    tableau = [
        [*row, *(-x for x in row), Fraction(0), Fraction(0)]
        for row in rows[: len(pivots)]
    ]
    # the budget row minus every row of R keeps the pivot columns of p unit columns
    tableau.append([1 - sum((row[j] for row in tableau), Fraction(0)) for j in range(n)]
                   + [Fraction(1)])
    basis = [*pivots, n - 1]
    alive = list(range(n))
    costs = [[-1] * dim + [1] * dim + [0]] + [
        [(j == i) - (j == dim + i) for j in range(n)] for i in range(dim)
    ]
    for cost in costs:
        while True:
            reduced_cost = {
                j: cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, tableau) if cost[b])
                for j in alive
            }
            enter = next((j for j in alive if reduced_cost[j] < 0), None)
            if enter is None:
                alive = [j for j in alive if reduced_cost[j] == 0]
                break
            leave = min(
                (i for i, row in enumerate(tableau) if row[enter] > 0),
                key=lambda i: (tableau[i][-1] / tableau[i][enter], basis[i]),
            )
            pivot_row = tableau[leave] = [x / tableau[leave][enter] for x in tableau[leave]]
            for i, row in enumerate(tableau):
                f = row[enter]
                if i != leave and f:
                    tableau[i] = [x - f * y for x, y in zip(row, pivot_row)]
            basis[leave] = enter
    value = [Fraction(0)] * n
    for b, row in zip(basis, tableau):
        value[b] = row[-1]
    return tuple(value[i] - value[dim + i] for i in range(dim))


def closed_solve(a: Matrix) -> LeontiefSolution:
    """Equilibria of Ap = p: the exact nullspace of I - A.

    Exchange matrices take the classical path (a nonnegative equilibrium
    is reported, uniqueness tied to nullity 1 and a positive power of A:
    positive_power is the least m with A^m > 0, searched up to
    Wielandt's bound (d-1)^2+1, so None proves A is not primitive);
    anything else takes the relaxed path, where no equilibrium may exist
    and multiple independent ones are resolved by the deterministic
    best-solution policy: among the equilibria of 1-norm one, least
    negative mass, then largest sum, then lexicographic order.  With
    norm one the negative mass is (1 - sum)/2, so the policy is the
    exact linear program "maximize the sum over the unit 1-norm ball of
    the nullspace, then take the lexicographically least maximizer",
    whose optima all lie on the unit sphere.
    """
    dim = len(a)
    if dim == 0 or any(len(row) != dim for row in a):
        raise ValueError("closed model needs a nonempty square matrix")
    system = ratmat.sub(ratmat.identity(dim), a)
    reduced, pivots = ratmat.rref(system)
    basis = tuple(ratmat.nullspace_from_rref(reduced, pivots, dim))
    for b in basis:
        assert all(x == 0 for x in ratmat.mat_vec(system, b)), "(I-A)p = 0 must hold"

    if classify_transition(a).kind is TransitionKind.CLASSICAL:
        warnings = []
        representative = None
        nonneg = None
        if len(basis) == 1:
            v = basis[0]
            if all(x <= 0 for x in v):
                v = tuple(-x for x in v)
            nonneg = all(x >= 0 for x in v)
            total = sum(v)
            representative = tuple(x / total for x in v) if total != 0 else v
        else:
            warnings.append(
                f"nullity {len(basis)} > 1: every basis vector reported"
            )
            nonneg = any(
                all(x >= 0 for x in b) and any(x > 0 for x in b) for b in basis
            )
        return LeontiefSolution(
            model="closed",
            path="classical",
            basis=basis,
            representative=representative,
            nonnegative_exists=nonneg,
            unique=len(basis) == 1,
            positive_power=_first_positive_power(a),
            warnings=tuple(warnings),
        )

    if not basis:
        return LeontiefSolution(
            model="closed", path="smarandache", basis=(), no_equilibrium=True
        )

    best = _best_on_unit_ball(reduced, pivots, dim)
    assert all(x == 0 for x in ratmat.mat_vec(system, best)), "(I-A)p = 0 must hold"
    assert sum(abs(x) for x in best) == 1, "the best equilibrium must have 1-norm one"
    return LeontiefSolution(
        model="closed",
        path="smarandache",
        basis=basis,
        best=best,
        unique=len(basis) == 1,
    )


def open_solve(c: Matrix, d) -> LeontiefSolution:
    """Solve (I - C)x = d exactly and judge productivity.

    Productive means (I - C) is invertible with a nonnegative inverse;
    the row-sum and column-sum sufficient conditions are reported
    independently.  Negative entries anywhere push the model onto the
    relaxed path, which labels a negative inverse entry with the
    dedicated wording instead of rejecting the input.
    """
    dim = len(c)
    if any(len(row) != dim for row in c):
        raise ValueError("open model needs a square matrix")
    d = ratmat.vec(d)
    if len(d) != dim:
        raise ValueError("demand dimension does not match the matrix")
    classical = all(x >= 0 for row in c for x in row) and all(x >= 0 for x in d)
    path = "classical" if classical else "smarandache"
    system = ratmat.sub(ratmat.identity(dim), c)
    inv = ratmat.inverse(system)
    row_ok = all(sum(row) < 1 for row in c)
    col_ok = all(sum(c[i][j] for i in range(dim)) < 1 for j in range(dim))
    if inv is None:
        return LeontiefSolution(
            model="open",
            path=path,
            productive=False,
            row_sums_below_one=row_ok,
            col_sums_below_one=col_ok,
            singular_nullspace=tuple(ratmat.nullspace(system)),
            warnings=("I - C is singular",),
        )
    solution = ratmat.mat_vec(inv, d)
    assert ratmat.mat_vec(system, solution) == tuple(d), "(I-C)x = d must hold"
    productive = all(x >= 0 for row in inv for x in row)
    if classical and productive:
        assert all(x >= 0 for x in solution), (
            "productive classical model must give a nonnegative output"
        )
    return LeontiefSolution(
        model="open",
        path=path,
        solution=solution,
        productive=productive,
        row_sums_below_one=row_ok,
        col_sums_below_one=col_ok,
        label=None if productive else NON_PRODUCTIVE_LABEL,
    )


def parse_consumption_csv(text: str) -> tuple[list[str], Matrix]:
    """Header row carries the industry names; the body is a square block
    of rationals ("p/q" or integers)."""
    reader = csv.reader(io.StringIO(text.strip()))
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty CSV")
    names = [cell.strip() for cell in rows[0]]
    body = rows[1:]
    if len(body) != len(names) or any(len(r) != len(names) for r in body):
        raise ValueError("CSV body must be square and match the header size")
    matrix = tuple(
        tuple(ratmat.frac_from_json(cell.strip()) for cell in row) for row in body
    )
    return names, matrix
