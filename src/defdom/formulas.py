"""Two-level 3-CNF formulas and their brute-force evaluation.

A formula has existential variables x_1..x_a (ids 1..a), universal
variables y_1..y_b (ids a+1..a+b), and clauses of exactly three literals
over three distinct variables.  The decision question is whether some
assignment of the x variables leaves the conjunction unsatisfiable no
matter how the y variables are set.
"""

from itertools import product
from typing import NamedTuple, Optional

from defdom.errors import InputError

Clause = tuple[int, int, int]
Assignment = tuple[bool, ...]


class _E2Formula(NamedTuple):
    a: int
    b: int
    clauses: tuple[Clause, ...]


class E2Formula(_E2Formula):
    __slots__ = ()

    def __new__(cls, a: int, b: int, clauses: tuple[Clause, ...]):
        if a < 0 or b < 0:
            raise InputError("variable counts must be nonnegative")
        for idx, clause in enumerate(clauses, start=1):
            if len(clause) != 3:
                raise InputError(f"clause {idx} must have exactly 3 literals")
            variables = set()
            for lit in clause:
                if lit == 0:
                    raise InputError(f"clause {idx} contains a zero literal")
                var = abs(lit)
                if var > a + b:
                    raise InputError(f"clause {idx} references unknown variable {var}")
                variables.add(var)
            if len(variables) != 3:
                raise InputError(f"clause {idx} must use three distinct variables")
        return super().__new__(cls, a, b, clauses)

    @property
    def c(self) -> int:
        return len(self.clauses)


def literal_satisfied(lit: int, values: dict[int, bool]) -> bool:
    value = values[abs(lit)]
    return value if lit > 0 else not value


def clause_satisfied(clause: Clause, values: dict[int, bool]) -> bool:
    return any(literal_satisfied(lit, values) for lit in clause)


def formula_satisfied(f: E2Formula, values: dict[int, bool]) -> bool:
    return all(clause_satisfied(cl, values) for cl in f.clauses)


def combine(f: E2Formula, nu: Assignment, mu: Assignment) -> dict[int, bool]:
    """Merge an x-assignment and a y-assignment into one variable map."""
    if len(nu) != f.a or len(mu) != f.b:
        raise InputError("assignment lengths must match variable counts")
    values = {i + 1: v for i, v in enumerate(nu)}
    values.update({f.a + j + 1: v for j, v in enumerate(mu)})
    return values


def satisfying_mu(f: E2Formula, nu: Assignment) -> Optional[Assignment]:
    """First y-assignment (False-first order) satisfying every clause, if any."""
    for mu in product((False, True), repeat=f.b):
        if formula_satisfied(f, combine(f, nu, mu)):
            return mu
    return None


class E2SatResult(NamedTuple):
    verdict: bool
    winning_nu: Optional[Assignment]
    refutations: dict[Assignment, Assignment]  # nu -> satisfying mu (NO case)


def solve_e2sat(f: E2Formula) -> E2SatResult:
    """Brute force over all assignments, False-first, first winner returned.

    The answer is yes when some x-assignment admits no satisfying
    y-assignment; for a no answer, every x-assignment is paired with a
    spot-checkable satisfying y-assignment.
    """
    refutations: dict[Assignment, Assignment] = {}
    for nu in product((False, True), repeat=f.a):
        mu = satisfying_mu(f, nu)
        if mu is None:
            return E2SatResult(True, nu, {})
        refutations[nu] = mu
    return E2SatResult(False, None, refutations)
