"""Brute-force reference solvers over the full coevent space.

Everything here works on raw truth tables: 2^n-bit integers with one bit
per event, bit position equal to the event's bitmask.  Each scheme's
reference walks only the preclusive tables (each submask of the
non-precluded events once) and filters them by direct checks of its
definition: predicates pairwise over all event pairs, polynomial
coefficients by independent subset-parity sums rather than the fast
in-place transform, minimality by pairwise comparison, and minimum cover
by a weight-budgeted exhaustive search.  The fast transform only turns
answers into :class:`~coevents.coevent.Coevent` objects, and `table_of`
inverts it from the definition.  The solvers in :mod:`coevents.schemes`
share only the Coevent type with this module, never its algorithms, so
agreement between the two is meaningful evidence.

Guards are hard errors: ``ENUMERATION_GUARD`` = 4 histories (2^16 truth
tables) for full enumeration, ``CLOSURE_GUARD`` = 3 for closure and cover.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .coevent import Coevent
from .events import SampleSpace, _check_guard
from .measure import PreclusionSet

__all__ = [
    'CLOSURE_GUARD',
    'ENUMERATION_GUARD',
    'brute_ideal_closure',
    'brute_linear',
    'brute_min_cover',
    'brute_multiplicative',
    'coevent_from_table',
    'enumerate_coevents',
    'pairwise_linear',
    'pairwise_multiplicative',
    'table_of',
]

ENUMERATION_GUARD = 4
CLOSURE_GUARD = 3


def coevent_from_table(space: SampleSpace, table: int) -> Coevent:
    """Materialise the coevent whose truth table is the integer `table`."""
    return Coevent._from_table(space, table)


def table_of(phi: Coevent) -> int:
    """Truth table of a coevent, one bit per event at the event's bitmask.

    Evaluated from the definition, not by the transform that
    `coevent_from_table` uses: bit a is the parity of the monomials
    contained in the event with bitmask a, so each monomial flips the bit
    of every event containing it.
    """
    full = (1 << phi.space.size) - 1
    table = 0
    for m in phi.masks:
        free = full & ~m
        sub = free
        while True:  # every subset of the histories outside m
            table ^= 1 << (m | sub)
            if not sub:
                break
            sub = (sub - 1) & free
    return table


def enumerate_coevents(space: SampleSpace) -> Iterator[Coevent]:
    """Every coevent exactly once, in ascending truth-table order."""
    _check_guard('oracle', space.size, 'ENUMERATION_GUARD', ENUMERATION_GUARD)
    for table in range(1 << (1 << space.size)):
        yield coevent_from_table(space, table)


def pairwise_multiplicative(table: int, n_events: int) -> bool:
    """φ(AB) = φ(A)φ(B) checked over every event pair."""
    for a in range(n_events):
        bit_a = table >> a & 1
        for b in range(a, n_events):
            if table >> (a & b) & 1 != bit_a & (table >> b & 1):
                return False
    return True


def pairwise_linear(table: int, n_events: int) -> bool:
    """φ(A+B) = φ(A)+φ(B) checked over every event pair."""
    for a in range(n_events):
        bit_a = table >> a & 1
        for b in range(a, n_events):
            if table >> (a ^ b) & 1 != bit_a ^ (table >> b & 1):
                return False
    return True


def _anf_weight(table: int, n_events: int) -> int:
    # complexity from scratch: coefficient of F is the parity of the truth
    # table over the subsets of F, summed with weight |F|
    weight = 0
    for f in range(1, n_events):
        parity = 0
        sub = f
        while True:
            parity ^= table >> sub & 1
            if sub == 0:
                break
            sub = (sub - 1) & f
        if parity:
            weight += f.bit_count()
    # the empty monomial has degree 0 and never contributes to the weight
    return weight


def _preclusive_tables(preclusions: PreclusionSet, name: str, limit: int) -> Iterator[int]:
    # the tables zero on every precluded event: each submask of the
    # non-precluded events once, from all of them down to 0, after the guard
    _check_guard('oracle', preclusions.space.size, name, limit)
    allowed = (1 << (1 << preclusions.space.size)) - 1
    for z in preclusions.masks:
        allowed &= ~(1 << z)
    table = allowed
    while True:
        yield table
        if not table:
            return
        table = (table - 1) & allowed


def _sorted_coevents(space: SampleSpace, tables: Iterable[int]) -> tuple[Coevent, ...]:
    return tuple(sorted((coevent_from_table(space, t) for t in tables), key=str))


def brute_multiplicative(preclusions: PreclusionSet) -> tuple[Coevent, ...]:
    """Reference answer for the multiplicative scheme.

    Filters the preclusive truth tables (never the constant 1: {} is
    always precluded) for: nonzero, multiplicative by the pairwise check,
    and minimal: no other survivor's true set strictly contains its true
    set (for filters, larger true set means smaller monomial).
    """
    n_events = 1 << preclusions.space.size
    tables = _preclusive_tables(preclusions, 'ENUMERATION_GUARD', ENUMERATION_GUARD)
    survivors = [t for t in tables if t and pairwise_multiplicative(t, n_events)]
    minimal = [t for t in survivors
               if not any(o != t and o | t == o for o in survivors)]
    return _sorted_coevents(preclusions.space, minimal)


def brute_linear(preclusions: PreclusionSet) -> tuple[Coevent, ...]:
    """Reference answer for the linear scheme.

    Filters the preclusive truth tables for: nonzero, linear by the
    pairwise check, support-minimal among those, and finally unital.
    """
    n = preclusions.space.size
    n_events = 1 << n
    survivors = []
    for table in _preclusive_tables(preclusions, 'ENUMERATION_GUARD', ENUMERATION_GUARD):
        if table and pairwise_linear(table, n_events):
            support = 0
            for i in range(n):
                support |= (table >> (1 << i) & 1) << i
            survivors.append((table, support))
    minimal = [(t, s) for t, s in survivors
               if not any(o != s and o & s == o for _, o in survivors)]
    unital = [t for t, _ in minimal if t >> (n_events - 1) & 1]
    return _sorted_coevents(preclusions.space, unital)


def brute_ideal_closure(space: SampleSpace,
                        coevents: Iterable[Coevent]) -> frozenset[Coevent]:
    """Smallest set containing `coevents`, closed under pairwise sum and
    under multiplication by every coevent of the space."""
    _check_guard('oracle', space.size, 'CLOSURE_GUARD', CLOSURE_GUARD)
    n_events = 1 << space.size
    closed = {0}
    for phi in coevents:
        if phi.space != space:
            raise ValueError('coevent belongs to a different sample space')
        closed.add(table_of(phi))
    changed = True
    while changed:
        changed = False
        snapshot = list(closed)
        for a in snapshot:
            for b in snapshot:
                s = a ^ b
                if s not in closed:
                    closed.add(s)
                    changed = True
        for a in list(closed):
            for m in range(1 << n_events):
                p = a & m
                if p not in closed:
                    closed.add(p)
                    changed = True
    return frozenset(coevent_from_table(space, t) for t in closed)


def brute_min_cover(preclusions: PreclusionSet) -> tuple[tuple[tuple[Coevent, ...], ...], int | None]:
    """Reference answer for the ideal scheme.

    Exhaustively searches sets of nonzero preclusive truth tables whose
    true sets jointly cover the non-precluded events, by increasing weight
    budget, and returns (all minimum-weight sets, minimum weight).  When
    every event is precluded there is nothing to cover and the result is
    ((), None): infeasible.
    """
    space = preclusions.space
    tables = list(_preclusive_tables(preclusions, 'CLOSURE_GUARD', CLOSURE_GUARD))
    universe = tables[0]
    if universe == 0:
        return ((), None)
    n_events = 1 << space.size
    candidates = sorted((_anf_weight(t, n_events), t) for t in tables if t)

    by_element: dict[int, list[tuple[int, int]]] = {}
    for e in range(n_events):
        if universe >> e & 1:
            by_element[e] = [(w, t) for w, t in candidates if t >> e & 1]
    cheapest = {e: lst[0][0] for e, lst in by_element.items()}
    upper = sum(cheapest.values())

    found: set[frozenset[int]] = set()

    def search(covered: int, budget: int, chosen: tuple[int, ...]) -> None:
        if covered == universe:
            found.add(frozenset(chosen))
            return
        uncovered = universe & ~covered
        element = (uncovered & -uncovered).bit_length() - 1
        for w, t in by_element[element]:
            if w > budget:
                break
            search(covered | t, budget - w, chosen + (t,))

    weight = None
    for budget in range(max(cheapest.values()), upper + 1):
        search(0, budget, ())
        if found:
            weight = budget
            break
    assert weight is not None
    exact = {fs for fs in found
             if sum(_anf_weight(t, n_events) for t in fs) == weight}
    sets_out = sorted(
        (tuple(sorted((coevent_from_table(space, t) for t in fs), key=str))
         for fs in exact),
        key=lambda members: tuple(map(str, members)))
    return tuple(sets_out), weight
