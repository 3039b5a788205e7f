"""Solvers for the three coevent schemes over a preclusion set.

Every scheme asks for the coevents that map each precluded event to 0
while satisfying structural axioms; the answers are collected (by
``_answer`` outside the ideal scheme) in a :class:`SchemeResult` whose
coevents are the admitted "possible realities".

multiplicative
    Monomial coevents F* with F contained in no precluded event, F minimal.
    Equivalently, F must intersect the complement of every precluded event,
    so the answers are the inclusion-minimal transversals of those
    complements.  They are enumerated by MMCS (Murakami & Uno, "Efficient
    algorithms for dualizing large-scale hypergraphs", 2014): a depth-first
    search that branches on the uncovered edge with the fewest candidates
    and keeps, for every chosen history, the edges it alone hits; a history
    whose addition would leave some member without such a critical edge is
    never added, so every leaf is a minimal transversal and each is reached
    once.  If the whole space is precluded the empty edge admits nothing
    and the result is reported empty rather than raising.  No bound on the
    number of answers is known before the search, so it counts them and
    raises :class:`GuardError` at 16,385, past 2^``MEASURE_GUARD`` = 16,384.

linear
    Sums of classical coevents.  Preclusivity means every precluded event
    shares an even number of members with the support, a GF(2) linear
    system.  The nonzero solutions of inclusion-minimal support are
    computed first and the unital ones (odd support) are kept; judging
    minimality among the unital solutions alone would admit the same
    coevents, since the solutions form a subspace.  Histories whose
    columns over the precluded events are equal are interchangeable, so a
    minimal support is a single history of zero column, two histories of
    one column class, or a minimal solution of the reduced system (one
    position per distinct nonzero column) with one member chosen per
    class.  One echelon pass over the m distinct nonzero columns, each
    tagged with its position bit, yields the rank and a basis of the
    reduced system's 2^(m - rank) solutions; each is walked and tested
    for minimality by the rank criterion for minimal codewords (Ashikhmin
    & Barg, "Minimal vectors in linear codes", 1998): its columns have
    rank one less than its size.  ``NULLSPACE_GUARD`` = 20 bounds the
    nullity of the unreduced system, checked before the walk.

ideal
    A set of preclusive coevents generating, as a ring ideal, all
    preclusive coevents, with minimal total complexity (sum of monomial
    degrees over all members).  A set generates the whole preclusive ideal
    exactly when the true sets of its members jointly cover every
    non-precluded event, so the search is an exact weighted set cover over
    all preclusive coevents, ordered by complexity and pruned with an
    admissible bound.  Candidate c, for each nonzero subset c of the k
    non-precluded events, is the truth table true on that subset.  The
    subset-parity transform is linear over GF(2), so every candidate is
    weighed at once: the coefficient of a monomial across all candidates
    is one 2^k-bit column, and the columns are summed by ripple carry into
    a few bit planes of complexities, whose weight classes also give the
    bound: a list, built once, pairs each weight with the elements held by
    candidates no heavier.  A class is scanned by descending truth table;
    as no candidate weighs 0, the order within a class moves only the
    search's node count.  Truth tables (one 2^n-bit integer each) are
    built only for the weight classes the search reaches: a few hundred
    of up to 32,767 candidates at n = 4.  A table is linear in c, so each
    joins two half-table entries, for the low k // 2 bits of c and the rest.
    Polynomials as monomial sets are built, and rendered once, only for the
    members of optimal sets.  All minimum-weight generating sets are found;
    the unital members form the result and the full sets are reported
    alongside, with a flag listing any non-precluded events the unital
    members fail to cover (the complement of the union of their truth
    tables).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import product
from math import prod

from . import measure
from .coevent import Coevent, _lacking, monomial
from .events import Event, _check_guard, _Record, bit_indices, canonical_key
from .measure import PreclusionSet

__all__ = [
    'ALWAYS_FALSE',
    'ALWAYS_TRUE',
    'CONTINGENT',
    'IDEAL_SEARCH_GUARD',
    'NULLSPACE_GUARD',
    'SchemeResult',
    'VACUOUS',
    'ideal_generator',
    'ideal_scheme',
    'infer',
    'linear_scheme',
    'multiplicative_scheme',
]

IDEAL_SEARCH_GUARD = 4   # the cover search ranges over up to 2^(2^n - 1) candidates
NULLSPACE_GUARD = 20     # caps the nullity, and with it the linear scheme's reduced walk

ALWAYS_TRUE = 'always-true'
ALWAYS_FALSE = 'always-false'
CONTINGENT = 'contingent'
VACUOUS = 'vacuous'

class SchemeResult(_Record):
    """Outcome of one scheme solve.

    `coevents` holds the admitted coevents in canonical text order; empty
    means no viable coevent.  For the ideal scheme `generating_sets` lists
    every minimum-complexity generating set (usually one), `total_complexity`
    is that minimum (None when everything is precluded), and
    `uncovered_by_unital` lists the non-precluded events not covered by any
    unital member.  `diagnostics` carries deterministic search counters (not
    compared); wall time is kept out of it so rendered output is reproducible.  For
    the multiplicative scheme `candidates_examined` counts the nodes of the
    MMCS search; for the linear scheme `solutions_examined` counts the
    nonzero solutions of the reduced system, 2^(m - rank) - 1, and
    `minimal_supports` the minimal supports of the full system, odd and
    even.
    """

    _uncompared = ('diagnostics',)

    def __init__(self, scheme: str, coevents: tuple[Coevent, ...],
                 total_complexity: int | None = None,
                 generating_sets: tuple[tuple[Coevent, ...], ...] | None = None,
                 uncovered_by_unital: tuple[Event, ...] = (),
                 diagnostics: Mapping[str, int] | None = None):
        vars(self).update(scheme=scheme, coevents=coevents, total_complexity=total_complexity,
                          generating_sets=generating_sets, uncovered_by_unital=uncovered_by_unital,
                          diagnostics={} if diagnostics is None else diagnostics)

    @property
    def is_viable(self) -> bool:
        return bool(self.coevents)

    @property
    def unique(self) -> bool:
        """At most one minimum generating set; always True outside the ideal scheme."""
        return self.generating_sets is None or len(self.generating_sets) <= 1


def _answer(scheme: str, preclusions: PreclusionSet, coevents: Iterable[Coevent],
            **diagnostics: int) -> SchemeResult:
    """The result admitting the distinct `coevents`, in text order."""
    ordered = tuple(sorted(set(coevents), key=str))
    assert all(phi.is_preclusive(preclusions) for phi in ordered)
    return SchemeResult(scheme, ordered, sum(phi.complexity for phi in ordered),
                        diagnostics=diagnostics)


def _echelon(vectors: Iterable[int]) -> dict[int, int]:
    """GF(2) echelon basis of bitmask vectors, keyed by leading bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return basis


def _transpose(rows: Sequence[int], n: int) -> list[int]:
    """For each of n bit positions, the bitmask of the indices of the rows holding it."""
    # one digit string per column, last row first; the zero row keeps n columns for no rows
    lines = ['0' * n, *(format(row, f'0{n}b') for row in reversed(rows))]
    return [int(''.join(digits), 2) for digits in zip(*lines)][::-1]


def multiplicative_scheme(preclusions: PreclusionSet) -> SchemeResult:
    """Minimal monomial coevents contained in no precluded event."""
    space = preclusions.space
    full = (1 << space.size) - 1
    edges = sorted({full & ~z for z in preclusions.masks},
                   key=lambda e: (e.bit_count(), e))
    occurs = _transpose(edges, space.size)  # occurs[v]: the edges holding history v
    transversals: list[int] = []
    nodes, cap = 0, 1 << measure.MEASURE_GUARD

    def search(chosen: int, cand: int, uncovered: int,
               crit: dict[int, int]) -> None:
        # crit[u]: the edges that u alone of `chosen` hits
        nonlocal nodes
        nodes += 1
        if not uncovered:
            transversals.append(chosen)
            _check_guard('multiplicative scheme', len(transversals), '2^MEASURE_GUARD', cap,
                         '{} minimal transversals')
            return
        branch = min((edges[k] & cand for k in bit_indices(uncovered)),
                     key=int.bit_count)
        cand &= ~branch
        for v in bit_indices(branch):
            hits = occurs[v]
            narrowed = {u: c & ~hits for u, c in crit.items()}
            if all(narrowed.values()):  # every member keeps a critical edge
                narrowed[v] = uncovered & hits
                search(chosen | 1 << v, cand, uncovered & ~hits, narrowed)
            cand |= 1 << v

    search(0, full, (1 << len(edges)) - 1, {})
    for t in transversals:
        # each member is the only member of t in some edge, so t is minimal
        once = twice = 0
        for v in bit_indices(t):
            twice |= once & occurs[v]
            once |= occurs[v]
        assert all(occurs[v] & once & ~twice for v in bit_indices(t))
    return _answer('multiplicative', preclusions,
                   (monomial(Event(space, t)) for t in transversals),
                   edges=len(edges), candidates_examined=nodes,
                   transversals=len(transversals))


def linear_scheme(preclusions: PreclusionSet) -> SchemeResult:
    """Unital sums of classical coevents with minimal support."""
    space = preclusions.space
    n = space.size

    # histories with equal columns over the precluded events are interchangeable
    classes: dict[int, list[int]] = {}
    for j, column in enumerate(_transpose(sorted(preclusions.masks), n)):
        classes.setdefault(column, []).append(j)
    zero_column = classes.pop(0, [])
    columns = sorted(classes)
    m = len(columns)
    # tagged with its position bit below bit m, each distinct column reduces
    # to a new leading bit at or above m (the rank) or to tags alone: those
    # are solutions of the reduced system, and together a basis of them
    echelon = _echelon(c << m | 1 << k for k, c in enumerate(columns))
    basis = [v for top, v in echelon.items() if top < m]
    nullity = n - (len(echelon) - len(basis))
    _check_guard('linear scheme', nullity, 'NULLSPACE_GUARD', NULLSPACE_GUARD,
                 'nullspace dimension {}')

    reduced_minimal: list[int] = []
    solution = 0
    for i in range(1, 1 << len(basis)):  # Gray-code walk over the nonzero solutions
        solution ^= basis[(i & -i).bit_length() - 1]
        # minimal codeword: its columns have rank one less than its size
        rank = len(_echelon(columns[k] for k in bit_indices(solution)))
        if rank == solution.bit_count() - 1:
            reduced_minimal.append(solution)

    def expansions(t: int) -> int:  # supports the reduced solution t stands for
        return prod(len(classes[columns[k]]) for k in bit_indices(t))

    # minimal among the odd solutions is the same as odd and minimal: an odd
    # S strictly containing an even solution T also contains the odd S + T
    odd_minimal = [t for t in reduced_minimal if t.bit_count() & 1]
    # a minimal support is a zero column, a same-class pair or a reduced one expanded
    minimal_count = (len(zero_column) + sum(map(expansions, reduced_minimal))
                     + sum(len(c) * (len(c) - 1) // 2 for c in classes.values()))
    chosen = [1 << j for j in zero_column]
    for t in odd_minimal:
        for members in product(*(classes[columns[k]] for k in bit_indices(t))):
            chosen.append(sum(1 << j for j in members))

    for s in chosen:  # minimal; _answer checks the even overlaps
        assert len(_echelon(z & s for z in preclusions.masks)) == s.bit_count() - 1
    return _answer('linear', preclusions,
                   (Coevent._raw(space, frozenset(1 << i for i in bit_indices(s)))
                    for s in chosen),
                   nullspace_dimension=nullity,
                   solutions_examined=(1 << len(basis)) - 1,
                   minimal_supports=minimal_count)


def _universe(preclusions: PreclusionSet) -> int:
    """Truth-table mask of the non-precluded events."""
    universe = (1 << (1 << preclusions.space.size)) - 1
    for z in preclusions.masks:
        universe ^= 1 << z
    return universe


def ideal_generator(preclusions: PreclusionSet) -> Coevent:
    """Indicator of the non-precluded events, as a coevent.

    Principal generator of the preclusive ideal: ψ is preclusive iff
    ψ·g = ψ pointwise.  Zero exactly when everything is precluded.
    """
    return Coevent._from_table(preclusions.space, _universe(preclusions))


def _weight_classes(elements: list[int], n: int) -> list[tuple[int, int]]:
    """Every nonzero truth table inside `elements`, grouped by complexity.

    Candidate c, for 0 < c < 2^k with k = len(elements), is the table true
    on elements[j] for each set bit j of c.  The transform is linear over
    GF(2), so the coefficient of monomial F across all candidates is one
    2^k-bit column: the XOR of the columns of the elements inside F, found
    for every F by an n-step subset sum.  Each column is added |F| times,
    by ripple carry, into bit planes of the candidates' complexities, and
    the planes split the candidates into classes.  Returns the nonempty
    (weight, candidate mask) pairs in ascending weight.
    """
    everything = (1 << (1 << len(elements))) - 1
    column = [0] * (1 << n)
    for e, lacking in zip(elements, _lacking(len(elements))):
        column[e] = everything ^ lacking  # the candidates true on e
    for i in range(n):
        for f in range(1 << n):
            if f >> i & 1:
                column[f] ^= column[f ^ 1 << i]
    # no complexity exceeds n 2^(n - 1), the sum over all monomials
    planes = [0] * (n << n - 1).bit_length()
    for f in range(1, 1 << n):
        for b in bit_indices(f.bit_count()):
            carry = column[f]
            while carry:  # ripple carry upward from plane b
                planes[b], carry = planes[b] ^ carry, planes[b] & carry
                b += 1
    classes = [(0, everything ^ 1)]  # candidate 0 is the zero table
    for b, plane in enumerate(planes):
        classes = [(w | bit << b, part) for w, mask in classes
                   for bit, part in ((0, mask & ~plane), (1, mask & plane)) if part]
    return sorted(classes)


def ideal_scheme(preclusions: PreclusionSet) -> SchemeResult:
    """Minimum-total-complexity generating sets of the preclusive ideal."""
    space = preclusions.space
    n = space.size
    _check_guard('ideal search', n, 'IDEAL_SEARCH_GUARD', IDEAL_SEARCH_GUARD)
    universe = _universe(preclusions)

    # candidates: every nonzero preclusive coevent, i.e. every nonzero truth
    # table inside the universe, scanned by complexity and then by descending
    # table.  All are weighed at once; a weight class becomes truth tables
    # only when the scan first reaches it.
    elements = list(bit_indices(universe))
    k = len(elements)
    classes = _weight_classes(elements, n)
    # (w, the elements some candidate of weight <= w holds), ascending
    reach: list[tuple[int, int]] = []
    reached = 0
    for w, mask in classes:
        if reached != universe:
            reached |= sum(1 << e for e, lacking in zip(elements, _lacking(k))
                           if mask & ~lacking)
            reach.append((w, reached))
    # half-tables over the low h bits of c and the rest (see the module docstring)
    h = k // 2
    low = (1 << h) - 1
    tt_lo, tt_hi = [0], [0]
    for j, e in enumerate(elements):
        tts = tt_lo if j < h else tt_hi
        tts.extend([t | 1 << e for t in tts])
    pending = classes[::-1]  # the classes not yet built, lightest last
    weights: list[int] = []
    covers: list[int] = []

    best_weight: int | None = None
    best_sets: set[frozenset[int]] = set()
    nodes = 0

    def extend(weight: int) -> bool:
        """Append the next weight class, if it can fit under the incumbent."""
        if not pending or (best_weight is not None
                           and weight + pending[-1][0] > best_weight):
            return False
        w, mask = pending.pop()
        block = [tt_lo[c & low] | tt_hi[c >> h] for c in bit_indices(mask)]
        covers.extend(reversed(block))  # as the elements ascend, so do c's tables
        weights.extend([w] * len(block))
        return True

    def lower_bound(uncovered: int) -> int:
        for w, held in reach:  # the last entry holds every element
            if not uncovered & ~held:
                break
        return w

    def search(covered: int, weight: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_weight, nodes
        nodes += 1
        if covered == universe:
            if best_weight is None or weight < best_weight:
                best_weight = weight
                best_sets.clear()
            if weight == best_weight:
                best_sets.add(frozenset(chosen))
            return
        uncovered = universe & ~covered
        if best_weight is not None and weight + lower_bound(uncovered) > best_weight:
            return
        # every element lies in the same number of candidates, 2^(|U| - 1),
        # so branch on the lowest uncovered one
        element = uncovered & -uncovered
        idx = 0
        while idx < len(covers) or extend(weight):
            if best_weight is not None and weight + weights[idx] > best_weight:
                break  # candidates are sorted by weight
            if covers[idx] & element:
                search(covered | covers[idx], weight + weights[idx], chosen + (idx,))
            idx += 1

    if universe:  # with everything precluded no set is searched or found
        search(0, 0, ())
        assert best_sets

    member = {idx: Coevent._from_table(space, covers[idx]) for idx in set().union(*best_sets)}
    text = {idx: str(phi) for idx, phi in member.items()}
    sets_out = [tuple(member[idx] for idx in s) for s in sorted(
        (sorted(s, key=text.__getitem__) for s in best_sets),
        key=lambda s: [text[idx] for idx in s])]
    for indices in best_sets:  # each set generates the whole preclusive ideal
        joined = 0
        for idx in indices:
            joined |= covers[idx]
        assert joined == universe
    assert all(phi.is_preclusive(preclusions) for phi in member.values())
    full_event = 1 << space.full.bits
    unital, uncovered = [], universe
    for idx in sorted(member, key=text.__getitem__):
        if covers[idx] & full_event:  # unital: true on the whole space
            unital.append(member[idx])
            uncovered &= ~covers[idx]

    return SchemeResult(
        scheme='ideal',
        coevents=tuple(unital),
        total_complexity=best_weight,
        generating_sets=tuple(sets_out),
        uncovered_by_unital=tuple(
            Event(space, a) for a in sorted(bit_indices(uncovered), key=canonical_key)),
        diagnostics={'candidates': (1 << k) - 1, 'nodes': nodes,
                     'optimal_sets': len(sets_out)})


def infer(result: SchemeResult, given: Iterable[tuple[Event, int]],
          query: Event) -> str:
    """Restrict the admitted coevents by observed truth values, then ask `query`.

    Returns 'always-true', 'always-false', 'contingent', or 'vacuous' (no
    admitted coevent matches the given values).
    """
    constraints = []
    for event, bit in given:
        if bit not in (0, 1):
            raise ValueError(f'given value must be 0 or 1, got {bit!r}')
        constraints.append((event, int(bit)))
    survivors = [phi for phi in result.coevents
                 if all(phi(event) == bit for event, bit in constraints)]
    if not survivors:
        return VACUOUS
    values = {phi(query) for phi in survivors}
    if values == {1}:
        return ALWAYS_TRUE
    if values == {0}:
        return ALWAYS_FALSE
    return CONTINGENT
