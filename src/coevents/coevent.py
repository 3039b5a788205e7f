"""Coevents: Z2-valued truth assignments on an event algebra.

A coevent maps every event of a sample space to 0 or 1.  Each such map has
a unique multilinear polynomial form over the classical coevents: for a
history ``γ``, the classical coevent ``γ*`` answers whether ``γ`` lies in
the asked event, and a general coevent is a Z2 sum of monomials, each
monomial the product of ``γ*`` over a subset F of histories.  A monomial
answers whether F is contained in the asked event, so

    φ(A) = parity of the number of monomials F with F ⊆ A.

:class:`Coevent` stores the canonical monomial set, one bitmask per
monomial; the empty monomial (mask 0) is the constant 1, and the empty set
of monomials is the zero map.  ``+`` and ``*`` act pointwise on truth
values; monomials cancel in pairs under ``+`` and combine by union under
``*``, keeping the representation canonical.

:meth:`Coevent.from_truth_table` recovers the polynomial from an arbitrary
assignment via the subset-parity transform, which is its own inverse; it
runs word-parallel on the truth table held as one 2^n-bit integer.

Text grammar::

    poly := "0" | term ("+" term)*
    term := "1" | (label "*")+

Rendering sorts monomials by (degree, member indices) and emits no spaces,
e.g. ``a*+b*+c*`` or ``a*b*``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from operator import attrgetter

from .events import (Event, ParseError, SampleSpace, _check_guard,
                     _check_same_space, _label_bit, _member_bits, _sum_terms, _Value,
                     bit_indices, canonical_key)
from .measure import PreclusionSet

__all__ = [
    'TRUTH_TABLE_GUARD',
    'Coevent',
    'classical',
    'monomial',
    'parse_coevent',
    'render_coevent',
]

TRUTH_TABLE_GUARD = 16  # truth tables hold 2^n entries


@functools.cache
def _lacking(n: int) -> tuple[int, ...]:
    """For each history i, the 2^n-bit family of the events that lack i.

    Bit a of a family stands for the event with bitmask a.  The ideal
    scheme also indexes its candidate tables this way, with n the number
    of non-precluded events: bit c stands for candidate c, and family j
    holds the candidates false on the j-th of those events.  Only these n
    masks are cached per n, never anything indexed by a truth table.
    """
    families = []
    for i in range(n):
        period = 2 << i
        family = (1 << (1 << i)) - 1  # events 0 .. 2^i - 1 lack history i
        while period < 1 << n:
            family |= family << period
            period *= 2
        families.append(family)
    return tuple(families)


def _anf(table: int, n: int) -> int:
    """Subset-parity (Möbius) transform of a 2^n-bit truth table.

    Bit a of `table` is the value on the event with bitmask a; bit F of the
    result is set iff the monomial F appears in the polynomial.  Each of the
    n steps adds, in one shift-xor-mask on the whole int, the value of every
    event lacking history i into its copy with i added (Kennes & Smets,
    "Computational aspects of the Möbius transformation", 1990).  The
    transform is its own inverse.
    """
    for i, lacking in enumerate(_lacking(n)):
        table ^= (table & lacking) << (1 << i)
    return table


class Coevent(_Value):
    """Canonical multilinear polynomial over a space's classical coevents.

    `masks` is the frozen set of monomial bitmasks.  Instances are immutable
    and hashable; equality is structural.  Calling the instance on an event
    evaluates it.
    """

    __slots__ = ('space', 'masks')
    _compared = attrgetter('space', 'masks')

    def __init__(self, space: SampleSpace, monomials: Iterable[Event] = ()):
        """Build from monomial events; duplicates cancel in pairs (Z2)."""
        masks: set[int] = set()
        for ev in monomials:
            masks ^= {_member_bits(space, ev, 'monomial')}
        object.__setattr__(self, 'space', space)
        object.__setattr__(self, 'masks', frozenset(masks))

    @classmethod
    def _raw(cls, space: SampleSpace, masks: frozenset[int]) -> Coevent:
        co = object.__new__(cls)
        object.__setattr__(co, 'space', space)
        object.__setattr__(co, 'masks', masks)
        return co

    @classmethod
    def zero(cls, space: SampleSpace) -> Coevent:
        """The map sending every event to 0."""
        return cls._raw(space, frozenset())

    @classmethod
    def one(cls, space: SampleSpace) -> Coevent:
        """The map sending every event to 1 (the empty monomial)."""
        return cls._raw(space, frozenset((0,)))

    @classmethod
    def _from_table(cls, space: SampleSpace, table: int) -> Coevent:
        """The coevent whose truth table is the 2^n-bit integer `table`."""
        _check_guard('truth table', space.size, 'TRUTH_TABLE_GUARD', TRUTH_TABLE_GUARD)
        return cls._raw(space, frozenset(bit_indices(_anf(table, space.size))))

    @classmethod
    def from_truth_table(cls, space: SampleSpace,
                         truth: Callable[[Event], int]) -> Coevent:
        """The unique coevent agreeing with `truth` on every event.

        `truth` is queried on all 2^n events, in ascending bitmask order,
        after ``TRUTH_TABLE_GUARD`` has passed.  The answers are collected into
        one 2^n-bit integer, whose subset-parity transform is computed
        word-parallel by `_anf` in n shift-xor-mask steps; its set bits
        are the monomials.  Round trip holds both ways: evaluating the
        result reproduces `truth`, and a coevent fed back through its own
        evaluations is returned unchanged.
        """
        n = space.size
        _check_guard('truth table', n, 'TRUTH_TABLE_GUARD', TRUTH_TABLE_GUARD)
        digits = []
        for bits in range(1 << n):
            value = truth(Event(space, bits))
            if value not in (0, 1):
                raise ValueError(f'truth table value must be 0 or 1, got {value!r}')
            digits.append('1' if value else '0')
        return cls._from_table(space, int(''.join(reversed(digits)), 2))

    @property
    def monomials(self) -> tuple[Event, ...]:
        """Monomial events in canonical (degree, lexicographic) order."""
        return tuple(Event(self.space, m) for m in sorted(self.masks, key=canonical_key))

    def __call__(self, event: Event) -> int:
        """φ(A): parity of the number of monomials contained in A."""
        bits = _member_bits(self.space, event, 'event')
        return sum(1 for m in self.masks if (m & bits) == m) & 1

    def __add__(self, other: Coevent) -> Coevent:
        """Pointwise Z2 sum: monomials cancel in pairs."""
        if not isinstance(other, Coevent):
            return NotImplemented
        _check_same_space(self, other)
        return Coevent._raw(self.space, self.masks ^ other.masks)

    def __mul__(self, other: Coevent) -> Coevent:
        """Pointwise product: monomials combine by union, then cancel mod 2."""
        if not isinstance(other, Coevent):
            return NotImplemented
        _check_same_space(self, other)
        acc: set[int] = set()
        for f in self.masks:
            for g in other.masks:
                acc ^= {f | g}
        return Coevent._raw(self.space, frozenset(acc))

    @property
    def support(self) -> Event:
        """Union of all monomials; empty for the zero coevent."""
        bits = 0
        for m in self.masks:
            bits |= m
        return Event(self.space, bits)

    @property
    def complexity(self) -> int:
        """Sum of monomial degrees; 0 for the constants."""
        return sum(m.bit_count() for m in self.masks)

    def is_zero(self) -> bool:
        return not self.masks

    def is_one(self) -> bool:
        return self.masks == frozenset((0,))

    def is_unital(self) -> bool:
        """True iff φ(Ω) = 1: every monomial lies in Ω, so an odd count."""
        return len(self.masks) % 2 == 1

    def is_linear(self) -> bool:
        """True iff φ(A+B) = φ(A)+φ(B) always: every monomial is an atom."""
        return all(m.bit_count() == 1 for m in self.masks)

    def is_multiplicative(self) -> bool:
        """True iff φ(AB) = φ(A)φ(B) always: zero, or a single monomial."""
        return len(self.masks) <= 1

    def is_homomorphism(self) -> bool:
        """True iff unital, linear and multiplicative: a classical coevent."""
        return len(self.masks) == 1 and next(iter(self.masks)).bit_count() == 1

    def is_preclusive(self, precluded: Iterable[Event]) -> bool:
        """True iff φ maps every precluded event to 0.

        A :class:`PreclusionSet` is checked for its space once, any other
        iterable event by event; both are then evaluated on bitmasks.
        """
        if isinstance(precluded, PreclusionSet):
            _check_same_space(self, precluded)
            masks = precluded.masks
        else:
            masks = (_member_bits(self.space, z, 'event') for z in precluded)
        # the evaluation of __call__, inlined: the solvers' self-checks
        # run it once per precluded event per answer
        for z in masks:
            parity = 0
            for m in self.masks:
                if m & z == m:
                    parity ^= 1
            if parity:
                return False
        return True

    def __str__(self) -> str:
        return render_coevent(self)

    def __repr__(self) -> str:
        return f'Coevent({render_coevent(self)!r})'


def classical(atom: Event) -> Coevent:
    """γ*: true exactly on the events containing the history γ."""
    if not atom.is_atom():
        raise ValueError('classical coevents are indexed by atoms (singleton events)')
    return Coevent._raw(atom.space, frozenset((atom.bits,)))


def monomial(event: Event) -> Coevent:
    """F*: the product of γ* over γ in F, true exactly on supersets of F."""
    return Coevent._raw(event.space, frozenset((event.bits,)))


def render_coevent(phi: Coevent) -> str:
    """Canonical text: monomials by (degree, lexicographic), no spaces."""
    if not phi.masks:
        return '0'
    names = phi.space.names
    parts = []
    for m in sorted(phi.masks, key=canonical_key):
        if m == 0:
            parts.append('1')
        else:
            parts.append(''.join(names[i] + '*' for i in bit_indices(m)))
    return '+'.join(parts)


def parse_coevent(text: str, space: SampleSpace) -> Coevent:
    """Parse the ``poly`` grammar; terms cancel in pairs, labels idempotent."""
    stripped = text.strip()
    if not stripped:
        raise ParseError('empty coevent text', 0)
    if stripped == '0':
        return Coevent.zero(space)
    masks: set[int] = set()
    for term, pos in _sum_terms(text, 'coevent'):
        if term == '0':
            raise ParseError("'0' cannot appear as a term", pos)
        if term == '1':
            masks ^= {0}
            continue
        if any(c.isspace() for c in term):
            raise ParseError('whitespace inside a term', pos)
        if not term.endswith('*'):
            raise ParseError("term must be '1' or labels each followed by '*'",
                             pos + len(term) - 1)
        bits = 0
        cursor = pos
        for piece in term[:-1].split('*'):
            if not piece:
                raise ParseError("missing label before '*'", cursor)
            bits |= _label_bit(space, piece, cursor)
            cursor += len(piece) + 1
        masks ^= {bits}
    return Coevent._raw(space, frozenset(masks))
