"""Finite sample spaces and their Boolean event algebra.

A :class:`SampleSpace` is an ordered collection of distinct history labels.
An :class:`Event` is a subset of a space, stored as a bitmask over the label
indices.  Events form a Boolean ring over Z2:

- ``A + B`` is the symmetric difference (exclusive disjunction),
- ``A * B`` is the intersection (conjunction),
- ``A | B`` is the union, equal to ``A + B + A*B``,
- ``~A`` is the complement.

Values are immutable and hashable.  Every event remembers the space it
belongs to; combining events from different spaces raises
:class:`SpaceMismatchError` instead of silently coercing, since label/index
confusion is the dominant mistake in this kind of code.  Two spaces with the
same ordered labels compare equal and are interchangeable.

Event text syntax (shared with scenario files and the CLI): ``{a c}`` lists
the member labels inside braces, ``{}`` is the empty event.  Input also
accepts the sum form ``a+c``, meaning the Z2 sum of singletons, so ``a+a``
parses to the empty event.  :func:`render_event` always emits the brace form
with labels in space order.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

__all__ = [
    'SPACE_GUARD',
    'Event',
    'GuardError',
    'ParseError',
    'SampleSpace',
    'SpaceMismatchError',
    'parse_event',
    'render_event',
]

SPACE_GUARD = 24  # events are enumerated as 2^n bitmasks, so n is capped hard

# characters with grammar meaning in event/coevent/scenario text
_RESERVED_CHARS = frozenset('*+{}#=')

_TOKEN = re.compile(r'\S+')


class GuardError(ValueError):
    """An operation would enumerate past its size guard."""


class SpaceMismatchError(ValueError):
    """Operands belong to different sample spaces."""


class ParseError(ValueError):
    """Malformed event, coevent, or number text.

    `position` is the 0-based character offset of the problem within the
    parsed string; the exception message reports it as a 1-based column.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f'{message} (column {position + 1})')
        self.message = message
        self.position = position


def bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical order of events and monomials: size, then member indices."""
    return (mask.bit_count(), tuple(bit_indices(mask)))


def _check_same_space(a: Event, b: Event) -> None:
    if a.space != b.space:
        raise SpaceMismatchError('operands belong to different sample spaces')


class SampleSpace:
    """Ordered finite set of history labels, the carrier of an event algebra."""

    __slots__ = ('names', '_index')

    def __init__(self, labels: Iterable[str]):
        names = tuple(labels)
        if not names:
            raise ValueError('a sample space needs at least one history')
        if len(names) > SPACE_GUARD:
            raise GuardError(
                f'sample space size {len(names)} exceeds the guard of {SPACE_GUARD}')
        index: dict[str, int] = {}
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise ValueError(f'history label at position {i} is empty or not a string')
            if any(c.isspace() or c in _RESERVED_CHARS for c in name):
                raise ValueError(
                    f'history label {name!r} contains whitespace or a reserved character (*+{{}}#=)')
            if name in index:
                raise ValueError(f'duplicate history label {name!r}')
            index[name] = i
        self.names = names
        self._index = index

    @property
    def size(self) -> int:
        """Number of histories."""
        return len(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SampleSpace) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f'SampleSpace({list(self.names)!r})'

    def index(self, label: str) -> int:
        """Position of `label` in the space."""
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f'unknown history label {label!r}') from None

    def atom(self, label: str) -> Event:
        """The singleton event containing just `label`."""
        return Event(self, 1 << self.index(label))

    def atoms(self) -> tuple[Event, ...]:
        """All singleton events, in label order."""
        return tuple(Event(self, 1 << i) for i in range(len(self.names)))

    def event(self, labels: Iterable[str] = ()) -> Event:
        """The event whose members are `labels`."""
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return Event(self, bits)

    @property
    def empty(self) -> Event:
        return Event(self, 0)

    @property
    def full(self) -> Event:
        return Event(self, (1 << len(self.names)) - 1)

    def events(self) -> Iterator[Event]:
        """All 2^n events, in ascending bitmask order."""
        for bits in range(1 << len(self.names)):
            yield Event(self, bits)


class Event:
    """Subset of a sample space; an element of its Boolean ring."""

    __slots__ = ('space', 'bits')

    def __init__(self, space: SampleSpace, bits: int):
        if not 0 <= bits < (1 << space.size):
            raise ValueError(f'bitmask {bits:#x} out of range for a space of size {space.size}')
        self.space = space
        self.bits = bits

    @property
    def indices(self) -> tuple[int, ...]:
        """Member history positions, ascending."""
        return tuple(bit_indices(self.bits))

    @property
    def labels(self) -> tuple[str, ...]:
        """Member history labels, in space order."""
        return tuple(self.space.names[i] for i in self.indices)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, label: str) -> bool:
        return bool(self.bits >> self.space.index(label) & 1)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Event)
                and self.space == other.space and self.bits == other.bits)

    def __hash__(self) -> int:
        return hash((self.space, self.bits))

    def __add__(self, other: Event) -> Event:
        """Symmetric difference: the ring sum, with A + A = 0."""
        if not isinstance(other, Event):
            return NotImplemented
        _check_same_space(self, other)
        return Event(self.space, self.bits ^ other.bits)

    def __mul__(self, other: Event) -> Event:
        """Intersection: the ring product, with A * A = A."""
        if not isinstance(other, Event):
            return NotImplemented
        _check_same_space(self, other)
        return Event(self.space, self.bits & other.bits)

    def union(self, other: Event) -> Event:
        """Union, equal to the ring expression A + B + A*B."""
        if not isinstance(other, Event):
            raise TypeError(f'cannot union Event with {type(other).__name__}')
        _check_same_space(self, other)
        return Event(self.space, self.bits | other.bits)

    def __or__(self, other: Event) -> Event:
        if not isinstance(other, Event):
            return NotImplemented
        return self.union(other)

    def complement(self) -> Event:
        return Event(self.space, self.bits ^ ((1 << self.space.size) - 1))

    def __invert__(self) -> Event:
        return self.complement()

    def is_atom(self) -> bool:
        """True iff the event has exactly one member."""
        return self.bits.bit_count() == 1

    def issubset(self, other: Event) -> bool:
        _check_same_space(self, other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: Event) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.issubset(other)

    def __lt__(self, other: Event) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.issubset(other) and self.bits != other.bits

    def __str__(self) -> str:
        return render_event(self)

    def __repr__(self) -> str:
        return f'Event({render_event(self)!r})'


def render_event(event: Event) -> str:
    """Canonical text for an event: ``{a c}`` with labels in space order."""
    return '{' + ' '.join(event.labels) + '}'


def parse_event(text: str, space: SampleSpace) -> Event:
    """Parse ``{a c}`` / ``{}``, or the sum form ``a+c``."""
    stripped = text.strip()
    lead = len(text) - len(text.lstrip())
    if not stripped:
        raise ParseError('empty event text', 0)
    if stripped.startswith('{'):
        if not stripped.endswith('}') or len(stripped) < 2:
            raise ParseError("missing closing '}'", lead + len(stripped) - 1)
        bits = 0
        for match in _TOKEN.finditer(stripped, 1, len(stripped) - 1):
            label, pos = match.group(), lead + match.start()
            bit = _label_bit(space, label, pos)
            if bits & bit:
                raise ParseError(f'duplicate label {label!r} in event listing', pos)
            bits |= bit
        return Event(space, bits)
    if '}' in stripped:
        raise ParseError("'}' without opening '{'", lead + stripped.index('}'))
    # sum form: Z2 sum of singletons
    bits = 0
    for label, pos in _sum_terms(text, 'event'):
        bits ^= _label_bit(space, label, pos)
    return Event(space, bits)


def _sum_terms(text: str, kind: str) -> Iterator[tuple[str, int]]:
    """The stripped '+'-separated terms of `text` with their positions (offsets in `text`)."""
    start = 0
    for segment in text.rstrip().split('+'):
        term = segment.strip()
        pos = start + len(segment) - len(segment.lstrip())
        if not term:
            raise ParseError(f'empty term in {kind} sum', pos)
        yield term, pos
        start += len(segment) + 1


def _label_bit(space: SampleSpace, label: str, position: int) -> int:
    """The bitmask of history `label`; an unknown label is a :class:`ParseError`."""
    try:
        return 1 << space._index[label]
    except KeyError:
        raise ParseError(f'unknown history label {label!r}', position) from None
