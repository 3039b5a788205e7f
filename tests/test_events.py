"""Boolean ring structure of events, the event text syntax, and every size guard."""

import copy
import itertools
import operator
import pickle
import time

import pytest

from coevents import (Coevent, DecoherenceMatrix, Event, GuardError,
                      ParseError, PreclusionSet, SampleSpace, ScenarioError,
                      SpaceMismatchError, coevent, events, ideal_scheme,
                      linear_scheme, measure, multiplicative_scheme, oracle,
                      parse_event, parse_scenario, render_event, schemes)


def test_space_basics(abc):
    assert abc.size == 3
    assert len(abc) == 3
    assert abc.names == ('a', 'b', 'c')
    assert abc.index('b') == 1
    assert abc.atom('c').bits == 4
    assert abc.empty.bits == 0
    assert abc.full.bits == 7


def test_space_rejects_bad_labels():
    with pytest.raises(ValueError):
        SampleSpace([])
    with pytest.raises(ValueError):
        SampleSpace(['a', 'a'])
    with pytest.raises(ValueError):
        SampleSpace([''])
    for bad in ['a*', 'a+b', '{x}', 'a#1', 'x=1', 'two words']:
        with pytest.raises(ValueError):
            SampleSpace([bad])
    # one problem per label, in order: an empty label is not also whitespace
    assert list(events._label_problems(['', 'a', 'a'])) == [
        (0, 'history label at position 0 is empty or not a string'),
        (2, "duplicate history label 'a'")]


def test_space_guard():
    SampleSpace(f'h{i}' for i in range(24))  # at the limit: fine
    with pytest.raises(GuardError):
        SampleSpace(f'h{i}' for i in range(25))


def _space(n):
    return SampleSpace(f'h{i}' for i in range(n))


def _free(n):
    """Nothing precluded over n histories."""
    return PreclusionSet(_space(n), [])


def _indefinite(n):
    """diag(1, -1, ...): entry-built and not PSD, so both walks need the nulls."""
    return DecoherenceMatrix(_space(n), [[(-1) ** i if i == j else 0 for j in range(n)]
                                         for i in range(n)])


def _null_count(k):
    """Amplitudes 1, -1, ..., -1: the empty event and each {h0, hj} are null, k in all."""
    return DecoherenceMatrix.from_amplitudes(_space(k), [1] + [-1] * (k - 1))


def _transversals(k):
    """Precluding {h0} of k + 1 histories leaves k minimal transversals, the other singletons."""
    space = _space(k + 1)
    return PreclusionSet(space, [space.atom('h0')])


# Every size guard: (module, constant, value patched in where the real limit
# is costly to reach or None, is the limit 2^constant?, the guarded call at a
# size as (function, *arguments) built outside the timed region, the message).
GUARD_SITES = {
    'space': (events, 'SPACE_GUARD', None, False,
              lambda k: (SampleSpace, [f'h{i}' for i in range(k)]),
              'sample space: {size} histories, past SPACE_GUARD = {limit}'),
    'table': (coevent, 'TRUTH_TABLE_GUARD', None, False,
              lambda k: (Coevent._from_table, _space(k), 0),
              'truth table: {size} histories, past TRUTH_TABLE_GUARD = {limit}'),
    'truth-table': (coevent, 'TRUTH_TABLE_GUARD', 4, False,
                    lambda k: (Coevent.from_truth_table, _space(k), lambda ev: 0),
                    'truth table: {size} histories, past TRUTH_TABLE_GUARD = {limit}'),
    'preclusions': (measure, 'MEASURE_GUARD', 4, False,
                    lambda k: (DecoherenceMatrix.preclusions, _indefinite(k)),
                    'preclusion derivation: {size} histories, past MEASURE_GUARD = {limit} '
                    '(2^{size} = {events} events)'),
    'absorption': (measure, 'MEASURE_GUARD', 4, False,
                   lambda k: (DecoherenceMatrix.null_absorption_holds, _indefinite(k)),
                   'null-absorption check: {size} histories, past MEASURE_GUARD = {limit} '
                   '(2^{size} = {events} events)'),
    'amplitude-nulls': (measure, 'MEASURE_GUARD', 4, True,
                        lambda k: (DecoherenceMatrix.preclusions, _null_count(k)),
                        'preclusion derivation: {size} null events, '
                        'past 2^MEASURE_GUARD = {limit}'),
    'transversals': (measure, 'MEASURE_GUARD', 4, True,
                     lambda k: (multiplicative_scheme, _transversals(k)),
                     'multiplicative scheme: {size} minimal transversals, '
                     'past 2^MEASURE_GUARD = {limit}'),
    'nullity': (schemes, 'NULLSPACE_GUARD', None, False,
                lambda k: (linear_scheme, _free(k)),
                'linear scheme: nullspace dimension {size}, past NULLSPACE_GUARD = {limit}'),
    'ideal': (schemes, 'IDEAL_SEARCH_GUARD', None, False,
              lambda k: (ideal_scheme, _free(k)),
              'ideal search: {size} histories, past IDEAL_SEARCH_GUARD = {limit}'),
    'enumeration': (oracle, 'ENUMERATION_GUARD', None, False,
                    lambda k: (lambda space: next(oracle.enumerate_coevents(space)), _space(k)),
                    'oracle: {size} histories, past ENUMERATION_GUARD = {limit}'),
    'brute-multiplicative': (oracle, 'ENUMERATION_GUARD', None, False,
                             lambda k: (oracle.brute_multiplicative, _free(k)),
                             'oracle: {size} histories, past ENUMERATION_GUARD = {limit}'),
    'brute-linear': (oracle, 'ENUMERATION_GUARD', None, False,
                     lambda k: (oracle.brute_linear, _free(k)),
                     'oracle: {size} histories, past ENUMERATION_GUARD = {limit}'),
    'closure': (oracle, 'CLOSURE_GUARD', None, False,
                lambda k: (oracle.brute_ideal_closure, _space(k), []),
                'oracle: {size} histories, past CLOSURE_GUARD = {limit}'),
    'min-cover': (oracle, 'CLOSURE_GUARD', None, False,
                  lambda k: (oracle.brute_min_cover, _free(k)),
                  'oracle: {size} histories, past CLOSURE_GUARD = {limit}'),
}


@pytest.mark.parametrize('site', list(GUARD_SITES))
def test_guard_trips_at_limit_plus_one(site, monkeypatch):
    module, constant, patched, power, call_at, message = GUARD_SITES[site]
    if patched is not None:
        monkeypatch.setattr(module, constant, patched)
    limit = getattr(module, constant)
    if power:
        limit = 1 << limit
    function, *arguments = call_at(limit)
    function(*arguments)  # at the limit: allowed
    function, *arguments = call_at(limit + 1)
    start = time.perf_counter()
    with pytest.raises(GuardError) as excinfo:
        function(*arguments)
    assert time.perf_counter() - start < 0.05  # refused before the work
    assert str(excinfo.value) == message.format(size=limit + 1, limit=limit,
                                                events=1 << limit + 1)


def test_space_structural_equality(abc):
    twin = SampleSpace('abc')
    assert abc == twin and abc is not twin
    assert abc != SampleSpace('acb')  # order matters
    assert hash(abc) == hash(twin)
    # values on two distinct but equal spaces are equal and hash equal
    for make in (lambda space: space.event('ac'),
                 lambda space: Coevent(space, [space.atom('a'), space.event('bc')]),
                 lambda space: PreclusionSet(space, [space.atom('b')])):
        assert make(abc) == make(twin) and hash(make(abc)) == hash(make(twin))
    # a value never equals one of another class, even holding the same data
    ev = abc.event('ac')
    assert ev != ev.bits and abc != abc.names and Coevent(abc, [ev]) != ev
    assert PreclusionSet(abc) != Coevent.one(abc)  # both are (abc, {0})


def test_bitmask_must_be_an_int():
    space = SampleSpace(['a'])
    with pytest.raises(TypeError, match='bitmask must be an int, got float'):
        Event(space, 1.0)
    assert Event(space, True) == space.full  # a bool is an int


def test_events_enumeration_order(xy):
    listed = list(xy.events())
    assert [ev.bits for ev in listed] == [0, 1, 2, 3]
    assert listed[0] == xy.empty
    assert listed[-1] == xy.full


def test_event_membership(abc):
    ev = abc.event(['a', 'c'])
    assert len(ev) == 2
    assert 'a' in ev and 'c' in ev and 'b' not in ev
    assert ev.labels == ('a', 'c')
    assert ev.indices == (0, 2)
    assert bool(ev)
    assert not bool(abc.empty)


def test_ring_operations(abc):
    ac = abc.event(['a', 'c'])
    bc = abc.event(['b', 'c'])
    assert (ac + bc).labels == ('a', 'b')  # symmetric difference
    assert (ac * bc).labels == ('c',)
    assert ac.union(bc).labels == ('a', 'b', 'c')
    assert (ac | bc) == ac.union(bc)
    assert ac + ac == abc.empty
    assert ac.complement().labels == ('b',)
    assert ~ac == ac.complement()


def test_union_equals_ring_identity(abc):
    # A u B = A + B + AB, on every pair
    for a, b in itertools.product(abc.events(), repeat=2):
        assert a.union(b) == a + b + a * b


def test_subset_relations(abc):
    a = abc.event(['a'])
    ab = abc.event(['a', 'b'])
    assert a.issubset(ab)
    assert a <= ab and a < ab
    assert not ab <= a
    assert a <= a and not a < a
    assert a.is_atom() and not ab.is_atom() and not abc.empty.is_atom()


def test_space_mismatch_raises(abc, xy):
    with pytest.raises(SpaceMismatchError):
        abc.full + xy.full
    with pytest.raises(SpaceMismatchError):
        abc.full * xy.full
    with pytest.raises(SpaceMismatchError):
        abc.full.union(xy.full)


ABC, XY = SampleSpace('abc'), SampleSpace('xy')
ONE, MATRIX = Coevent.one(ABC), DecoherenceMatrix.from_amplitudes(ABC, [1, 1, -1])

# every argument that must be an Event of ABC, fed one foreign value
EVENT_ARGUMENTS = {
    'union': lambda x: ABC.full.union(x),
    'issubset': lambda x: ABC.empty.issubset(x),
    'Coevent': lambda x: Coevent(ABC, [x]),
    'evaluate': lambda x: ONE(x),
    'is_preclusive': lambda x: ONE.is_preclusive([x]),
    'PreclusionSet': lambda x: PreclusionSet(ABC, [x]),
    'from_amplitudes': lambda x: DecoherenceMatrix.from_amplitudes(ABC, [1, 1, -1], [x]),
    'measure': lambda x: MATRIX.measure(x),
}
FOREIGN = {'non-event': ('{a}', TypeError), 'other-space': (XY.full, SpaceMismatchError)}

BOUNDARY_CASES = [
    *(pytest.param(lambda call=call, x=x: call(x), error, id=f'{name}-{kind}')
      for name, call in EVENT_ARGUMENTS.items() for kind, (x, error) in FOREIGN.items()),
    pytest.param(lambda: ONE + Coevent.one(XY), SpaceMismatchError, id='add-other-space'),
    pytest.param(lambda: ONE * Coevent.one(XY), SpaceMismatchError, id='mul-other-space'),
    pytest.param(lambda: ONE.is_preclusive(PreclusionSet(XY)), SpaceMismatchError,
                 id='is_preclusive-other-space-set'),
    *(pytest.param(lambda label=label: SampleSpace(['a', label]), ValueError,
                   id=f'label-{label!r}')
      for label in ['', 1, 'b c', *'*+{}#=', 'a']),
    pytest.param(lambda: ABC.index('zz'), ValueError, id='index-unknown-label'),
    pytest.param(lambda: Event(ABC, 1 << 3), ValueError, id='bitmask-too-wide'),
    pytest.param(lambda: Event(ABC, -1), ValueError, id='bitmask-negative'),
    # ring operations and the subset order take no int operand
    *(pytest.param(lambda x=x, op=op: op(x, 1), TypeError,
                   id=f'{type(x).__name__}-{op.__name__}-int')
      for x, ops in [(ABC.full, (operator.add, operator.mul, operator.or_,
                                 operator.le, operator.lt)),
                     (ONE, (operator.add, operator.mul))] for op in ops),
    pytest.param(lambda: oracle.brute_ideal_closure(ABC, [Coevent.one(XY)]), ValueError,
                 id='ideal-closure-other-space'),
]


@pytest.mark.parametrize('call, error', BOUNDARY_CASES)
def test_boundaries_refuse_foreign_input(call, error):
    with pytest.raises(error):
        call()


def test_boundary_messages_name_the_argument():
    with pytest.raises(TypeError, match='^block must be an Event, got str$'):
        DecoherenceMatrix.from_amplitudes(ABC, [1, 1, -1], ['{a}'])
    with pytest.raises(SpaceMismatchError,
                       match='^precluded event belongs to a different sample space$'):
        PreclusionSet(ABC, [XY.full])


def test_label_messages_are_the_scenario_diagnostics():
    # the API raises the first problem in the words the scenario reports at its column
    for labels in (['a', 'b*c'], ['a', 'b', 'a']):
        with pytest.raises(ValueError) as caught:
            SampleSpace(labels)
        with pytest.raises(ScenarioError) as scenario:
            parse_scenario(f"histories {' '.join(labels)}\nprecluded {{}}\n")
        assert str(scenario.value).endswith(f'error: {caught.value}')
    with pytest.raises(ValueError, match=r"^history label 'b c' contains whitespace$"):
        SampleSpace(['a', 'b c'])


def test_render(abc):
    assert render_event(abc.empty) == '{}'
    assert render_event(abc.event(['c', 'a'])) == '{a c}'
    assert str(abc.full) == '{a b c}'


def test_parse_brace_form(abc):
    assert parse_event('{a c}', abc).bits == 0b101
    assert parse_event('{}', abc) == abc.empty
    assert parse_event('  { c  a }  ', abc).labels == ('a', 'c')


def test_parse_sum_form(abc):
    assert parse_event('a+c', abc).labels == ('a', 'c')
    assert parse_event('a+a', abc) == abc.empty  # Z2: cancels
    assert parse_event('a + b + a', abc).labels == ('b',)


def test_parse_round_trip(abc):
    for ev in abc.events():
        assert parse_event(render_event(ev), abc) == ev


EVENT_PARSE_ERRORS = {
    '': ('empty event text', 0),
    '{a': ("missing closing '}'", 1),
    'a}': ("'}' without opening '{'", 1),
    '{a q}': ("unknown history label 'q'", 3),
    'q': ("unknown history label 'q'", 0),
    '{a a}': ("duplicate label 'a' in event listing", 3),
    'a+': ('empty term in event sum', 2),
    '+a': ('empty term in event sum', 0),
    'a++b': ('empty term in event sum', 2),
    '{a} {b}': ("unknown history label 'a}'", 1),
    ' a + q': ("unknown history label 'q'", 5),
    '  a+ +b': ('empty term in event sum', 5),
    'a+ ': ('empty term in event sum', 2),
}


@pytest.mark.parametrize('bad', list(EVENT_PARSE_ERRORS))
def test_parse_errors(bad, abc):
    with pytest.raises(ParseError) as info:
        parse_event(bad, abc)
    assert (info.value.message, info.value.position) == EVENT_PARSE_ERRORS[bad]


def test_parse_error_positions(abc):
    with pytest.raises(ParseError) as info:
        parse_event('{a q}', abc)
    assert info.value.position == 3
    assert 'column 4' in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_event('a+qq', abc)
    assert info.value.position == 2


def _events_read(preclusions):
    preclusions.events  # fills the cached _events slot
    return preclusions


MATRIX_ENTRIES = [[1, -1, 0], [-1, 1, 0], [0, 0, 1]]


def _preclusions_read(matrix):
    assert 0b011 in matrix.preclusions().masks  # fills the cached _preclusions slot
    return matrix


@pytest.mark.parametrize('make', [
    lambda space: space,
    lambda space: space.event('ab'),
    lambda space: Coevent(space, [space.atom('a'), space.event('bc')]),
    lambda space: PreclusionSet(space, [space.atom('a')]),
    lambda space: _events_read(PreclusionSet(space, [space.atom('a')])),
    lambda space: DecoherenceMatrix.from_amplitudes(space, [1, -1, 1]),
    lambda space: _preclusions_read(DecoherenceMatrix.from_amplitudes(space, [1, -1, 1])),
    lambda space: DecoherenceMatrix(space, MATRIX_ENTRIES),
    lambda space: _preclusions_read(DecoherenceMatrix(space, MATRIX_ENTRIES)),
], ids=['SampleSpace', 'Event', 'Coevent', 'PreclusionSet', 'PreclusionSet-events-read',
        'DecoherenceMatrix-amplitudes', 'DecoherenceMatrix-amplitudes-preclusions-read',
        'DecoherenceMatrix-entries', 'DecoherenceMatrix-entries-preclusions-read'])
def test_values_refuse_assignment(abc, make):
    value = make(abc)
    table = {value: 'kept'}
    for name in type(value).__slots__:
        kept = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 3)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is kept
    assert table[value] == 'kept'
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
