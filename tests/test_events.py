"""Boolean ring structure of events and the event text syntax."""

import itertools

import pytest

from coevents import (Coevent, DecoherenceMatrix, Event, GuardError,
                      ParseError, PreclusionSet, SampleSpace, ScenarioError,
                      SpaceMismatchError, parse_event, parse_scenario,
                      render_event)


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


def test_space_guard():
    SampleSpace(f'h{i}' for i in range(24))  # at the limit: fine
    with pytest.raises(GuardError):
        SampleSpace(f'h{i}' for i in range(25))


def test_space_structural_equality(abc):
    assert abc == SampleSpace('abc')
    assert abc != SampleSpace('acb')  # order matters
    assert hash(abc) == hash(SampleSpace('abc'))


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
