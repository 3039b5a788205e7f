"""Round trips on random inputs: parsing a rendered value gives the value back.

Covers events, coevents, complex numbers and scenario text over random
spaces of up to 10 histories.  Runs are derandomized and keep no example
database, so the suite stays deterministic; conftest.py keeps Hypothesis's
other caches out of the working tree.
"""

from fractions import Fraction

import pytest

pytest.importorskip('hypothesis')

from hypothesis import given, settings
from hypothesis import strategies as st

from coevents import (Coevent, Event, GaussianRational, SampleSpace,
                      parse_coevent, parse_complex, parse_event, parse_scenario,
                      render_coevent, render_complex, render_event,
                      render_scenario)

deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# a label is any run of characters that are neither whitespace (which lies
# in the categories Cc and Z*) nor reserved
label_chars = st.characters(exclude_categories=('Cs', 'Cc', 'Zs', 'Zl', 'Zp'),
                            exclude_characters='*+{}#=')
labels = st.lists(st.text(label_chars, min_size=1, max_size=4),
                  min_size=1, max_size=10, unique=True)
spaces = labels.map(SampleSpace)
rationals = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 50))
complexes = st.builds(GaussianRational, rationals, rationals)


@st.composite
def space_and_mask(draw):
    space = draw(spaces)
    return space, draw(st.integers(0, (1 << space.size) - 1))


@deterministic
@given(space_and_mask())
def test_event_round_trip(drawn):
    space, bits = drawn
    event = Event(space, bits)
    assert parse_event(render_event(event), space) == event
    if event:  # the sum form of the same members
        assert parse_event(' + '.join(event.labels), space) == event


@deterministic
@given(spaces.flatmap(lambda space: st.tuples(
    st.just(space), st.sets(st.integers(0, (1 << space.size) - 1), max_size=8))))
def test_coevent_round_trip(drawn):
    space, masks = drawn
    phi = Coevent(space, [Event(space, m) for m in masks])
    text = render_coevent(phi)
    assert parse_coevent(text, space) == phi
    assert render_coevent(parse_coevent(text, space)) == text


@deterministic
@given(complexes)
def test_complex_round_trip(value):
    text = render_complex(value)
    assert parse_complex(text) == value
    assert render_complex(parse_complex(text)) == text


@st.composite
def scenario_texts(draw):
    names = draw(labels)
    n = len(names)
    lines = [draw(st.sampled_from(['', '# a comment']))]
    title = draw(st.one_of(st.none(), st.text(label_chars, min_size=1, max_size=8)))
    if title is not None:
        lines.append(f'title {title}  and more')
    lines.append('histories ' + ' '.join(names))
    mode = draw(st.sampled_from(['amplitudes', 'dmatrix', 'explicit']))
    if mode == 'amplitudes':
        lines += [f'amplitude {name} {render_complex(draw(complexes))}' for name in names]
        # no cut: the default single block; otherwise cut a shuffled order
        order = draw(st.permutations(names))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        if cuts:
            lines += ['block ' + ' '.join(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    elif mode == 'dmatrix':
        # a Hermitian matrix: a real diagonal, the lower triangle the conjugate
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = GaussianRational(draw(rationals))
            for j in range(i + 1, n):
                rows[i][j] = draw(complexes)
                rows[j][i] = rows[i][j].conjugate()
        # one chunk: the rows keep their order when the lines are shuffled
        lines.append('\n'.join('dmatrix ' + ' '.join(map(render_complex, row))
                               for row in rows))
    else:
        for bits in draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6)):
            lines.append('precluded {' + ' '.join(names[i] for i in range(n) if bits >> i & 1) + '}')
    return '\n'.join(draw(st.permutations(lines))) + '\n'


@deterministic
@given(scenario_texts())
def test_scenario_round_trip(text):
    scenario = parse_scenario(text)
    rendered = render_scenario(scenario)
    assert parse_scenario(rendered) == scenario
    assert render_scenario(parse_scenario(rendered)) == rendered

