"""Properties on random inputs.

Round trips: parsing a rendered value gives the value back, for events,
coevents, complex numbers and scenario text over random spaces of up to 10
histories.  The command line never crashes, and answers within seconds, on
scenario text one character away from a valid one, and lists a malformed
text's diagnostics in (line, column) order.  The multiplicative and linear
answers on random explicit preclusion sets at n <= 8, and the ideal
answers at n = 4 (past the oracle's n <= 3), match their definitions,
checked by direct set operations over all 2^n subsets; the first two also
come in strictly increasing text order, totalled by their monomial degrees.  Runs are derandomized and keep
no example database, so the suite stays deterministic; conftest.py keeps
Hypothesis's other caches out of the working tree.
"""

import contextlib
import io
import re
import time
from fractions import Fraction

import pytest

pytest.importorskip('hypothesis')

from hypothesis import given, settings
from hypothesis import strategies as st

from coevents import (Coevent, Event, GaussianRational, PreclusionSet,
                      SampleSpace, ideal_scheme, linear_scheme,
                      multiplicative_scheme, parse_coevent, parse_complex, parse_event, parse_scenario,
                      render_coevent, render_complex, render_event,
                      render_scenario)
from coevents.cli import main

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



# characters with grammar meaning in scenario text, plus the separators
GRAMMAR_CHARS = '{}*+#=/i \n'
COMMANDS = (['preclusions'], ['solve', '--scheme', 'multiplicative'],
            ['solve', '--scheme', 'linear'], ['solve', '--scheme', 'ideal'],
            ['infer', '--scheme', 'multiplicative', '--query', '{}'],
            ['infer', '--scheme', 'linear', '--query', '{}'])
DIAGNOSTIC = re.compile(r'^(?:(\d+):(\d+): )?error: ')


@st.composite
def mutated_scenario_texts(draw):
    """A valid scenario text, kept, or with one character inserted, deleted or replaced."""
    text = draw(scenario_texts())
    edit = draw(st.sampled_from(['keep', 'insert', 'delete', 'replace']))
    if edit == 'keep':
        return text
    at = draw(st.integers(0, len(text) - (edit != 'insert')))
    char = '' if edit == 'delete' else draw(st.sampled_from(GRAMMAR_CHARS))
    return text[:at] + char + text[at + (edit != 'insert'):]


@settings(deterministic, max_examples=100)  # six commands share the examples
@given(mutated_scenario_texts(), st.sampled_from(COMMANDS))
def test_cli_survives_one_character_edits(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / 'mutated.scenario'
    path.write_text(text, encoding='utf-8')
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert time.perf_counter() - start < 3  # a guard refuses what would run long
    assert code in (0, 1, 2)
    assert 'Traceback' not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ''
        lines = err.getvalue().splitlines()
        matches = [DIAGNOSTIC.match(line) for line in lines]
        assert lines and all(matches), lines
        places = [(int(m[1]), int(m[2])) for m in matches if m[1]]
        assert places == sorted(places), lines  # in (line, column) order


@st.composite
def explicit_preclusions(draw):
    n = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    space = SampleSpace(f'h{i}' for i in range(n))
    return PreclusionSet(space, [Event(space, m) for m in masks])


def submasks(mask):
    """Every proper subset of `mask`, the empty one included."""
    sub = mask
    while sub:
        sub = (sub - 1) & mask
        yield sub


@deterministic
@given(explicit_preclusions())
def test_scheme_answers_meet_their_definitions(preclusions):
    n, precluded = preclusions.space.size, preclusions.masks
    subsets = range(1 << n)

    # multiplicative: F* is false on every precluded event iff F lies in none of
    # them; the answers are the inclusion-minimal such F
    outside = {f for f in subsets if all(f & ~z for z in precluded)}
    minimal = {f for f in outside if not any(g in outside for g in submasks(f))}
    multiplicative = multiplicative_scheme(preclusions)
    answers = [phi.masks for phi in multiplicative.coevents]
    assert len(answers) == len(set(answers))
    for masks in answers:
        [f] = masks  # one monomial
        assert all(f & ~z for z in precluded)  # preclusive
        assert not any(g in outside for g in submasks(f))  # minimal
    assert set(answers) == {frozenset([f]) for f in minimal}  # complete

    # linear: the sum of γ* over S is false on a precluded event iff it meets S
    # evenly; the answers are the odd (unital) supports no smaller nonzero
    # solution lies inside
    solutions = {s for s in subsets
                 if s and all((s & z).bit_count() % 2 == 0 for z in precluded)}
    supports = {s for s in solutions
                if s.bit_count() % 2 and not any(t in solutions for t in submasks(s))}
    linear = linear_scheme(preclusions)
    answers = [phi.masks for phi in linear.coevents]
    assert len(answers) == len(set(answers))
    found = set()
    for masks in answers:
        assert all(m.bit_count() == 1 for m in masks)  # a sum of classical coevents
        s = sum(masks)
        assert len(masks) % 2 == 1  # unital
        assert all((s & z).bit_count() % 2 == 0 for z in precluded)  # preclusive
        assert not any(t in solutions for t in submasks(s))  # support-minimal
        found.add(s)
    assert found == supports  # complete

    for result in (multiplicative, linear):
        # strictly increasing text, and the total is the sum of monomial degrees
        texts = [str(phi) for phi in result.coevents]
        assert all(a < b for a, b in zip(texts, texts[1:]))
        assert result.total_complexity == sum(
            f.bit_count() for phi in result.coevents for f in phi.masks)


def truth(phi, event):
    """φ(A): the parity of the monomials F of φ with F ⊆ A."""
    return sum(1 for f in phi.masks if not f & ~event) % 2


@deterministic
@given(st.lists(st.integers(0, 15), max_size=10))
def test_ideal_answers_meet_their_definitions(masks):
    space = SampleSpace('abcd')
    preclusions = PreclusionSet(space, [Event(space, m) for m in masks])
    precluded = preclusions.masks
    universe = {a for a in range(16) if a not in precluded}
    result = ideal_scheme(preclusions)
    if not universe:
        assert (result.generating_sets, result.coevents) == ((), ())
        return
    assert result.generating_sets
    members = set()
    for generating_set in result.generating_sets:
        # every member is false on every precluded event, and the members'
        # true sets jointly cover every other event
        assert all(truth(phi, z) == 0 for phi in generating_set for z in precluded)
        assert all(any(truth(phi, a) for phi in generating_set) for a in universe)
        complexity = sum(f.bit_count() for phi in generating_set for f in phi.masks)
        assert complexity == result.total_complexity
        members.update(generating_set)
    unital = {phi for phi in members if truth(phi, space.full.bits)}
    assert len(result.coevents) == len(unital) and set(result.coevents) == unital
    uncovered = {a for a in universe if not any(truth(phi, a) for phi in unital)}
    assert {ev.bits for ev in result.uncovered_by_unital} == uncovered
