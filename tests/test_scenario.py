"""Scenario parsing with positioned diagnostics, rendering, bundled files."""

import hashlib
import json
import random

import pytest

import coevents
from coevents import (GaussianRational, ParseDiagnostic, ScenarioError,
                      bundled_names, ideal_scheme, linear_scheme, load_bundled,
                      multiplicative_scheme, parse_scenario, render_complex,
                      render_result, render_scenario)


def diagnostics_of(text):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return info.value.diagnostics


def positions(text):
    return [(d.line, d.column) for d in diagnostics_of(text)]


class TestBundled:

    def test_names(self):
        assert bundled_names() == (
            'ab_correlation', 'everything_precluded', 'three_slit', 'two_slit')

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_bundled('four_slit')

    def test_two_slit_contents(self, two_slit):
        assert two_slit.mode == 'amplitudes'
        assert two_slit.space.names == ('g1', 'g2', 'g3', 'g4')
        assert two_slit.amplitudes == tuple(
            GaussianRational(v) for v in (1, 1, -1, 1))
        assert [ev.labels for ev in two_slit.blocks] == [
            ('g1', 'g3'), ('g2', 'g4')]
        assert two_slit.title is not None

    def test_three_slit_defaults_to_one_block(self, three_slit):
        assert three_slit.mode == 'amplitudes'
        assert three_slit.blocks == (three_slit.space.full,)

    def test_ab_correlation_contents(self, ab_correlation):
        assert ab_correlation.mode == 'explicit'
        assert ab_correlation.decoherence_matrix() is None
        assert [str(ev) for ev in ab_correlation.precluded] == [
            '{Ab}', '{aB}', '{Ab aB}']

    def test_everything_precluded(self):
        scenario = parse_scenario(load_bundled('everything_precluded'))
        assert scenario.preclusion_set().precludes_everything()


class TestRoundTrip:

    @pytest.mark.parametrize('name', [
        'two_slit', 'three_slit', 'ab_correlation', 'everything_precluded'])
    def test_bundled(self, name):
        scenario = parse_scenario(load_bundled(name))
        canonical = render_scenario(scenario)
        assert parse_scenario(canonical) == scenario
        assert render_scenario(parse_scenario(canonical)) == canonical

    def test_dmatrix_scenario(self):
        text = ('histories x y\n'
                'dmatrix 1 1/2+1/2i\n'
                'dmatrix 1/2-1/2i 1\n')
        scenario = parse_scenario(text)
        assert scenario.mode == 'dmatrix'
        d = scenario.decoherence_matrix()
        assert d.entry(1, 0) == d.entry(0, 1).conjugate()
        assert render_complex(d.entry(0, 1)) == '1/2+1/2i'
        assert parse_scenario(render_scenario(scenario)) == scenario

    def test_matrix_built_once(self, three_slit):
        assert three_slit.decoherence_matrix() is three_slit.decoherence_matrix()
        dm = parse_scenario('histories x y\ndmatrix 1 0\ndmatrix 0 1\n')
        assert dm.decoherence_matrix() is dm.decoherence_matrix()
        assert dm.decoherence_matrix() is dm.dmatrix
        explicit = parse_scenario('histories a b\nprecluded {a}\n')
        assert explicit.decoherence_matrix() is None

    def test_built_matrix_stays_out_of_equality(self):
        text = load_bundled('two_slit')
        a, b = parse_scenario(text), parse_scenario(text)
        a.decoherence_matrix()
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)

    def test_sum_form_normalizes(self):
        a = parse_scenario('histories a b\nprecluded a+b\n')
        b = parse_scenario('histories a b\nprecluded {a b}\n')
        assert a == b

    def test_comments_and_blank_lines_ignored(self):
        text = ('# leading comment\n\n'
                'histories a b  # trailing comment\n'
                '\n'
                'precluded {a}\n')
        scenario = parse_scenario(text)
        assert scenario.space.names == ('a', 'b')
        assert [str(e) for e in scenario.precluded] == ['{a}']


class TestDiagnostics:

    def test_str_format(self):
        d = ParseDiagnostic(3, 7, 'boom')
        assert str(d) == '3:7: error: boom'

    def test_missing_histories(self):
        assert positions('precluded {a}\n') == [(1, 1)]

    def test_unknown_directive(self):
        text = 'histories a b\nfrobnicate 1\nprecluded {a}\n'
        assert (2, 1) in positions(text)
        assert any('frobnicate' in d.message for d in diagnostics_of(text))

    def test_duplicate_histories(self):
        text = 'histories a b\nhistories c\nprecluded {a}\n'
        assert (2, 1) in positions(text)

    def test_duplicate_label(self):
        assert (1, 15) in positions('histories a b a\nprecluded {a}\n')

    def test_reserved_character_in_label(self):
        for char in '*+{}=':
            diags = diagnostics_of(f'histories a b{char}c\nprecluded {{a}}\n')
            assert [str(d) for d in diags] == [
                f"1:13: error: history label 'b{char}c' contains a reserved character"]

    def test_hash_in_label_starts_a_comment(self):
        assert parse_scenario('histories a b#c\nprecluded {a}\n').space.names == ('a', 'b')

    def test_no_mode(self):
        diags = diagnostics_of('histories a b\n')
        assert any('fixes no measure' in d.message for d in diags)

    def test_mode_conflict(self):
        text = 'histories a b\namplitude a 1\namplitude b 1\nprecluded {a}\n'
        diags = diagnostics_of(text)
        assert any('conflicting measure modes' in d.message for d in diags)

    def test_block_without_amplitudes(self):
        diags = diagnostics_of('histories a b\nblock a b\n')
        assert any("'block' lines without" in d.message for d in diags)

    def test_unknown_amplitude_label(self):
        assert (2, 11) in positions('histories a b\namplitude q 1\namplitude b 1\n')

    def test_duplicate_amplitude(self):
        text = 'histories a b\namplitude a 1\namplitude a 2\namplitude b 1\n'
        assert (3, 11) in positions(text)

    def test_missing_amplitude(self):
        diags = diagnostics_of('histories a b\namplitude a 1\n')
        assert any("missing amplitude for 'b'" in d.message for d in diags)

    def test_malformed_amplitude_position(self):
        # the column points into the bad number, not at the directive
        assert (2, 13) in positions('histories a b\namplitude a 1.5\namplitude b 1\n')

    def test_unparsed_amplitude_is_not_missing(self):
        # 'a' has an amplitude line, so the bad number is the one problem
        diags = diagnostics_of('histories a b\namplitude a 1.5\namplitude b 1\n')
        assert [(d.line, d.column, d.message) for d in diags] == [
            (2, 13, "malformed complex number '1.5'")]
        diags = diagnostics_of('histories a b\namplitude a 1\n')
        assert [(d.line, d.column, d.message) for d in diags] == [
            (2, 1, "missing amplitude for 'b'")]

    def test_zero_denominator_position(self):
        assert (2, 15) in positions('histories a b\namplitude a 1/0\namplitude b 1\n')

    def test_over_long_number_position(self):
        # past int's digit limit for str conversion: a diagnostic at the
        # number, and the error on the next line is still reported
        text = f'histories a b\namplitude a 2/{"3" * 5000}\namplitude q 1\n'
        diags = diagnostics_of(text)
        assert [(d.line, d.column) for d in diags][:2] == [(2, 13), (3, 11)]
        assert 'digits' in diags[0].message

    def test_block_overlap(self):
        text = ('histories a b c\namplitude a 1\namplitude b 1\namplitude c 1\n'
                'block a b\nblock b c\n')
        assert (6, 7) in positions(text)

    def test_block_not_covering(self):
        text = ('histories a b c\namplitude a 1\namplitude b 1\namplitude c 1\n'
                'block a b\n')
        diags = diagnostics_of(text)
        assert any("do not cover 'c'" in d.message for d in diags)

    def test_dmatrix_row_count(self):
        diags = diagnostics_of('histories a b\ndmatrix 1 0\n')
        assert any('needs 2 rows' in d.message for d in diags)

    def test_dmatrix_row_length(self):
        diags = diagnostics_of('histories a b\ndmatrix 1 0 0\ndmatrix 0 1\n')
        assert any('needs 2 entries' in d.message for d in diags)

    def test_dmatrix_not_hermitian(self):
        # reported at the entry (j, i) of the first bad pair (i, j), i <= j
        diags = diagnostics_of('histories a b\ndmatrix 0 1\ndmatrix 2 0\n')
        assert [str(d) for d in diags] == [
            '3:9: error: matrix is not Hermitian at row 2, column 1']
        diags = diagnostics_of('histories a b\ndmatrix 1i 0\ndmatrix 0 1\n')
        assert [str(d) for d in diags] == [
            '2:9: error: matrix is not Hermitian at row 1, column 1']

    def test_precluded_bad_event(self):
        assert (2, 14) in positions('histories a b\nprecluded {a q}\n')

    def test_precluded_missing_event(self):
        diags = diagnostics_of('histories a b\nprecluded\nprecluded {a}\n')
        assert any("'precluded' needs an event" in d.message for d in diags)

    def test_title_needs_text(self):
        diags = diagnostics_of('title\nhistories a\nprecluded {a}\n')
        assert any("'title' needs text" in d.message for d in diags)

    @pytest.mark.parametrize('separator', ['\f', '\v', '\x1c', '\x85', '\u2028', '\u2029'])
    def test_only_newlines_end_lines(self, separator):
        # str.splitlines would end line 1 at the separator and report 'b'
        # as a directive on line 2, and the bad label on line 4
        text = f'title a{separator}b\nhistories a b\nprecluded {{a c}}\n'
        assert [str(d) for d in diagnostics_of(text)] == [
            "3:14: error: unknown history label 'c'"]
        scenario = parse_scenario(text.replace(' c}', '}'))
        assert scenario.title == f'a{separator}b'
        assert parse_scenario(render_scenario(scenario)) == scenario

    @pytest.mark.parametrize('newline', ['\n', '\r\n', '\r'])
    def test_each_universal_newline_ends_a_line(self, newline):
        text = newline.join(['histories a b', '', 'precluded {a q}', ''])
        assert positions(text) == [(3, 14)]

    def test_all_problems_reported_at_once(self):
        text = ('histories a b\n'
                'amplitude a 1/0\n'
                'amplitude q 1\n'
                'frobnicate\n')
        diags = diagnostics_of(text)
        assert len(diags) >= 3
        lines = {d.line for d in diags}
        assert {2, 3, 4} <= lines


class TestMutationCorpus:
    """Every outcome of parsing a seeded corpus of mutated scenarios, pinned.

    Each text is a bundled or small scenario with one to three lines or
    tokens deleted, inserted, replaced or duplicated.  The digest covers
    each outcome in turn: the diagnostics, in order, or the canonical
    render of what parsed.  It was recorded from the parser as it stood
    before diagnostics were routed through one path, so any change to a
    message, a position, their order or a parse result moves it.
    """

    SEEDS = (
        'histories a b c\namplitude a 1\namplitude b 1/2-1/2i\namplitude c -1\n'
        'block a b\nblock c\n',
        'title t\nhistories p q\namplitude p 2i\namplitude q 1\n',
        'histories x y\ndmatrix 1 1/2+1/2i\ndmatrix 1/2-1/2i 1\n',
        'histories a b c\ndmatrix 1 -1 0\ndmatrix -1 1 0\ndmatrix 0 0 1\n',
        'histories a b c\nprecluded {a}\nprecluded b+c\nprecluded {}\n',
    )
    # '\n' is the only line break the mutations make
    TOKENS = ('title', 'histories', 'amplitude', 'block', 'dmatrix', 'precluded',
              'frobnicate', '#', '', 'a', 'b', 'c', 'p', 'q', 'x', 'y', 'g1', 'b*c',
              '0', '1', '-1', '1/2', '1/0', '2i', '1.5', '3/2-1/2i', '1/2+1/2i',
              '{a}', '{a q}', '{}', 'a+b', 'a+', '{a', '}')
    DIGEST = '1d863e9d9ba3e3d65e5b29dee99d7095f8f6a01148dad0489a4d9d5560825acb'

    @staticmethod
    def mutate(rng, text):
        lines = text.split('\n')
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(('delete', 'insert', 'replace', 'duplicate'))
            k = rng.randrange(len(lines))
            if rng.random() < 0.5:  # a whole line
                new = ' '.join(rng.choice(TestMutationCorpus.TOKENS)
                               for _ in range(rng.randint(0, 4)))
                if op == 'delete' and len(lines) > 1:
                    del lines[k]
                elif op == 'insert':
                    lines.insert(k, new)
                elif op == 'replace':
                    lines[k] = new
                else:
                    lines.insert(rng.randrange(len(lines) + 1), lines[k])
                continue
            tokens = lines[k].split(' ')
            j = rng.randrange(len(tokens))
            token = rng.choice(TestMutationCorpus.TOKENS)
            if op == 'delete':
                del tokens[j]
            elif op == 'insert':
                tokens.insert(j, token)
            elif op == 'replace':
                tokens[j] = token
            else:
                tokens.insert(j, tokens[j])
            lines[k] = ' '.join(tokens)
        return '\n'.join(lines)

    def test_outcomes_pinned(self):
        rng = random.Random(20071)
        bases = [load_bundled(name) for name in bundled_names()] + list(self.SEEDS)
        digest = hashlib.sha256()
        parsed = 0
        for k in range(5000):
            text = self.mutate(rng, bases[k % len(bases)])
            try:
                outcome = 'ok\n' + render_scenario(parse_scenario(text))
                parsed += 1
            except ScenarioError as exc:
                outcome = 'error\n' + str(exc)
            digest.update(outcome.encode() + b'\0')
        assert 500 < parsed < 4500  # the corpus exercises both outcomes
        assert digest.hexdigest() == self.DIGEST


def test_public_names_pinned():
    expected = [
        'ALWAYS_FALSE', 'ALWAYS_TRUE', 'CONTINGENT', 'Coevent', 'DecoherenceMatrix',
        'Event', 'GaussianRational', 'GuardError', 'ParseDiagnostic', 'ParseError',
        'PreclusionSet', 'SPACE_GUARD', 'SampleSpace', 'Scenario', 'ScenarioError',
        'SchemeResult', 'SpaceMismatchError', 'TRUTH_TABLE_GUARD', 'VACUOUS',
        '__version__', 'bundled_names', 'classical', 'ideal_generator',
        'ideal_scheme', 'infer', 'linear_scheme', 'load_bundled', 'monomial',
        'multiplicative_scheme', 'parse_coevent', 'parse_complex', 'parse_event',
        'parse_scenario', 'render_coevent', 'render_complex', 'render_event',
        'render_result', 'render_scenario']
    assert coevents.__all__ == expected
    namespace = {}
    exec('from coevents import *', namespace)
    assert sorted(set(namespace) - {'__builtins__'}) == expected


class TestRenderResult:

    def test_three_slit_text(self, three_slit):
        result = ideal_scheme(three_slit.preclusion_set())
        assert render_result(result) == (
            'a*+b*+c*  unital=yes  complexity=3\n'
            'a*b*  unital=yes  complexity=2\n'
            'generating set: total complexity 5, unique\n'
            '  a*+b*+c*  unital=yes  complexity=3\n'
            '  a*b*  unital=yes  complexity=2\n')

    def test_two_slit_text_warns_about_uncovered(self, two_slit):
        text = render_result(ideal_scheme(two_slit.preclusion_set()))
        assert 'g1*+g3*  unital=no  complexity=2' in text
        assert text.endswith(
            'warning: unital coevents do not cover all non-precluded events: '
            '{g1} {g3}\n')

    def test_no_viable_coevent(self):
        scenario = parse_scenario(load_bundled('everything_precluded'))
        result = multiplicative_scheme(scenario.preclusion_set())
        assert render_result(result) == 'no viable coevent\n'

    def test_json_schema(self, three_slit):
        result = ideal_scheme(three_slit.preclusion_set())
        document = json.loads(render_result(result, 'json'))
        assert document['scheme'] == 'ideal'
        assert document['coevents'] == ['a*+b*+c*', 'a*b*']
        assert document['total_complexity'] == 5
        assert document['unique'] is True
        assert document['generating_sets'] == [['a*+b*+c*', 'a*b*']]
        assert document['uncovered_by_unital'] == []
        assert [g['polynomial'] for g in document['generating_set']] == [
            'a*+b*+c*', 'a*b*']
        assert all(set(g) == {'polynomial', 'unital', 'complexity'}
                   for g in document['generating_set'])
        assert 'diagnostics' in document

    def test_json_for_linear(self, three_slit):
        result = linear_scheme(three_slit.preclusion_set())
        document = json.loads(render_result(result, 'json'))
        assert document['coevents'] == ['a*+b*+c*']
        assert 'generating_set' not in document

    def test_unknown_format(self, three_slit):
        result = linear_scheme(three_slit.preclusion_set())
        with pytest.raises(ValueError):
            render_result(result, 'yaml')

    def test_deterministic(self, three_slit):
        p = three_slit.preclusion_set()
        assert render_result(ideal_scheme(p), 'json') == render_result(
            ideal_scheme(p), 'json')
