"""Exit codes, output bytes, and error reporting of the command line."""

import doctest
import itertools
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coevents
from coevents import DecoherenceMatrix, PreclusionSet, SchemeResult, load_bundled
from coevents import cli
from coevents.cli import main

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / 'pyproject.toml'
# child processes import the same coevents package as this test process
CHILD_ENV = {**os.environ,
             'PYTHONPATH': str(Path(coevents.__file__).resolve().parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_text(capsys):
    code, out, err = run(capsys, 'solve', 'three_slit', '--scheme', 'multiplicative')
    assert code == 0
    assert out == 'a*b*  unital=yes  complexity=2\n'
    assert err == ''


def test_solve_json(capsys):
    code, out, _ = run(capsys, 'solve', 'three_slit', '--scheme', 'ideal',
                       '--format', 'json')
    assert code == 0
    document = json.loads(out)
    assert document['coevents'] == ['a*+b*+c*', 'a*b*']
    assert document['unique'] is True


def test_solve_no_viable_coevent(capsys):
    code, out, _ = run(capsys, 'solve', 'everything_precluded',
                       '--scheme', 'multiplicative')
    assert code == 1
    assert out == 'no viable coevent\n'


def test_solve_from_path(tmp_path, capsys):
    f = tmp_path / 'scn'
    f.write_text('histories a b\nprecluded {a}\n')
    code, out, _ = run(capsys, 'solve', str(f), '--scheme', 'multiplicative')
    assert code == 0
    assert out == 'b*  unital=yes  complexity=1\n'


def test_preclusions(capsys):
    code, out, _ = run(capsys, 'preclusions', 'two_slit')
    assert code == 0
    assert out == '{}\n{g1 g3}\n'


def test_eval(capsys):
    code, out, _ = run(capsys, 'eval', 'three_slit',
                       '--coevent', 'a*b*', '--event', '{a c}')
    assert code == 0
    assert out == '0\n'
    code, out, _ = run(capsys, 'eval', 'three_slit',
                       '--coevent', 'a*b*', '--event', '{a b}')
    assert out == '1\n'


def test_infer(capsys):
    code, out, _ = run(capsys, 'infer', 'ab_correlation', '--scheme',
                       'multiplicative', '--given', '{AB Ab}=1',
                       '--query', '{AB aB}')
    assert code == 0
    assert out == 'always-true\n'


def test_infer_rejects_bad_given(capsys):
    code, _, err = run(capsys, 'infer', 'ab_correlation', '--scheme',
                       'multiplicative', '--given', '{AB Ab}=2',
                       '--query', '{AB aB}')
    assert code == 2
    assert 'EVENT=0 or EVENT=1' in err


def test_check_default(capsys):
    code, out, _ = run(capsys, 'check', 'two_slit')
    assert code == 0
    assert out == ('strong positivity: PASS\n'
                   'null-set absorption: PASS\n'
                   'classical preclusion set: no\n')


def test_check_explicit_scenario_skips_matrix_checks(capsys):
    code, out, _ = run(capsys, 'check', 'ab_correlation', '--strong-positivity')
    assert code == 0
    assert 'skipped (no decoherence matrix)' in out


def test_check_failure_exits_1(tmp_path, capsys):
    f = tmp_path / 'scn'
    f.write_text('histories x y\ndmatrix 0 1\ndmatrix 1 0\n')
    code, out, _ = run(capsys, 'check', str(f))
    assert code == 1
    assert 'strong positivity: FAIL' in out
    assert 'null-set absorption: FAIL' in out


def test_check_classical_limit(tmp_path, capsys):
    f = tmp_path / 'scn'
    f.write_text('histories a b c\nprecluded {a}\nprecluded {b}\nprecluded {a b}\n')
    code, out, _ = run(capsys, 'check', str(f), '--classical')
    assert code == 0
    assert out == 'classical preclusion set: yes\nclassical limit: PASS\n'


def test_check_oracle(capsys):
    code, out, _ = run(capsys, 'check', 'three_slit', '--oracle')
    assert code == 0
    assert out == ('oracle multiplicative: PASS\n'
                   'oracle linear: PASS\n'
                   'oracle ideal: PASS\n')


def test_check_oracle_guard_skip(capsys):
    code, out, _ = run(capsys, 'check', 'two_slit', '--oracle')
    assert code == 0
    assert 'oracle ideal: skipped (n=4 exceeds guard 3)' in out


def _admit_nothing(preclusions):
    return SchemeResult(scheme='broken', coevents=())


def test_check_classical_limit_failure_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, 'multiplicative_scheme', _admit_nothing)
    f = tmp_path / 'scn'
    f.write_text('histories a b c\nprecluded {a}\nprecluded {b}\nprecluded {a b}\n')
    code, out, _ = run(capsys, 'check', str(f), '--classical')
    assert code == 1
    assert out == ('classical preclusion set: yes\nclassical limit: FAIL '
                   '(multiplicative scheme is not the classical atom coevents)\n')


@pytest.mark.parametrize('scheme', ['multiplicative', 'linear', 'ideal'])
def test_check_oracle_failure_exits_1(capsys, monkeypatch, scheme):
    monkeypatch.setattr(cli, f'{scheme}_scheme', _admit_nothing)
    code, out, _ = run(capsys, 'check', 'three_slit', '--oracle')
    assert code == 1
    assert out == ''.join(f'oracle {name}: {"FAIL" if name == scheme else "PASS"}\n'
                          for name in ('multiplicative', 'linear', 'ideal'))


@pytest.mark.parametrize('argv', [
    ('preclusions',),
    ('check',),
    ('check', '--strong-positivity'),
    ('solve', '--scheme', 'multiplicative'),
])
def test_measure_guard_exits_2(tmp_path, capsys, argv):
    # diag(1, -1, ...): entry-built and not PSD, so absorption needs the nulls
    f = tmp_path / 'scn'
    f.write_text('histories ' + ' '.join(f'h{i}' for i in range(15)) + '\n' + ''.join(
        'dmatrix ' + ' '.join(str((-1) ** i) if i == j else '0' for j in range(15)) + '\n'
        for i in range(15)))
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert out == ''
    # positivity enumerates nothing, so check stops at the absorption guard
    work = 'null-absorption check' if argv[0] == 'check' else 'preclusion derivation'
    assert err == (f'error: {work}: 15 histories, past MEASURE_GUARD = 14 '
                   '(2^15 = 32768 events)\n')


@pytest.mark.parametrize('argv', [
    ('preclusions',),
    ('check',),
    ('solve', '--scheme', 'multiplicative'),
])
def test_amplitude_null_guard_exits_2(tmp_path, capsys, argv):
    # 15 zero amplitudes: all 2^15 events are null; check passes positivity
    # and absorption without them and stops at the classical check
    labels = [f'h{i}' for i in range(15)]
    f = tmp_path / 'scn'
    f.write_text('histories ' + ' '.join(labels) + '\n'
                 + ''.join(f'amplitude {l} 0\n' for l in labels))
    code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out) == (2, '')
    assert err == ('error: preclusion derivation: 32768 null events, '
                   'past 2^MEASURE_GUARD = 16384\n')
    code, out, _ = run(capsys, 'check', str(f), '--strong-positivity')
    assert (code, out) == (0, 'strong positivity: PASS\nnull-set absorption: PASS\n')


def test_single_block_of_24_answers_within_a_second(tmp_path, capsys):
    # ±3^k for even k and ±3^k·i for odd k, k < 12: balanced ternary makes a
    # subset null exactly when it takes both or neither of each pair
    labels = [f'h{i}' for i in range(24)]
    values = [f'{sign}{3 ** k}' + ('i' if k % 2 else '') for k in range(12) for sign in ('-', '')]
    f = tmp_path / 'scn'
    f.write_text('histories ' + ' '.join(labels) + '\n'
                 + ''.join(f'amplitude {l} {v}\n' for l, v in zip(labels, values)))
    pairs = [f'h{2 * k} h{2 * k + 1}' for k in range(12)]
    start = time.perf_counter()
    code, out, err = run(capsys, 'preclusions', str(f))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, '')
    nulls = out.splitlines()
    assert len(nulls) == 1 << 12
    assert nulls[:3] == ['{}', '{' + pairs[0] + '}', '{' + pairs[1] + '}']
    assert nulls[-1] == '{' + ' '.join(pairs) + '}'
    start = time.perf_counter()
    code, out, err = run(capsys, 'check', str(f))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, '')
    assert out == ('strong positivity: PASS\nnull-set absorption: PASS\n'
                   'classical preclusion set: no\n')


@pytest.mark.parametrize('flags', [(), ('--strong-positivity', '--classical', '--oracle')])
def test_check_enumerates_each_measure_once(tmp_path, capsys, monkeypatch, flags):
    # one matrix and one preclusion derivation per check; entry by entry,
    # the derivation measures each of the 2^3 events once, while amplitudes
    # take per-block subset sums and measure no event
    counts = {}
    measure, init = DecoherenceMatrix.measure, DecoherenceMatrix.__init__
    preclusion_init = PreclusionSet.__init__

    def counting_measure(self, event):
        counts['measure'] += 1
        return measure(self, event)

    def counting_init(self, *args, **kwargs):
        counts['matrix'] += 1
        init(self, *args, **kwargs)

    def counting_preclusions(self, space, events=()):
        counts['derivations'] += 1  # both scenarios derive their set from a measure
        preclusion_init(self, space, events)
    monkeypatch.setattr(DecoherenceMatrix, 'measure', counting_measure)
    monkeypatch.setattr(DecoherenceMatrix, '__init__', counting_init)
    monkeypatch.setattr(PreclusionSet, '__init__', counting_preclusions)
    f = tmp_path / 'scn'
    f.write_text('histories a b c\ndmatrix 1 -1 0\ndmatrix -1 1 0\ndmatrix 0 0 1\n')
    for scenario, events in ((str(f), 8), ('three_slit', 0)):
        counts.update(measure=0, matrix=0, derivations=0)
        code, _, _ = run(capsys, 'check', scenario, *flags)
        assert code == 0
        assert counts == {'measure': events, 'matrix': 1, 'derivations': 1}, scenario


@pytest.mark.parametrize('argv', [('preclusions',), ('check',),
                                  ('solve', '--scheme', 'ideal')])
def test_scenario_file_with_byte_order_mark(tmp_path, capsys, argv):
    f = tmp_path / 'scn'
    f.write_bytes(b'\xef\xbb\xbf' + load_bundled('two_slit').encode('utf-8'))
    bundled = run(capsys, argv[0], 'two_slit', *argv[1:])
    assert run(capsys, argv[0], str(f), *argv[1:])[:2] == bundled[:2]


@pytest.mark.parametrize('data, diagnostic', [
    (b'histories a b\n\xffprecluded {a}\n',
     '2:1: error: byte 0xff is not UTF-8 text (invalid start byte)'),
    (b'\xef\xbb\xbftitle \xc3\xa9\rhistories a b\r\nprecluded {\xe2\x82}\n',
     '3:12: error: byte 0xe2 is not UTF-8 text (invalid continuation byte)'),
], ids=['line-start', 'after-bom-and-old-line-ends'])
def test_scenario_file_not_utf8_reports_its_position(tmp_path, capsys, data, diagnostic):
    f = tmp_path / 'scn'
    f.write_bytes(data)
    assert run(capsys, 'preclusions', str(f)) == (2, '', diagnostic + '\n')


def test_malformed_scenario_reports_diagnostics(tmp_path, capsys):
    f = tmp_path / 'scn'
    f.write_text('histories a b\namplitude a 1/0\namplitude b 1\nbogus\n')
    code, out, err = run(capsys, 'solve', str(f), '--scheme', 'linear')
    assert code == 2
    assert out == ''
    assert '2:15: error: zero denominator' in err
    assert '4:1: error: unknown directive' in err


def test_unknown_scenario_name(capsys):
    code, _, err = run(capsys, 'solve', 'four_slit', '--scheme', 'linear')
    assert code == 2
    assert 'four_slit' in err and 'bundled' in err


def complements_of(groups, size):
    """Scenario over the groups' histories precluding the complement of
    every `size`-subset of each group."""
    labels = [label for group in groups for label in group]
    lines = [f'histories {" ".join(labels)}\n']
    for group in groups:
        for kept in itertools.combinations(group, size):
            lines.append('precluded {' + ' '.join(l for l in labels if l not in kept) + '}\n')
    return ''.join(lines)


def test_multiplicative_answer_budget(tmp_path, capsys):
    # 4 groups of 6: a minimal transversal takes 3 of each group, C(6,3)^4 =
    # 160,000 answers, refused once the count passes 2^14
    groups = [[f'h{6 * g + i}' for i in range(6)] for g in range(4)]
    f = tmp_path / 'scn'
    f.write_text(complements_of(groups, 4))
    assert len(f.read_text().splitlines()) == 61
    start = time.perf_counter()
    code, out, err = run(capsys, 'solve', str(f), '--scheme', 'multiplicative')
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, '')
    assert err == ('error: multiplicative scheme: 16385 minimal transversals, '
                   'past 2^MEASURE_GUARD = 16384\n')
    # 8 disjoint triples: 3^8 = 6,561 answers stay under the budget
    f.write_text(complements_of([[f'h{3 * g + i}' for i in range(3)] for g in range(8)], 3))
    code, out, err = run(capsys, 'solve', str(f), '--scheme', 'multiplicative')
    assert (code, err) == (0, '')
    assert len(out.splitlines()) == 3 ** 8


@pytest.mark.parametrize('argv', [
    ('solve', 'two_slit', '--scheme', 'linear'),
    ('infer', 'two_slit', '--scheme', 'linear', '--query', '{g1}'),
])
def test_minimal_among_unital_is_a_usage_error(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, '--minimal-among-unital')
    assert (code, out) == (2, '')
    assert 'unrecognized arguments: --minimal-among-unital' in err


def test_bad_coevent_argument(capsys):
    code, _, err = run(capsys, 'eval', 'three_slit',
                       '--coevent', 'a*+q*', '--event', '{a}')
    assert code == 2
    assert 'column 4' in err


def test_usage_error_prints_grammar(capsys):
    code, _, err = run(capsys, 'solve', 'two_slit', '--scheme', 'quadratic')
    assert code == 2
    assert 'event syntax' in err
    assert 'bundled scenarios' in err


def test_missing_subcommand(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, '--help')[0] == 0


def test_deterministic_output(capsys):
    first = run(capsys, 'solve', 'two_slit', '--scheme', 'ideal', '--format', 'json')
    second = run(capsys, 'solve', 'two_slit', '--scheme', 'ideal', '--format', 'json')
    assert first == second


def fresh_process(argv):
    """(exit code, stdout, stderr) of the same call in a new interpreter."""
    proc = subprocess.run([sys.executable, '-m', 'coevents', *argv],
                          capture_output=True, text=True,
                          env={**CHILD_ENV, 'COLUMNS': '80'})
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_built_lazily_and_once():
    proc = subprocess.run(
        [sys.executable, '-c',
         'from coevents import cli\n'
         'assert cli._build_parser.cache_info().currsize == 0\n'
         'cli.main(["preclusions", "two_slit"])\n'
         'cli.main(["preclusions", "three_slit"])\n'
         'info = cli._build_parser.cache_info()\n'
         'assert (info.misses, info.hits) == (1, 1), info\n'],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr


def test_given_does_not_leak_into_the_next_call(capsys):
    given = ('infer', 'ab_correlation', '--scheme', 'multiplicative',
             '--given', '{AB Ab}=1', '--query', '{AB aB}')
    bare = ('infer', 'ab_correlation', '--scheme', 'multiplicative',
            '--query', '{AB aB}')
    assert run(capsys, *given) == (0, 'always-true\n', '')
    # with the first call's --given left in place the answer would be always-true
    assert run(capsys, *bare) == (0, 'contingent\n', '') == fresh_process(bare)
    assert run(capsys, *given) == (0, 'always-true\n', '')


def test_usage_error_leaves_the_parser_intact(capsys, monkeypatch):
    monkeypatch.setenv('COLUMNS', '80')
    bad = ('solve', 'two_slit', '--scheme', 'quadratic')
    good = ('solve', 'two_slit', '--scheme', 'ideal', '--format', 'json')
    first = run(capsys, *bad)
    assert first[0] == 2
    assert first == fresh_process(bad)
    assert run(capsys, *good) == fresh_process(good)
    assert run(capsys, *bad) == first


def check_console_script(command, env=None):
    proc = subprocess.run([*command, 'solve', 'three_slit', '--scheme', 'ideal'],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == 'a*+b*+c*  unital=yes  complexity=3'
    # a non-zero return value of main() must reach the shell as the exit code
    proc = subprocess.run([*command, 'solve', 'everything_precluded',
                           '--scheme', 'multiplicative'],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == 'no viable coevent\n'


def test_installed_entry_point(tmp_path):
    # the console script declared in pyproject.toml, run through the same
    # wrapper an installer generates for it, in one subprocess round trip
    toml = tomllib or pytest.importorskip('tomli')
    with PYPROJECT.open('rb') as f:
        scripts = toml.load(f)['project'].get('scripts', {})
    assert 'coevents' in scripts
    module, _, attr = scripts['coevents'].partition(':')
    wrapper = tmp_path / 'coevents'
    wrapper.write_text(f'import sys\n'
                       f'from {module} import {attr.split(".")[0]}\n'
                       f'sys.exit({attr}())\n')
    check_console_script([sys.executable, str(wrapper)], env=CHILD_ENV)


@pytest.mark.skipif(shutil.which('coevents') is None,
                    reason='coevents console script not installed')
def test_console_script_on_path():
    # the executable an installer put on PATH, with its own interpreter
    check_console_script([shutil.which('coevents')])


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, '-m', 'coevents', 'preclusions', 'three_slit'],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert proc.stdout == '{}\n{a c}\n{b c}\n'


def test_cold_start_defers_the_oracle_and_json(tmp_path):
    # modules the site startup loads count for the bare interpreter as well
    listing = 'import sys; print(*sys.modules)'
    bare, loaded = (set(subprocess.run([sys.executable, '-c', code], capture_output=True,
                                       text=True, env=CHILD_ENV, check=True).stdout.split())
                    for code in (listing, 'import coevents, coevents.cli; ' + listing))
    assert 'coevents.cli' in loaded
    golden = Path(__file__).resolve().parent / 'golden' / 'cli.json'
    cases = {case['id']: case for case in json.loads(golden.read_text())['cases']}
    # a whole bundled-name run from elsewhere; -X importtime lists what it imports
    proc = subprocess.run([sys.executable, '-X', 'importtime', '-m', 'coevents',
                           *cases['three_slit/preclusions']['argv']],
                          capture_output=True, text=True, env=CHILD_ENV, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, cases['three_slit/preclusions']['stdout'])
    timings = proc.stderr.splitlines()
    assert all(line.startswith('import time:') for line in timings)
    run_loaded = {line.rsplit('|', 1)[1].strip() for line in timings}
    assert 'coevents.cli' in run_loaded
    unused = {'dataclasses', 'inspect', 'json', 'coevents.oracle', 'importlib.resources',
              'zipfile', 'typing', 'pathlib'}
    assert not unused & (loaded - bare) and not unused & (run_loaded - bare)
    # a fresh process still loads them when asked: golden output, exit code included
    for name in ('three_slit/check-oracle', 'three_slit/solve-ideal-json'):
        case = cases[name]
        assert fresh_process(case['argv']) == (case['exit'], case['stdout'], case['stderr'])


def test_readme_examples_and_package_doctest(capsys):
    # each `$ coevents ...` example under README's "Command line", its
    # continuation lines joined, against the output shown below it
    readme = (PYPROJECT.parent / 'README.md').read_text(encoding='utf-8')
    section = readme.split('\n## Command line\n')[1].split('\n## ')[0]
    examples = re.findall(r'^\$ coevents ((?:.*\\\n)*.*)\n((?:(?!```).+\n)*)', section, re.M)
    assert len(examples) == 4
    for command, shown in examples:
        assert run(capsys, *shlex.split(command.replace('\\\n', ' '))) == (0, shown, '')
    result = doctest.testmod(coevents)
    assert result.failed == 0 and result.attempted > 0
