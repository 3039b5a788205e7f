"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import verify
import workloads

SPEC = json.loads((run.ROOT / 'BENCHMARK.json').read_text(encoding='utf-8'))


def _names(section):
    return {m['name']: m['unit'] for m in SPEC[section]}


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_workload_completes_at_tiny_size(workload):
    result = run.benchmark(workload, seed=3, seconds=0, trace=False, size='tiny', spawns=1)
    assert result['attempted'] > 0
    assert result['failures'] == []
    assert set(result['metrics']) == set(_names('end_to_end'))
    assert all(m['value'] > 0 for m in result['metrics'].values())


def test_metric_names_and_units_match_benchmark_json():
    assert run.END_TO_END == _names('end_to_end')
    assert run.PER_LAYER == _names('per_layer')
    assert [w['name'] for w in SPEC['workloads']] == list(workloads.WORKLOADS)


@pytest.mark.parametrize('trace', ['0', '1'])
def test_last_line_is_the_result_object(trace):
    proc = subprocess.run([sys.executable, 'bench/run.py', '--workload', 'cli_mix',
                           '--seed', '5', '--seconds', '0', '--trace', trace],
                          capture_output=True, text=True, cwd=run.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {'correct', 'attempted', 'failed', 'metrics'}
    assert last['correct'] and last['failed'] == 0 and last['attempted'] >= 1
    want = _names('end_to_end' if trace == '0' else 'per_layer')
    assert {k: v['unit'] for k, v in last['metrics'].items()} == want


def test_planted_wrong_output_counts_as_failed(monkeypatch):
    from coevents import schemes
    original = schemes.multiplicative_scheme

    def drops_minimality(preclusions):
        result = original(preclusions)
        # replace the first answer by a strictly larger monomial: still a
        # transversal, no longer minimal
        if not result.coevents or result.coevents[0].support == preclusions.space.full:
            return result
        phi = result.coevents[0]
        bigger = type(phi)._raw(phi.space, frozenset({preclusions.space.full.bits}))
        return dataclasses.replace(result, coevents=(bigger,) + result.coevents[1:])

    monkeypatch.setattr(schemes, 'multiplicative_scheme', drops_minimality)
    result = run.benchmark('transversal', seed=4, seconds=0, trace=False, size='tiny',
                           spawns=1)
    assert result['failed'] > 0
    assert any('not minimal' in p for f in result['failures'] for p in f['problems'])


def test_planted_missing_answer_counts_as_failed(monkeypatch):
    from coevents import schemes
    original = schemes.linear_scheme

    def drops_last(preclusions):
        result = original(preclusions)
        return dataclasses.replace(result, coevents=result.coevents[:-1])

    monkeypatch.setattr(schemes, 'linear_scheme', drops_last)
    result = run.benchmark('transversal', seed=4, seconds=0, trace=False, size='tiny',
                           spawns=1)
    assert result['failed'] > 0
    assert any('answers missing' in p for f in result['failures'] for p in f['problems'])


def test_checks_reject_wrong_answers():
    model = verify.read_scenario('histories a b c\namplitude a 1\namplitude b 1\n'
                                 'amplitude c -1\n')
    # a+c and b+c cancel: {a c}, {b c} are precluded
    assert model.precluded == {0, 0b101, 0b110}
    assert verify.check_multiplicative(model, [frozenset({0b011})]) == []
    assert verify.check_multiplicative(model, [frozenset({0b111})])  # not minimal
    assert verify.check_multiplicative(model, [frozenset({0b001})])  # misses {b}
    assert verify.check_linear(model, [frozenset({0b100})])          # odd overlap
    assert verify.check_linear(model, [frozenset({1, 2, 4})]) == []
    assert verify.check_multiplicative(model, [])                    # {a b} missing
    assert verify.check_linear(model, [])                            # {a b c} missing
    assert verify.check_cli(model, ['eval', 'x', '--coevent', 'a*', '--event', '{a}'],
                            0, '0\n', '', 'ok')
    assert verify.check_cli(None, ['preclusions', 'x'], 1, '', 'oops', 'malformed')


def test_own_preclusions_agree_with_the_program_on_bundled_scenarios():
    from coevents import load_bundled, parse_scenario
    for name in workloads.BUNDLED:
        text = load_bundled(name)
        assert verify.read_scenario(text).precluded == parse_scenario(text).preclusion_set().masks


def _snapshot():
    state = {}
    for name in tracer.MODULES:
        module = importlib.import_module(name)
        state[name] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith('coevents'):
                state[f'{name}.{value.__name__}'] = dict(vars(value))
    return state


def test_traced_run_restores_every_wrapped_name():
    before = _snapshot()
    result = run.benchmark('interference', seed=2, seconds=0, trace=True, size='tiny',
                           spawns=1)
    after = _snapshot()
    assert result['failures'] == []
    assert set(result['metrics']) == set(_names('per_layer'))
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        changed = [a for a in attrs if attrs[a] is not after[owner][a]]
        assert changed == [], owner


def test_instrumentation_wraps_the_names_callers_use():
    from coevents import cli, schemes
    original = schemes.multiplicative_scheme
    with tracer.Instrumentation(tracer.Tracer()) as inst:
        assert cli.multiplicative_scheme is not original
        assert cli.multiplicative_scheme is schemes.multiplicative_scheme
        assert len(inst.saved) > len(tracer.FUNCTIONS)
    assert cli.multiplicative_scheme is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(run.BENCH, tmp_path / 'bench',
                    ignore=shutil.ignore_patterns('out', '__pycache__'))
    proc = subprocess.run([sys.executable, 'bench/run.py', '--workload', 'cli_mix',
                           '--seed', '1', '--seconds', '1', '--trace', '0'],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
