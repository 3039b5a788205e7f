"""Spans around the public entry points of every ``coevents`` module.

The program has no tracing of its own, so the benchmark installs wrappers
from outside: each entry point is replaced at every name callers look it up
by (``coevents.cli.multiplicative_scheme`` as well as
``coevents.schemes.multiplicative_scheme``), and methods are replaced on
their classes.  :meth:`Instrumentation.restore` puts every original back;
nothing under ``src/`` is edited.

A span records its name, start, end, parent and request.  Spans are kept in
memory and written when the run ends.  A span's self time is its duration
minus the durations of its child spans.  Very frequent calls (coevent
evaluation) are *light* spans: they are timed and counted, and their time
is taken out of their parent's self time, but they are not stored one by
one.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ('coevents', 'coevents.events', 'coevents.coevent', 'coevents.measure',
           'coevents.scenario', 'coevents.schemes', 'coevents.oracle', 'coevents.cli')

# (module, function, span name)
FUNCTIONS = (
    ('events', 'parse_event', 'events.parse_event'),
    ('events', 'render_event', 'events.render_event'),
    ('coevent', 'parse_coevent', 'coevent.parse'),
    ('coevent', 'render_coevent', 'coevent.render'),
    ('scenario', 'parse_scenario', 'scenario.parse'),
    ('scenario', 'render_result', 'scenario.render'),
    ('scenario', 'render_scenario', 'scenario.render'),
    ('scenario', 'load_bundled', 'scenario.bundled'),
    ('scenario', 'bundled_names', 'scenario.bundled'),
    ('schemes', 'multiplicative_scheme', 'schemes.multiplicative'),
    ('schemes', 'linear_scheme', 'schemes.linear'),
    ('schemes', 'ideal_scheme', 'schemes.ideal'),
    ('schemes', 'ideal_generator', 'schemes.ideal_generator'),
    ('schemes', 'infer', 'schemes.infer'),
    ('oracle', 'brute_multiplicative', 'oracle.multiplicative'),
    ('oracle', 'brute_linear', 'oracle.linear'),
    ('oracle', 'brute_min_cover', 'oracle.min_cover'),
    ('oracle', 'brute_ideal_closure', 'oracle.ideal_closure'),
    ('cli', 'main', 'cli.main'),
)

# (module, class, attribute, span name, light)
METHODS = (
    ('events', 'SampleSpace', '__init__', 'events.space', False),
    ('coevent', 'Coevent', 'from_truth_table', 'coevent.from_truth_table', False),
    ('coevent', 'Coevent', '__call__', 'coevent.evaluate', True),
    ('coevent', 'Coevent', 'is_preclusive', 'coevent.is_preclusive', True),
    ('measure', 'DecoherenceMatrix', '__init__', 'measure.matrix', False),
    ('measure', 'DecoherenceMatrix', 'from_amplitudes', 'measure.matrix', False),
    ('measure', 'DecoherenceMatrix', 'preclusions', 'measure.preclusions', False),
    ('measure', 'DecoherenceMatrix', 'is_strongly_positive', 'measure.positivity', False),
    ('measure', 'DecoherenceMatrix', 'null_absorption_holds', 'measure.absorption', False),
    ('measure', 'PreclusionSet', '__init__', 'measure.preclusion_set', False),
)


class Tracer:
    """In-memory spans, self times per span name, and counters."""

    def __init__(self):
        self.on = False
        self.request: int | None = None
        self.spans: list[tuple] = []     # (id, parent id, request, name, start, end)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.by_request: defaultdict[int | None, defaultdict[str, float]] = \
            defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []     # [id, name, start, child seconds]
        self._next_id = 0

    @property
    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def push(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def pop(self, keep: bool = True) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        own = duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_s[name] += own
        self.calls[name] += 1
        self.by_request[self.request][name] += own
        if keep:
            self.spans.append((span_id, parent[0] if parent else None, self.request,
                               name, start, end))

    def write(self, path: Path) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        with path.open('w', encoding='utf-8') as f:
            for span_id, parent, request, name, start, end in sorted(
                    self.spans, key=lambda s: s[4]):
                f.write(json.dumps({'id': span_id, 'parent': parent, 'request': request,
                                    'name': name, 'start_s': start - origin,
                                    'end_s': end - origin}) + '\n')


def _count_diagnostics(span: str):
    def after(tracer: Tracer, result) -> None:
        for key, value in result.diagnostics.items():
            tracer.counts[f'{span}.{key}'] += value
    return after


def _count_zeros(tracer: Tracer, result) -> None:
    tracer.counts['measure.zeros_found'] += len(result.masks)


AFTER = {'schemes.multiplicative': _count_diagnostics('schemes.multiplicative'),
         'schemes.linear': _count_diagnostics('schemes.linear'),
         'schemes.ideal': _count_diagnostics('schemes.ideal'),
         'measure.preclusions': _count_zeros}


class Instrumentation:
    """Install the wrappers on entry; restore every original on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> 'Instrumentation':
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name: str, light: bool = False):
        tracer = self.tracer
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(keep=not light)
            if after is not None:
                after(tracer, result)
            return result
        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in MODULES}
        for module_name, function, span in FUNCTIONS:
            original = getattr(modules[f'coevents.{module_name}'], function)
            wrapper = self._wrap(original, span)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for module_name, class_name, attr, span, light in METHODS:
            cls = getattr(modules[f'coevents.{module_name}'], class_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(raw.__func__, span, light)))
            else:
                self._replace(cls, attr, self._wrap(raw, span, light))
        self._count_examined(modules['coevents.measure'].DecoherenceMatrix)

    def _count_examined(self, cls) -> None:
        """Count ``measure`` calls made by ``preclusions``: events examined."""
        tracer = self.tracer
        original = vars(cls)['measure']

        @functools.wraps(original)
        def measure(*args, **kwargs):
            if tracer.on and tracer.current == 'measure.preclusions':
                tracer.counts['measure.events_examined'] += 1
            return original(*args, **kwargs)
        self._replace(cls, 'measure', measure)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)
