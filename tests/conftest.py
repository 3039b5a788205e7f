import tempfile

import pytest

from coevents import SampleSpace, load_bundled, parse_scenario

# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_LINES: list[str] = []

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    # Hypothesis caches source constants and Unicode tables under ./.hypothesis
    # even without an example database; a run keeps them in a temporary folder
    try:
        from hypothesis import configuration
    except ImportError:
        return
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix='hypothesis-')
    configuration.set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    if _HYPOTHESIS_HOME in config.stash:
        config.stash[_HYPOTHESIS_HOME].cleanup()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section('acceptance criteria')
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope='session')
def acceptance_report():
    return ACCEPTANCE_LINES


@pytest.fixture
def xy():
    return SampleSpace(['x', 'y'])


@pytest.fixture
def abc():
    return SampleSpace(['a', 'b', 'c'])


@pytest.fixture
def two_slit():
    return parse_scenario(load_bundled('two_slit'))


@pytest.fixture
def three_slit():
    return parse_scenario(load_bundled('three_slit'))


@pytest.fixture
def ab_correlation():
    return parse_scenario(load_bundled('ab_correlation'))
