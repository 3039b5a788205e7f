"""Exact coevent solvers for quantal measures on finite history spaces.

The pipeline: build a :class:`SampleSpace` of histories, fix a measure
(amplitudes, a decoherence matrix, or an explicit preclusion list), derive
the :class:`PreclusionSet`, and hand it to one of the three scheme solvers
to get the admissible coevents.  Everything is exact rational arithmetic;
no floats anywhere.

>>> from coevents import SampleSpace, DecoherenceMatrix, multiplicative_scheme
>>> space = SampleSpace(['a', 'b', 'c'])
>>> d = DecoherenceMatrix.from_amplitudes(space, [1, 1, -1])
>>> [str(phi) for phi in multiplicative_scheme(d.preclusions()).coevents]
['a*b*']
"""

from types import ModuleType as _ModuleType

from .coevent import (TRUTH_TABLE_GUARD, Coevent, classical, monomial,
                      parse_coevent, render_coevent)
from .events import (SPACE_GUARD, Event, GuardError, ParseError, SampleSpace,
                     SpaceMismatchError, parse_event, render_event)
from .measure import (DecoherenceMatrix, GaussianRational, PreclusionSet,
                      parse_complex, render_complex)
from .scenario import (ParseDiagnostic, Scenario, ScenarioError,
                       bundled_names, load_bundled, parse_scenario,
                       render_result, render_scenario)
from .schemes import (ALWAYS_FALSE, ALWAYS_TRUE, CONTINGENT, VACUOUS,
                      SchemeResult, ideal_generator, ideal_scheme, infer,
                      linear_scheme, multiplicative_scheme)

__version__ = '0.1.0'

# every name imported above, and the version; not the submodules, which
# importing them binds here as well
__all__ = sorted(['__version__'] + [
    name for name, value in globals().items()
    if not name.startswith('_') and not isinstance(value, _ModuleType)])
