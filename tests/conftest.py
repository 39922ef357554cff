import hypothesis
import pytest

from dyncross.dynamics import fix_set
from dyncross.fixtures import FIXTURES
from dyncross.space import CtsFun

hypothesis.settings.register_profile(
    "dyncross", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("dyncross")


@pytest.fixture(params=sorted(FIXTURES))
def system(request):
    """One of the five bundled systems."""
    return FIXTURES[request.param]()


@pytest.fixture
def one_point():
    return FIXTURES["one_point"]()


@pytest.fixture
def swap2():
    return FIXTURES["swap2"]()


@pytest.fixture
def cycle3():
    return FIXTURES["cycle3"]()


@pytest.fixture
def int_shift8():
    return FIXTURES["int_shift8"]()


@pytest.fixture
def tails8():
    return FIXTURES["tails8"]()


def functions_supported_in(sys, k, data_radius):
    """The reference spanning functions at index k, one atom at a time:
    the constant, when the k-th fixed-point set holds every tail and limit
    point of a space that has them, then the clopen-checked indicators of
    the atoms inside that set.  Where a tail is missing, continuity forces
    the limit value of a function supported in the set to zero."""
    space = sys.space
    target = fix_set(sys, k)
    out = []
    beyond = space.set_of(tails=space.tail_names, limits=space.limit_names)
    if space.limit_names and beyond.is_subset(target):
        out.append(CtsFun.constant(space, 1.0))
    out.extend(CtsFun.indicator(space, space.set_of(atom))
               for atom in space.atoms(data_radius)
               if all(target.contains(p) for p in atom))
    return out
