"""Crossed-product algebra computations for desk-scale dynamical systems."""

from .algebra import (
    Element,
    cesaro_mean,
    coefficient,
    delta,
    embed,
    identity,
    linear_combine,
    multiply,
    random_positive_element,
)
from .characters import (
    Character,
    CircleGrid,
    PointCharacter,
    TorusCharacter,
    character_at,
    character_grid,
    classify_point,
    eval_character,
    eval_on_circle,
    circle_character,
    gelfand_norm,
    separating_family,
)
from .commutant import (
    commutant_basis,
    commutes_oracle,
    indicator_family,
    is_in_commutant,
    project_to_commutant,
)
from .dynamics import (
    DynSys,
    aperiodic_set,
    fix_set,
    freeness_report,
    interior_closure_report,
    interior_closure_reports,
    interior_orders,
    make_dynsys,
    minimal_interior_order,
    per_set,
    period_of,
    projection_condition,
    projection_witness,
)
from .errors import DyncrossError
from .fixtures import FIXTURES, fixture
from .gns import (
    PeriodicRep,
    TruncatedRep,
    cstar_norm,
    envelope_report,
    operator_norm,
    rep_matrix,
    restriction_report,
    state_eval,
)
from .space import (
    CtsFun,
    FiniteSpace,
    IntShiftSpace,
    PairSwapTailsSpace,
    SetRep,
    build_space,
    finite_space,
)

__version__ = "0.1.0"
