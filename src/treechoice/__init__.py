"""Exact verification of facility-location voting rules on invitation trees.

The package evaluates outcome rules on reported profiles, exhaustively checks
incentive, efficiency, anonymity, and relevance properties with replayable
witnesses, and decides by complete search whether any rule at all can satisfy
a property set on a finite instance.
"""

from .model import (
    BudgetExceededError,
    ConfigurationError,
    Instance,
    InstanceError,
    InvitationGraph,
    NotParticipatingError,
    PreferenceModel,
    PreferenceVerdict,
    ReportedType,
    SortedTable,
    StructuralError,
    TreeChoiceError,
    TrueType,
    compare,
    depth,
    format_rational,
    n_d,
    n_s,
    parse_rational,
    participating_voters,
    report_space,
    reported_depths,
    situation_key,
)
from .enumeration import (
    AnonymityVariant,
    enumerate_profiles,
    peak_permutations,
    permutation_classes,
)
from .scf import (
    DepthWeightedMedian,
    DirectChildrenMedian,
    FixedOutcome,
    Gmvs,
    GmvsParameters,
    ParticipantMedian,
    SocialChoiceFunction,
    WeightedMedianRule,
    gmvs_evaluate,
    parse_scf,
    weighted_median,
)
from .properties import (
    CheckReport,
    check_anonymity,
    check_depth1_hull,
    check_ontoness,
    check_pareto,
    check_sp,
    check_voter_relevance,
    run_check,
)
from .cspsearch import (
    Csp,
    CspOptions,
    CspResult,
    InconclusiveError,
    TabulatedScf,
    encode,
    solve,
    tabulate_scf,
    verify_model,
)

__version__ = "0.1.0"
