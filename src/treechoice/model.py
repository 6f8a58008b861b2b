"""Exact domain model: voters, invitation trees, reports, preference comparison.

The outcome space is the unit interval. Every peak, parameter, and outcome is
a ``fractions.Fraction``, so all comparisons in the core are exact; no floats
appear anywhere. All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import math
import re
from collections import OrderedDict
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Sequence

VoterId = str

ZERO = Fraction(0)
ONE = Fraction(1)


class TreeChoiceError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(TreeChoiceError):
    """Malformed invitation graph or report map."""


class InstanceError(TreeChoiceError):
    """Invalid instance: bad grid, off-grid peak, or no direct children."""


class NotParticipatingError(TreeChoiceError):
    """A depth or class query named a voter that is unreachable under the reports."""


class ConfigurationError(TreeChoiceError):
    """An outcome rule was configured inconsistently with its input."""


class BudgetExceededError(TreeChoiceError):
    """An enumeration or search would exceed its configured size budget."""

    def __init__(self, projected: int, budget: int, what: str = "enumeration") -> None:
        super().__init__(f"projected {what} size {projected} exceeds budget {budget}")
        self.projected = projected
        self.budget = budget


_RATIONAL_RE = re.compile(r"^(-?\d+)\s*/\s*(\d+)$")


def parse_rational(text: str) -> Fraction:
    """Parse a ``num/den`` string with a positive denominator."""
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"expected a 'num/den' rational, got {text!r}")
    num, den = int(match.group(1)), int(match.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class PreferenceModel(Enum):
    """How comparisons across opposite sides of a peak are resolved.

    SYMMETRIC_DISTANCE scores an outcome by its distance to the peak.
    ROBUST_SINGLE_PEAKED only commits to verdicts that hold for every
    single-peaked ordering with that peak; opposite-side comparisons of
    two non-peak outcomes are reported as AMBIGUOUS.
    """

    SYMMETRIC_DISTANCE = "symmetric"
    ROBUST_SINGLE_PEAKED = "robust"


class PreferenceVerdict(Enum):
    BETTER = "Better"
    WORSE = "Worse"
    INDIFFERENT = "Indifferent"
    AMBIGUOUS = "Ambiguous"


def compare(
    peak: Fraction,
    a: Fraction,
    b: Fraction,
    model: PreferenceModel = PreferenceModel.SYMMETRIC_DISTANCE,
) -> PreferenceVerdict:
    """How a voter with ideal point ``peak`` ranks outcome ``a`` against ``b``.

    AMBIGUOUS can only occur under ROBUST_SINGLE_PEAKED, when the two
    outcomes are distinct, lie on opposite sides of the peak, and neither
    equals the peak.
    """
    for name, value in (("peak", peak), ("a", a), ("b", b)):
        if not ZERO <= value <= ONE:
            raise ValueError(f"{name}={value} outside [0, 1]")
    if a == b:
        return PreferenceVerdict.INDIFFERENT
    if model is PreferenceModel.SYMMETRIC_DISTANCE:
        da, db = abs(a - peak), abs(b - peak)
        if da < db:
            return PreferenceVerdict.BETTER
        if da > db:
            return PreferenceVerdict.WORSE
        return PreferenceVerdict.INDIFFERENT
    if a == peak:
        return PreferenceVerdict.BETTER
    if b == peak:
        return PreferenceVerdict.WORSE
    if (a < peak) == (b < peak):
        # same side of the peak: closer is better under every completion
        return PreferenceVerdict.BETTER if abs(a - peak) < abs(b - peak) else PreferenceVerdict.WORSE
    return PreferenceVerdict.AMBIGUOUS


PreferenceMasks = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=32)
def preference_masks(
    values: tuple[Fraction, ...], model: PreferenceModel, ambiguous_violates: bool
) -> tuple[PreferenceMasks, PreferenceMasks]:
    """Which outcome pairs each peak accepts, as bitmasks over indices into ``values``.

    ``forward[p][x]`` has bit ``y`` set, and ``backward[p][y]`` has bit ``x``
    set, when a voter with true peak ``values[p]`` weakly prefers the
    truthful outcome ``values[x]`` to the deviation's ``values[y]``:
    ``compare`` does not say WORSE, nor AMBIGUOUS when the robust model
    counts ambiguity as a violation. Each table is filled once, by
    ``len(values)**3`` exact comparisons, and shared by the checkers and
    the search.
    """
    reject_ambiguous = model is PreferenceModel.ROBUST_SINGLE_PEAKED and ambiguous_violates
    forward = [[0] * len(values) for _ in values]
    backward = [[0] * len(values) for _ in values]
    for p, peak in enumerate(values):
        for x, x_truth in enumerate(values):
            for y, x_dev in enumerate(values):
                verdict = compare(peak, x_truth, x_dev, model)
                if verdict is PreferenceVerdict.WORSE or (
                    verdict is PreferenceVerdict.AMBIGUOUS and reject_ambiguous
                ):
                    continue
                forward[p][x] |= 1 << y
                backward[p][y] |= 1 << x
    return tuple(map(tuple, forward)), tuple(map(tuple, backward))


@dataclass(frozen=True)
class TrueType:
    """A voter's private situation: ideal point plus the children it could invite."""

    peak: Fraction
    children: frozenset[VoterId]


@dataclass(frozen=True)
class ReportedType:
    """What a voter submits: a claimed peak and the subset of children it invites."""

    peak: Fraction
    invited: frozenset[VoterId]


@dataclass(frozen=True, eq=True)
class InvitationGraph:
    """Rooted invitation tree over the moderator and the potential voters.

    The moderator invites ``moderator_children`` (its direct children);
    each voter ``v`` may invite the voters in ``children[v]``. The
    parent-to-child edges must form a tree rooted at the moderator that
    spans every voter: one parent each, everyone reachable.
    """

    moderator_children: frozenset[VoterId]
    children: Mapping[VoterId, frozenset[VoterId]]
    voters: tuple[VoterId, ...] = field(init=False, repr=False, compare=False)
    _parent: Mapping[VoterId, VoterId | None] = field(init=False, repr=False, compare=False)
    _depth: Mapping[VoterId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        direct = frozenset(self.moderator_children)
        raw = {v: frozenset(kids) for v, kids in dict(self.children).items()}
        all_voters = set(direct) | set(raw)
        for kids in raw.values():
            all_voters |= kids
        children = {v: raw.get(v, frozenset()) for v in all_voters}

        parent: dict[VoterId, VoterId | None] = {}
        for v in direct:
            parent[v] = None
        for v, kids in children.items():
            for child in kids:
                if child == v:
                    raise StructuralError(f"voter {child!r} invites itself")
                if child in parent:
                    raise StructuralError(f"voter {child!r} has more than one parent")
                parent[child] = v
        orphans = all_voters - set(parent)
        if orphans:
            raise StructuralError(f"voters with no parent: {sorted(orphans)}")

        depth: dict[VoterId, int] = {}
        frontier = sorted(direct)
        level = 1
        while frontier:
            nxt: list[VoterId] = []
            for v in frontier:
                depth[v] = level
                nxt.extend(sorted(children[v]))
            frontier = nxt
            level += 1
        unreachable = all_voters - set(depth)
        if unreachable:
            raise StructuralError(f"voters unreachable from the moderator: {sorted(unreachable)}")

        object.__setattr__(self, "moderator_children", direct)
        object.__setattr__(self, "children", MappingProxyType(children))
        object.__setattr__(self, "voters", tuple(sorted(all_voters)))
        object.__setattr__(self, "_parent", MappingProxyType(parent))
        object.__setattr__(self, "_depth", MappingProxyType(depth))

    def true_children(self, voter: VoterId) -> frozenset[VoterId]:
        return self.children[voter]

    def parent_of(self, voter: VoterId) -> VoterId | None:
        """Parent voter, or None when the parent is the moderator."""
        return self._parent[voter]

    def true_depth(self, voter: VoterId) -> int:
        """Distance from the moderator when every voter invites fully."""
        return self._depth[voter]

    @property
    def max_depth(self) -> int:
        return max(self._depth.values(), default=0)


def _validate_reports(graph: InvitationGraph, reports: Mapping[VoterId, ReportedType]) -> None:
    for v in graph.voters:
        rep = reports.get(v)
        if rep is None:
            raise StructuralError(f"missing report for voter {v!r}")
        extra = rep.invited - graph.children[v]
        if extra:
            raise StructuralError(f"voter {v!r} invites non-children {sorted(extra)}")


def participating_voters(
    graph: InvitationGraph,
    reports: Mapping[VoterId, ReportedType],
    *,
    validate: bool = True,
) -> frozenset[VoterId]:
    """Voters reachable from the moderator along reported invitations.

    The moderator's direct children always participate; a deeper voter
    participates iff every ancestor on its path reports the next edge.
    """
    if validate:
        _validate_reports(graph, reports)
    reached = set(graph.moderator_children)
    frontier = list(graph.moderator_children)
    while frontier:
        v = frontier.pop()
        for child in reports[v].invited:
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    return frozenset(reached)


def reported_depths(
    graph: InvitationGraph,
    reports: Mapping[VoterId, ReportedType],
    *,
    validate: bool = True,
) -> dict[VoterId, int]:
    """Depth of every participating voter under the reported invitations."""
    if validate:
        _validate_reports(graph, reports)
    depth: dict[VoterId, int] = {}
    frontier = sorted(graph.moderator_children)
    level = 1
    while frontier:
        nxt: list[VoterId] = []
        for v in frontier:
            depth[v] = level
            nxt.extend(sorted(c for c in reports[v].invited if c not in depth))
        frontier = nxt
        level += 1
    return depth


def depth(graph: InvitationGraph, reports: Mapping[VoterId, ReportedType], voter: VoterId) -> int:
    """Number of reported edges on the moderator-to-voter path."""
    depths = reported_depths(graph, reports)
    if voter not in depths:
        raise NotParticipatingError(f"voter {voter!r} does not participate under these reports")
    return depths[voter]


def n_d(graph: InvitationGraph, reports: Mapping[VoterId, ReportedType], d: int) -> frozenset[VoterId]:
    """Participating voters at reported distance ``d`` from the moderator."""
    depths = reported_depths(graph, reports)
    return frozenset(v for v, dv in depths.items() if dv == d)


def n_s(graph: InvitationGraph, reports: Mapping[VoterId, ReportedType], k: int) -> frozenset[VoterId]:
    """Participating voters whose report invites exactly ``k`` children."""
    participating = participating_voters(graph, reports)
    return frozenset(v for v in participating if len(reports[v].invited) == k)


class AnonymityVariant(Enum):
    """Which voters may swap peaks without changing the outcome."""

    FULL = "AN"
    BY_STRUCTURE = "AN-S"
    BY_DEPTH = "AN-D"
    BY_STRUCTURE_DEPTH = "AN-SD"


@dataclass(frozen=True)
class PermutationClass:
    key: tuple
    members: frozenset[VoterId]


def permutation_classes(
    graph: InvitationGraph,
    reports: Mapping[VoterId, ReportedType],
    variant: AnonymityVariant,
) -> tuple[PermutationClass, ...]:
    """Partition of the participating voters by the variant's class key.

    Structure means the reported invited-children count; depth means the
    reported distance from the moderator. Classes are computed from the
    reported graph, the only structure an outcome rule observes. Reports are
    not validated against the graph, so a situation's reports, which hold
    only the participants, are accepted too.
    """
    depths = reported_depths(graph, reports, validate=False)
    groups: dict[tuple, set[VoterId]] = {}
    for v, d in depths.items():
        k = len(reports[v].invited)
        if variant is AnonymityVariant.FULL:
            key: tuple = ("all",)
        elif variant is AnonymityVariant.BY_STRUCTURE:
            key = ("structure", k)
        elif variant is AnonymityVariant.BY_DEPTH:
            key = ("depth", d)
        else:
            key = ("structure-depth", k, d)
        groups.setdefault(key, set()).add(v)
    return tuple(
        PermutationClass(key, frozenset(members)) for key, members in sorted(groups.items())
    )


def report_space(
    true_type: TrueType,
    grid: Iterable[Fraction],
    *,
    diffusion_only: bool = False,
) -> tuple[ReportedType, ...]:
    """All legal reports: any grid peak, any subset of the true children.

    With ``diffusion_only`` the claimed peak is pinned to the true peak and
    only the invited subset varies. Order is deterministic: peaks ascending,
    then invited subsets by ascending bitmask over the sorted children.
    """
    grid = tuple(grid)
    if true_type.peak not in grid:
        raise InstanceError(f"true peak {true_type.peak} is not on the grid")
    kids = sorted(true_type.children)
    peaks = (true_type.peak,) if diffusion_only else tuple(sorted(grid))
    out: list[ReportedType] = []
    for peak in peaks:
        for mask in range(1 << len(kids)):
            invited = frozenset(kids[b] for b in range(len(kids)) if mask >> b & 1)
            out.append(ReportedType(peak, invited))
    return tuple(out)


@dataclass(frozen=True, eq=True)
class Instance:
    """A finite, exactly checkable world: tree, true peaks, and a peak/outcome grid."""

    graph: InvitationGraph
    true_peaks: Mapping[VoterId, Fraction]
    grid: tuple[Fraction, ...]
    preference_model: PreferenceModel = PreferenceModel.SYMMETRIC_DISTANCE

    def __post_init__(self) -> None:
        grid = tuple(self.grid)
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise InstanceError("grid must be strictly increasing")
        if not grid or grid[0] != ZERO or grid[-1] != ONE:
            raise InstanceError("grid must contain 0 and 1")
        if not self.graph.moderator_children:
            raise InstanceError("degenerate instance: the moderator invites nobody")
        peaks = dict(self.true_peaks)
        missing = set(self.graph.voters) - set(peaks)
        if missing:
            raise InstanceError(f"missing true peaks for {sorted(missing)}")
        unknown = set(peaks) - set(self.graph.voters)
        if unknown:
            raise InstanceError(f"peaks for unknown voters {sorted(unknown)}")
        gridset = set(grid)
        for v, p in peaks.items():
            if p not in gridset:
                raise InstanceError(f"true peak of {v!r} ({p}) is not on the grid")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "true_peaks", MappingProxyType(peaks))

    def true_type(self, voter: VoterId) -> TrueType:
        return TrueType(self.true_peaks[voter], self.graph.true_children(voter))

    def truthful_report(self, voter: VoterId) -> ReportedType:
        """The honest report: true peak, every true child invited."""
        return ReportedType(self.true_peaks[voter], self.graph.true_children(voter))

    def truthful_reports(self) -> dict[VoterId, ReportedType]:
        return {v: self.truthful_report(v) for v in self.graph.voters}

    def report_space(self, voter: VoterId, *, diffusion_only: bool = False) -> tuple[ReportedType, ...]:
        return report_space(self.true_type(voter), self.grid, diffusion_only=diffusion_only)

    def report_space_size(self, voter: VoterId) -> int:
        """``len(self.report_space(voter))``, without building the reports."""
        return len(self.grid) << len(self.graph.true_children(voter))

    # Computed once per instance and kept outside the fields, so eq and repr
    # are unchanged; the fields are frozen, so neither can go stale.
    @functools.cached_property
    def report_sizes(self) -> Mapping[VoterId, int]:
        """Per voter, ``report_space_size(voter)``."""
        return MappingProxyType({v: self.report_space_size(v) for v in self.graph.voters})

    @functools.cached_property
    def profile_count(self) -> int:
        """The number of joint report profiles: the product of the report space sizes."""
        return math.prod(self.report_sizes.values())

    @functools.cached_property
    def peak_indices(self) -> tuple[int, ...]:
        """Per voter, in ``graph.voters`` order, the grid index of its true peak."""
        return tuple([self.grid.index(self.true_peaks[v]) for v in self.graph.voters])

    @functools.cached_property
    def shape_key(self) -> tuple:
        """What every peak assignment of one tree shape shares: the graph with its voter names, and the grid.

        Grid points appear as (numerator, denominator) pairs, which hash
        faster than ``Fraction``s and compare equal exactly when they do.
        """
        graph = self.graph
        grid = tuple((q.numerator, q.denominator) for q in self.grid)
        return (graph.moderator_children, tuple(sorted(graph.children.items())), grid)


SituationKey = tuple[tuple[VoterId, Fraction, tuple[VoterId, ...]], ...]


def situation_key(graph: InvitationGraph, reports: Mapping[VoterId, ReportedType]) -> SituationKey:
    """Canonical description of everything an outcome rule may observe.

    Two report profiles that differ only in non-participating voters map to
    the same key: the participating set plus each participant's reported
    peak and invited children.
    """
    participating = participating_voters(graph, reports, validate=False)
    return tuple(
        (v, reports[v].peak, tuple(sorted(reports[v].invited))) for v in sorted(participating)
    )


class SortedTable(Mapping):
    """A read-only mapping given as its keys, ascending, and a value per key.

    Iteration, ``items()`` and ``values()`` walk the two sequences in key
    order and hash nothing. The hash index that ``[]``, ``in`` and ``get``
    need is built on the first lookup. That the keys are distinct and
    ascending is the caller's promise; it is not checked. ``solve`` returns
    a Sat model this way, over ``csp.keys``.
    """

    __slots__ = ("_keys", "_values", "_index")

    def __init__(self, keys: Sequence, values: Sequence) -> None:
        self._keys, self._values, self._index = keys, values, None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __getitem__(self, key):
        if self._index is None:
            self._index = dict(zip(self._keys, range(len(self._keys))))
        return self._values[self._index[key]]

    def items(self) -> ItemsView:
        return _SortedItems(self)

    def values(self) -> ValuesView:
        return _SortedValues(self)


class _SortedItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping._keys, self._mapping._values)


class _SortedValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values)


PROPERTY_TOKENS = ("SP", "SP-D", "PE", "AN", "AN-S", "AN-D", "AN-SD", "ONTO", "DEPTH1-HULL")
CHECK_ONLY = ("ONTO", "DEPTH1-HULL")  # checkable properties the complete search cannot encode

_VR_RE = re.compile(r"VR-([0-9]+)")


class PropertyTokenError(ConfigurationError, ValueError):
    """A property token outside the grammar of ``parse_property``."""


def parse_property(raw: str) -> str:
    """Canonical spelling of one property token.

    Surrounding whitespace and letter case are ignored, and ``VR-<d>`` takes
    ASCII digits only, so ``" vr-01"`` reads as ``VR-1``. The tokens are
    ``PROPERTY_TOKENS`` and ``VR-<d>``; those in ``CHECK_ONLY`` have a
    checker but no search encoding.
    """
    token = raw.strip()
    if token.isascii():
        token = token.upper()
        if token in PROPERTY_TOKENS:
            return token
        vr = _VR_RE.fullmatch(token)
        if vr is not None:
            return f"VR-{int(vr.group(1))}"
    raise PropertyTokenError(
        f"unknown property {raw!r}; supported: {', '.join(PROPERTY_TOKENS)}, VR-<d>"
    )


def _first_indices(items: Sequence) -> list[int]:
    """The index of each distinct item's first occurrence, ascending.

    A dict over the reversed items keeps each at its first index, with no
    Python-level loop per item.
    """
    return sorted(dict(zip(reversed(items), range(len(items) - 1, -1, -1))).values())


def _lru(cache: OrderedDict, key, size: int, build):
    """``cache[key]``, built by ``build()`` if missing; ``cache`` keeps the ``size`` keys used last."""
    out = cache.pop(key, None)
    if out is None:
        out = build()
    cache[key] = out
    if len(cache) > size:
        cache.popitem(last=False)
    return out


def _memoized(build):
    """A method computed once per object and arguments, kept in its ``_memo`` and evicted with it.

    ``enumeration.SituationSpace`` and ``properties.RuleTable`` memoize this way.
    """

    @functools.wraps(build)
    def method(self, *args):
        key = (build.__name__, *args)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = build(self, *args)
        return out

    return method
