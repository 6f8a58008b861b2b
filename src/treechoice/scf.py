"""Social choice functions: pluggable outcome rules over reported profiles.

Each rule is a deterministic, stateless map from (instance, reports) to a
point in [0, 1] and may only look at participating voters' reported peaks
and reported invitations. ``reports`` is a read-only ``Mapping`` from every
voter to its report, not always a ``dict``. All rules return grid points
whenever their parameters lie on the grid.

The checkers' tabulation (``properties.rule_table``) shows a rule only
what it may read, through the views defined here: a ``PeakBlindInstance``
in place of the instance, and a ``_WatchedProfile`` in place of the
reports, which notes each read of a non-participant's report.

The three medians are ``WeightedMedianRule``s. Their one ``outcome`` is
the weighted median of the participants' reported peaks, under weights
that read only who takes part and whom they invite. So tabulation calls
their ``weights`` once per set of participants, on reports that hold
only invitations (``_Invitations``), and takes each situation's median
over grid indices, with no ``outcome`` call.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .fileio import InstanceFileError, object_at, rational_at, read_json, voter_ids_at
from .model import (
    ConfigurationError,
    Instance,
    InstanceError,
    ReportedType,
    VoterId,
    ZERO,
    ONE,
    parse_rational,
    participating_voters,
    reported_depths,
)


def weighted_median(values: Iterable[tuple[Fraction, int]]) -> Fraction:
    """The ceil(m/2)-th smallest element of the expanded multiset.

    Each (value, weight) pair stands for ``weight`` copies of ``value``;
    m is the total weight. Weights must be positive integers.
    """
    items = sorted(values)
    if not items:
        raise InstanceError("weighted median of an empty multiset")
    total = 0
    for value, weight in items:
        if weight <= 0:
            raise ValueError(f"nonpositive weight {weight} for value {value}")
        total += weight
    rank = (total + 1) // 2
    seen = 0
    for value, weight in items:
        seen += weight
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank exceeds total weight")


def gmvs_evaluate(
    alpha: Callable[[frozenset[VoterId]], Fraction],
    peaks: Mapping[VoterId, Fraction],
) -> Fraction:
    """Max over subsets S of the voters of min(peaks in S, alpha(S)).

    ``alpha`` must be defined for every subset of ``peaks``' keys and is
    expected to be monotone with alpha(empty)=0 and alpha(all)=1; brute
    force over all 2^n subsets, fine for the small n used here.
    """
    voters = sorted(peaks)
    best = None
    for mask in range(1 << len(voters)):
        subset = frozenset(voters[b] for b in range(len(voters)) if mask >> b & 1)
        bound = alpha(subset)
        value = min([peaks[v] for v in subset] + [bound]) if subset else bound
        if best is None or value > best:
            best = value
    assert best is not None
    return best


@dataclass(frozen=True)
class GmvsParameters:
    """Threshold parameters, stored per size (anonymous) or per subset.

    ``anonymous[n]`` is a nondecreasing tuple of n+1 values indexed by |S|
    with first 0 and last 1. ``by_subset[N][S]`` gives the threshold for an
    explicit participating set N and subset S.
    """

    anonymous: Mapping[int, tuple[Fraction, ...]] | None = None
    by_subset: Mapping[frozenset[VoterId], Mapping[frozenset[VoterId], Fraction]] | None = None

    def __post_init__(self) -> None:
        if (self.anonymous is None) == (self.by_subset is None):
            raise ConfigurationError("exactly one of anonymous/by_subset must be given")
        if self.anonymous is not None:
            for n, row in self.anonymous.items():
                if len(row) != n + 1:
                    raise ConfigurationError(f"size-{n} parameters need {n + 1} values, got {len(row)}")
                if row[0] != ZERO or row[-1] != ONE:
                    raise ConfigurationError(f"size-{n} parameters must start at 0 and end at 1")
                if any(row[i] > row[i + 1] for i in range(n)):
                    raise ConfigurationError(f"size-{n} parameters are not monotone")
                if any(not ZERO <= v <= ONE for v in row):
                    raise ConfigurationError(f"size-{n} parameters leave [0, 1]")
        else:
            assert self.by_subset is not None
            for group, table in self.by_subset.items():
                if table.get(frozenset()) != ZERO or table.get(group) != ONE:
                    raise ConfigurationError(f"subset table for {sorted(group)} must map empty->0 and full->1")
                for s, value in table.items():
                    if not s <= group:
                        raise ConfigurationError(f"subset {sorted(s)} not within {sorted(group)}")
                    if not ZERO <= value <= ONE:
                        raise ConfigurationError("subset parameter leaves [0, 1]")
                for s, vs in table.items():
                    for t, vt in table.items():
                        if s < t and vs > vt:
                            raise ConfigurationError(
                                f"parameters not monotone: alpha({sorted(s)}) > alpha({sorted(t)})"
                            )

    def alpha_for(self, group: frozenset[VoterId]) -> Callable[[frozenset[VoterId]], Fraction]:
        if self.anonymous is not None:
            row = self.anonymous.get(len(group))
            if row is None:
                raise ConfigurationError(f"no parameters for participating sets of size {len(group)}")
            return lambda subset: row[len(subset)]
        assert self.by_subset is not None
        table = self.by_subset.get(group)
        if table is None:
            raise ConfigurationError(f"no parameters for participating set {sorted(group)}")

        def lookup(subset: frozenset[VoterId]) -> Fraction:
            try:
                return table[subset]
            except KeyError:
                raise ConfigurationError(f"missing parameter for subset {sorted(subset)}") from None

        return lookup


class PeakBlindInstance:
    """What an outcome rule may read of an instance: graph, grid, preference model.

    Rule tables are shared by every peak assignment of a tree shape, so a
    rule must not read true peaks. Asking this view for ``true_peaks`` (or
    anything else an ``Instance`` derives from them) raises
    ConfigurationError naming the rule.
    """

    __slots__ = ("graph", "grid", "preference_model", "_rule")

    def __init__(self, instance: Instance, rule: str) -> None:
        self.graph = instance.graph
        self.grid = instance.grid
        self.preference_model = instance.preference_model
        self._rule = rule

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        raise ConfigurationError(
            f"rule {self._rule!r} read instance.{name}; an outcome rule may read only the graph, "
            "the grid, the preference model and the participants' reports"
        )


class _WatchedProfile(Mapping):
    """A situation's first profile as a rule reads it, noting a read of a non-participant's report.

    ``rows[voter]`` is the voter's index and report space, and ``digits``
    the situation's report indices; a voter not taking part reports its
    first report here. Iterating the view, ``len`` and ``in`` read only the
    voters, whom every profile lists. Every other read goes through
    ``__getitem__`` (``get``, ``items``, ``values``, ``==`` and ``dict``
    among them), which sets ``strayed[0]`` when the voter does not take
    part; a copy shares the list, and a caller may pass a list of its own.
    A rule that never strays reads the same reports on every profile of
    the situation, so, being deterministic, it gives the same outcome on
    each.
    """

    __slots__ = ("_rows", "_digits", "strayed")

    def __init__(self, rows: dict, digits: tuple[int, ...], strayed: list | None = None) -> None:
        self._rows = rows
        self._digits = digits
        self.strayed = [False] if strayed is None else strayed

    def __getitem__(self, voter):
        k, reports = self._rows[voter]
        r = self._digits[k]
        if r < 0:
            self.strayed[0] = True
            r = 0
        return reports[r]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def __contains__(self, voter):
        return voter in self._rows


class SocialChoiceFunction:
    """Deterministic outcome rule; subclasses implement ``outcome``.

    Rules that compare equal share one rule table. The bundled rules other
    than ``Gmvs`` are frozen dataclasses, equal by class and parameters.
    """

    name: str = "scf"

    def outcome(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        raise NotImplementedError

    def weights(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> dict[VoterId, int] | None:
        """Per-voter vote weights, for rules that have them (else None)."""
        return None


@dataclass(frozen=True)
class FixedOutcome(SocialChoiceFunction):
    """Always returns the same point; a negative control for efficiency and ontoness."""

    value: Fraction

    def __post_init__(self) -> None:
        if not ZERO <= self.value <= ONE:
            raise ConfigurationError(f"fixed outcome {self.value} outside [0, 1]")

    @property
    def name(self) -> str:
        return f"fixed:{self.value.numerator}/{self.value.denominator}"

    def outcome(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        return self.value


class WeightedMedianRule(SocialChoiceFunction):
    """Weighted median of the participants' reported peaks, plus any phantoms.

    Subclasses give ``weights``: a nonnegative int per participant, which
    may read the participants' reported invitations but no peak, and may
    give ``phantom_peaks``: fixed values that vote once each in every
    situation. ``outcome`` is the ceil(m/2)-th smallest peak of the
    multiset where each participant's reported peak counts ``weights``
    times, phantoms added; m is its size. Rules that keep this ``outcome``
    are tabulated from one ``weights`` call per participation set
    (``properties.rule_table``): the participants fix their invitations,
    since each voter has one parent, and so the weights.
    """

    def weights(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> dict[VoterId, int]:
        raise NotImplementedError

    def phantom_peaks(self, instance: Instance) -> tuple[Fraction, ...]:
        """The values added to every median, one vote each; none by default."""
        return ()

    def outcome(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        entries = [(reports[v].peak, w) for v, w in self.weights(instance, reports).items() if w]
        entries += [(p, 1) for p in self.phantom_peaks(instance)]
        return weighted_median(entries)


class _Invitations:
    """A report as tabulation shows a ``WeightedMedianRule``'s ``weights``: its invited set alone.

    Reading ``peak``, comparing the report with ``==`` or hashing it sets
    ``seen[0]`` and raises TypeError, so tabulation falls back to
    evaluating ``outcome`` per situation.
    """

    __slots__ = ("invited", "_seen")

    def __init__(self, invited: frozenset, seen: list) -> None:
        self.invited, self._seen = invited, seen

    def _stray(self, *args):
        self._seen[0] = True
        raise TypeError("the weights pass shows a report's invitations only")

    peak = property(_stray)
    __eq__ = __hash__ = _stray


@dataclass(frozen=True)
class DirectChildrenMedian(WeightedMedianRule):
    """Median of the moderator's direct children's reported peaks.

    Deeper voters' reports are ignored entirely: they weigh 0. Optional
    phantom values (one fewer than the number of direct children)
    generalize the rule to any anonymous threshold scheme on the direct
    children; the default is the plain median. Even cardinalities take the
    ceil(m/2)-th smallest.
    """

    phantoms: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.phantoms is not None and any(not ZERO <= p <= ONE for p in self.phantoms):
            raise ConfigurationError("phantom values must lie in [0, 1]")

    @property
    def name(self) -> str:
        if self.phantoms is None:
            return "direct-median"
        return "direct-median[{}]".format(",".join(f"{p.numerator}/{p.denominator}" for p in self.phantoms))

    def phantom_peaks(self, instance: Instance) -> tuple[Fraction, ...]:
        if self.phantoms is None:
            return ()
        direct = len(instance.graph.moderator_children)
        if len(self.phantoms) != direct - 1:
            raise ConfigurationError(f"{direct} direct children need {direct - 1} phantoms, got {len(self.phantoms)}")
        return self.phantoms

    def weights(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> dict[VoterId, int]:
        participating = participating_voters(instance.graph, reports, validate=False)
        return {v: 1 if v in instance.graph.moderator_children else 0 for v in sorted(participating)}


@dataclass(frozen=True)
class DepthWeightedMedian(WeightedMedianRule):
    """Weighted median where closeness to the moderator buys weight.

    A depth-1 voter weighs one more than the number of children it invites,
    each depth-2 voter weighs 1, and deeper voters weigh 0. Inviting a
    child therefore raises the inviter's weight by exactly the child's own
    weight, which keeps full invitation a dominant strategy while letting
    depth-2 voters matter.
    """

    name = "depth-weighted-median"

    def weights(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> dict[VoterId, int]:
        depths = reported_depths(instance.graph, reports, validate=False)
        out: dict[VoterId, int] = {}
        for v in sorted(depths):
            d = depths[v]
            if d == 1:
                out[v] = len(reports[v].invited) + 1
            elif d == 2:
                out[v] = 1
            else:
                out[v] = 0
        return out


@dataclass(frozen=True)
class ParticipantMedian(WeightedMedianRule):
    """Unweighted median over every participating peak.

    Deliberately manipulable: excluding a subtree changes the electorate,
    so this rule serves as a negative control for the incentive checkers.
    """

    name = "participant-median"

    def weights(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> dict[VoterId, int]:
        participating = participating_voters(instance.graph, reports, validate=False)
        return {v: 1 for v in sorted(participating)}


class Gmvs(SocialChoiceFunction):
    """Threshold (max-min) scheme over the participating voters' peaks."""

    def __init__(self, parameters: GmvsParameters, name: str = "gmvs") -> None:
        self.parameters = parameters
        self.name = name

    def outcome(self, instance: Instance, reports: Mapping[VoterId, ReportedType]) -> Fraction:
        participating = participating_voters(instance.graph, reports, validate=False)
        peaks = {v: reports[v].peak for v in participating}
        return gmvs_evaluate(self.parameters.alpha_for(frozenset(participating)), peaks)


def _parse_gmvs_file(path: Path) -> GmvsParameters:
    """Read gmvs parameters; a malformed file raises InstanceFileError at the file, line or JSON path at fault."""
    data = read_json(path)
    source = str(path)
    object_at(source, data)
    if "anonymous" in data:
        rows = object_at(f"{source}.anonymous", data["anonymous"], what="an object of size -> [values]")
        anonymous: dict[int, tuple[Fraction, ...]] = {}
        for n, row in rows.items():
            if not (n.isascii() and n.isdigit()):
                raise InstanceFileError(f"{source}.anonymous.{n}", "expected a nonnegative integer size")
            if not isinstance(row, list):
                raise InstanceFileError(f"{source}.anonymous.{n}", "expected a list of 'num/den' strings")
            anonymous[int(n)] = tuple(rational_at(f"{source}.anonymous.{n}[{i}]", q) for i, q in enumerate(row))
        return GmvsParameters(anonymous=anonymous)
    if "by_subset" in data:
        entries = data["by_subset"]
        if not isinstance(entries, list):
            raise InstanceFileError(f"{source}.by_subset", "expected a list of {participants, alpha} objects")
        by_subset: dict[frozenset[VoterId], dict[frozenset[VoterId], Fraction]] = {}
        for i, entry in enumerate(entries):
            at = f"{source}.by_subset[{i}]"
            object_at(at, entry, ("participants", "alpha"))
            if not isinstance(entry["alpha"], list):
                raise InstanceFileError(f"{at}.alpha", "expected a list of {subset, value} objects")
            table = {}
            for j, item in enumerate(entry["alpha"]):
                object_at(f"{at}.alpha[{j}]", item, ("subset", "value"))
                subset = voter_ids_at(f"{at}.alpha[{j}].subset", item["subset"])
                table[subset] = rational_at(f"{at}.alpha[{j}].value", item["value"])
            by_subset[voter_ids_at(f"{at}.participants", entry["participants"])] = table
        return GmvsParameters(by_subset=by_subset)
    raise ConfigurationError(f"{path}: expected an 'anonymous' or 'by_subset' section")


BUILTIN_SCF_NAMES = ("direct-median", "depth-weighted-median", "participant-median")


def parse_scf(spec: str) -> SocialChoiceFunction:
    """Build a rule from its CLI name.

    Known forms: ``fixed:<num/den>``, ``direct-median``,
    ``depth-weighted-median``, ``participant-median``, ``gmvs:<params.json>``.
    """
    if spec == "direct-median":
        return DirectChildrenMedian()
    if spec == "depth-weighted-median":
        return DepthWeightedMedian()
    if spec == "participant-median":
        return ParticipantMedian()
    if spec.startswith("fixed:"):
        try:
            value = parse_rational(spec[len("fixed:"):])
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        return FixedOutcome(value)
    if spec.startswith("gmvs:"):
        return Gmvs(_parse_gmvs_file(Path(spec[len("gmvs:"):])))
    raise ConfigurationError(
        f"unknown scf {spec!r}; expected fixed:<q>, direct-median, "
        "depth-weighted-median, participant-median, or gmvs:<file>"
    )
