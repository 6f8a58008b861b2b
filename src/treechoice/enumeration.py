"""Finite iteration over report profiles, deviations, and permutation classes.

Every iterator here is deterministic: voters are visited in sorted id order,
report spaces are ordered peaks-ascending then invited-bitmask-ascending, and
re-running an enumeration yields the identical sequence. Checkers that scan
these streams therefore produce the same minimal witness on every run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

from .model import (
    BudgetExceededError,
    Instance,
    InvitationGraph,
    ReportedType,
    VoterId,
    participating_voters,
    reported_depths,
)

DEFAULT_PROFILE_BUDGET = 2_000_000


@dataclass(frozen=True)
class ProfileFilters:
    """Restrictions on the joint report space.

    ``truthful_peaks`` pins every claimed peak to the voter's true peak
    (invitations still range over all subsets); ``fixed`` pins individual
    voters to a single report.
    """

    truthful_peaks: bool = False
    fixed: Mapping[VoterId, ReportedType] | None = None


def _voter_spaces(instance: Instance, filters: ProfileFilters | None) -> list[tuple[VoterId, Sequence[ReportedType]]]:
    filters = filters or ProfileFilters()
    fixed = dict(filters.fixed or {})
    spaces: list[tuple[VoterId, Sequence[ReportedType]]] = []
    for v in instance.graph.voters:
        if v in fixed:
            spaces.append((v, (fixed[v],)))
        else:
            spaces.append((v, instance.report_space(v, diffusion_only=filters.truthful_peaks)))
    return spaces


def profile_space_size(instance: Instance, filters: ProfileFilters | None = None) -> int:
    size = 1
    for _, space in _voter_spaces(instance, filters):
        size *= len(space)
    return size


def enumerate_profiles(
    instance: Instance,
    filters: ProfileFilters | None = None,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Every joint report profile, exactly once, in lexicographic order.

    Raises BudgetExceededError (naming the projected size) before yielding
    anything if the product of the per-voter space sizes exceeds ``budget``.
    """
    spaces = _voter_spaces(instance, filters)
    size = 1
    for _, space in spaces:
        size *= len(space)
    if budget is not None and size > budget:
        raise BudgetExceededError(size, budget, what="profile enumeration")
    voters = [v for v, _ in spaces]
    for combo in itertools.product(*(space for _, space in spaces)):
        yield dict(zip(voters, combo))


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


def peak_permutations(
    reports: Mapping[VoterId, ReportedType],
    cls: PermutationClass,
) -> Iterator[dict[VoterId, ReportedType]]:
    """All report maps obtained by permuting peaks among the class members.

    Invited sets never move, so the reported graph, the participating set,
    and the classes themselves are unchanged. The identity comes first.
    """
    members = sorted(cls.members)
    peaks = [reports[v].peak for v in members]
    for perm in itertools.permutations(peaks):
        permuted = dict(reports)
        for v, peak in zip(members, perm):
            permuted[v] = ReportedType(peak, reports[v].invited)
        yield permuted


def deviation_neighborhood(
    instance: Instance,
    reports: Mapping[VoterId, ReportedType],
    voter: VoterId,
    mode: str = "full",
) -> Iterator[dict[VoterId, ReportedType]]:
    """Report maps equal to ``reports`` except at ``voter``.

    ``mode='full'`` ranges over the voter's whole report space;
    ``mode='diffusion_only'`` keeps the true peak and varies invitations,
    which yields a subset of the full neighborhood.
    """
    if mode not in ("full", "diffusion_only"):
        raise ValueError(f"unknown deviation mode {mode!r}")
    for rep in instance.report_space(voter, diffusion_only=mode == "diffusion_only"):
        out = dict(reports)
        out[voter] = rep
        yield out


def others_assignments(
    instance: Instance,
    voter: VoterId,
    *,
    budget: int | None = DEFAULT_PROFILE_BUDGET,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Joint reports of everyone except ``voter``, in lexicographic order."""
    others = [v for v in instance.graph.voters if v != voter]
    spaces = [instance.report_space(v) for v in others]
    size = 1
    for space in spaces:
        size *= len(space)
    if budget is not None and size > budget:
        raise BudgetExceededError(size, budget, what="profile enumeration")
    for combo in itertools.product(*spaces):
        yield dict(zip(others, combo))


def voter_participates(
    instance: Instance,
    voter: VoterId,
    others: Mapping[VoterId, ReportedType],
) -> bool:
    """Whether ``voter`` is reachable given the others' reports.

    Participation of a voter never depends on its own report, so any report
    may stand in for it.
    """
    reports = dict(others)
    reports[voter] = instance.truthful_report(voter)
    return voter in participating_voters(instance.graph, reports, validate=False)


def participating_others(
    instance: Instance,
    voter: VoterId,
) -> Iterator[dict[VoterId, ReportedType]]:
    """Joint reports of the others under which ``voter`` participates.

    These are the contexts of a per-voter deviation enumeration, in the
    lexicographic order of ``others_assignments``. Callers bound the size
    beforehand with ``deviation_space_size``.
    """
    for others in others_assignments(instance, voter, budget=None):
        if voter_participates(instance, voter, others):
            yield others


def deviation_space_size(instance: Instance, own_sizes: Mapping[VoterId, int]) -> int:
    """Projected size of a per-voter deviation enumeration.

    Each voter contributes every joint report of the others times
    ``own_sizes[voter]``, the reports it is tried with in each of them.
    """
    total = profile_space_size(instance)
    return sum(total // len(instance.report_space(v)) * own for v, own in own_sizes.items())
