"""Independent reference computations that the benchmark checks outputs against.

Nothing here calls into ``treechoice``. Participation, reported depths,
situation keys, the four bundled rules, closed-form enumeration sizes and
every replay are re-derived from an instance's raw data (tree, true peaks,
grid), read either from an ``Instance`` object's fields or from the JSON form
the CLI writes. Each ``*_problems`` function returns a list of human-readable
problems; an empty list means the output checked out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

AN_VARIANTS = ("AN", "AN-S", "AN-D", "AN-SD")


@dataclass(frozen=True)
class Tree:
    """An instance as plain data: tree, true peaks, grid and true depths."""

    direct: tuple[str, ...]
    children: dict[str, tuple[str, ...]]
    peaks: dict[str, Fraction]
    grid: tuple[Fraction, ...]
    depth: dict[str, int]

    @property
    def voters(self) -> tuple[str, ...]:
        return tuple(sorted(self.children))

    @property
    def max_depth(self) -> int:
        return max(self.depth.values())

    @classmethod
    def build(cls, direct, children, peaks, grid) -> "Tree":
        voters = set(direct) | set(children) | set(peaks)
        kids = {v: tuple(sorted(children.get(v, ()))) for v in voters}
        depth: dict[str, int] = {}
        frontier, level = sorted(direct), 1
        while frontier:
            nxt = []
            for v in frontier:
                depth[v] = level
                nxt.extend(kids[v])
            frontier, level = nxt, level + 1
        if set(depth) != voters:
            raise ValueError("tree does not span its voters")
        return cls(tuple(sorted(direct)), kids, dict(peaks), tuple(grid), depth)

    @classmethod
    def from_instance(cls, instance) -> "Tree":
        if instance.preference_model.value != "symmetric":
            raise ValueError("the reference replays assume symmetric distance preferences")
        graph = instance.graph
        return cls.build(
            graph.moderator_children,
            {v: graph.children[v] for v in graph.voters},
            instance.true_peaks,
            instance.grid,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "Tree":
        if data.get("preference_model", "symmetric") != "symmetric":
            raise ValueError("the reference replays assume symmetric distance preferences")
        return cls.build(
            data["moderator_children"],
            data["children"],
            {v: Fraction(q) for v, q in data["peaks"].items()},
            [Fraction(q) for q in data["grid"]],
        )

    def renamed(self, names: dict[str, str]) -> "Tree":
        return Tree.build(
            [names[v] for v in self.direct],
            {names[v]: [names[c] for c in kids] for v, kids in self.children.items()},
            {names[v]: p for v, p in self.peaks.items()},
            self.grid,
        )

    def to_dict(self) -> dict:
        """The instance-file form (``num/den`` strings throughout)."""
        return {
            "schema_version": 1,
            "moderator_children": list(self.direct),
            "children": {v: list(self.children[v]) for v in self.voters},
            "peaks": {v: fmt(self.peaks[v]) for v in self.voters},
            "grid": [fmt(q) for q in self.grid],
            "preference_model": "symmetric",
        }


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# --------------------------------------------------------------------------
# reports, participation, depths, situation keys

Report = tuple  # (peak: Fraction, invited: frozenset[str])


def participants(tree: Tree, reports: dict) -> set[str]:
    reached = set(tree.direct)
    stack = list(tree.direct)
    while stack:
        for child in reports[stack.pop()][1]:
            if child not in reached:
                reached.add(child)
                stack.append(child)
    return reached


def reported_depths(tree: Tree, reports: dict) -> dict[str, int]:
    depth: dict[str, int] = {}
    frontier, level = list(tree.direct), 1
    while frontier:
        nxt = []
        for v in frontier:
            depth[v] = level
            nxt.extend(reports[v][1])
        frontier, level = nxt, level + 1
    return depth


def situation(tree: Tree, reports: dict) -> tuple:
    """What a rule may observe: each participant's reported peak and invitations."""
    return tuple(
        (v, reports[v][0], tuple(sorted(reports[v][1]))) for v in sorted(participants(tree, reports))
    )


def report_space(tree: Tree, voter: str) -> list[Report]:
    kids = tree.children[voter]
    subsets = [
        frozenset(c for b, c in enumerate(kids) if mask >> b & 1) for mask in range(1 << len(kids))
    ]
    return [(p, s) for p in tree.grid for s in subsets]


def all_profiles(tree: Tree):
    voters = tree.voters
    for combo in itertools.product(*(report_space(tree, v) for v in voters)):
        yield dict(zip(voters, combo))


def others_profiles(tree: Tree, voter: str):
    """Reports of everyone but ``voter`` for which ``voter`` participates."""
    others = [v for v in tree.voters if v != voter]
    stand_in = (tree.grid[0], frozenset())
    for combo in itertools.product(*(report_space(tree, v) for v in others)):
        profile = dict(zip(others, combo))
        profile[voter] = stand_in
        if voter in participants(tree, profile):
            yield profile


def legal_problems(tree: Tree, reports: dict) -> list[str]:
    if set(reports) != set(tree.voters):
        return [f"profile names voters {sorted(reports)}, instance has {list(tree.voters)}"]
    out = []
    for v, (peak, invited) in reports.items():
        if peak not in tree.grid:
            out.append(f"{v} reports off-grid peak {peak}")
        if not invited <= set(tree.children[v]):
            out.append(f"{v} invites non-children {sorted(invited - set(tree.children[v]))}")
    return out


def parse_report(entry: dict) -> Report:
    return (Fraction(entry["peak"]), frozenset(entry["invited"]))


def parse_profile(data: dict) -> dict:
    return {v: parse_report(entry) for v, entry in data.items()}


# --------------------------------------------------------------------------
# reference rules


def weighted_median(entries) -> Fraction:
    items = sorted(entries)
    rank = (sum(w for _, w in items) + 1) // 2
    seen = 0
    for value, weight in items:
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("empty multiset")


def outcome(rule: str, tree: Tree, reports: dict) -> Fraction:
    """The bundled rules, re-implemented from their definitions."""
    if rule.startswith("fixed:"):
        return Fraction(rule[len("fixed:"):])
    if rule == "direct-median":
        return weighted_median((reports[v][0], 1) for v in tree.direct)
    if rule == "participant-median":
        return weighted_median((reports[v][0], 1) for v in participants(tree, reports))
    if rule == "depth-weighted-median":
        entries = []
        for v, d in reported_depths(tree, reports).items():
            if d == 1:
                entries.append((reports[v][0], len(reports[v][1]) + 1))
            elif d == 2:
                entries.append((reports[v][0], 1))
        return weighted_median(entries)
    raise ValueError(f"no reference for rule {rule!r}")


def class_key(variant: str, invited_count: int, depth: int) -> tuple:
    if variant == "AN":
        return ("all",)
    if variant == "AN-S":
        return ("structure", invited_count)
    if variant == "AN-D":
        return ("depth", depth)
    return ("structure-depth", invited_count, depth)


# --------------------------------------------------------------------------
# closed-form sizes of the spaces a Pass must exhaust


def expected_examined(tree: Tree, prop: str) -> int | None:
    """``profiles_examined`` of an exhaustive Pass, or None if a Pass may stop early.

    PE walks every invitation configuration at true peaks; AN-* and
    DEPTH1-HULL walk every joint report. SP (SP-D) counts, per voter, each
    joint report of the others in which the voter participates, times the
    voter's non-truthful reports (invitation-only reports): a voter at true
    depth t participates exactly when each of its t-1 ancestors invites the
    next voter on the path, which halves each ancestor's invitation choices.
    """
    g = len(tree.grid)
    space = {v: g * 2 ** len(tree.children[v]) for v in tree.voters}
    if prop == "PE":
        return _product(2 ** len(tree.children[v]) for v in tree.voters)
    if prop in AN_VARIANTS or prop == "DEPTH1-HULL":
        return _product(space.values())
    if prop in ("SP", "SP-D"):
        total = 0
        for v in tree.voters:
            others = _product(space[u] for u in tree.voters if u != v)
            own = space[v] if prop == "SP" else 2 ** len(tree.children[v])
            total += others // 2 ** (tree.depth[v] - 1) * (own - 1)
        return total
    return None


def _product(values) -> int:
    out = 1
    for value in values:
        out *= value
    return out


def examined_problems(tree: Tree, report: dict) -> list[str]:
    if report["verdict"] != "Pass":
        return []
    want = expected_examined(tree, report["property"])
    if want is not None and report["profiles_examined"] != want:
        return [f"{report['property']} Pass examined {report['profiles_examined']}, the space has {want}"]
    return []


# --------------------------------------------------------------------------
# witness replay


def witness_problems(tree: Tree, rule: str, report: dict) -> list[str]:
    """Replay a checker report's witness with the reference rule and arithmetic.

    Fails are replayed for every property; a VR Pass is replayed voter by
    voter; a VR Fail is confirmed by searching the cited voter exhaustively.
    Other Passes carry no witness and are checked by ``examined_problems``.
    """
    prop, verdict, w = report["property"], report["verdict"], report["witness"]
    if prop.startswith("VR-"):
        return _vr_problems(tree, rule, int(prop[3:]), verdict, w)
    if verdict == "Pass":
        return [] if w is None else [f"{prop} Pass carries a witness"]
    if w is None:
        return [f"{prop} Fail carries no witness"]
    if prop in ("SP", "SP-D"):
        return _sp_problems(tree, rule, prop, w)
    if prop == "PE":
        return _pe_problems(tree, rule, w)
    if prop == "ONTO":
        hit = {outcome(rule, tree, p) for p in all_profiles(tree)}
        unhit = sorted(q for q in tree.grid if q not in hit)
        return [] if [Fraction(q) for q in w["unhit"]] == unhit else [f"ONTO unhit {w['unhit']} != {unhit}"]
    if prop in AN_VARIANTS:
        return _an_problems(tree, rule, prop, w)
    if prop == "DEPTH1-HULL":
        profile = parse_profile(w["profile"])
        out = legal_problems(tree, profile)
        if out:
            return out
        peaks = [profile[v][0] for v in tree.direct]
        lo, hi = min(peaks), max(peaks)
        got = outcome(rule, tree, profile)
        if [Fraction(q) for q in w["depth1_hull"]] != [lo, hi]:
            out.append("DEPTH1-HULL hull differs")
        if got != Fraction(w["outcome"]):
            out.append(f"DEPTH1-HULL outcome {w['outcome']} replays as {got}")
        if lo <= got <= hi:
            out.append("DEPTH1-HULL outcome lies inside the hull")
        return out
    return [f"no replay for property {prop}"]


def _sp_problems(tree: Tree, rule: str, prop: str, w: dict) -> list[str]:
    voter = w["voter"]
    peak = tree.peaks[voter]
    truth, dev = parse_profile(w["truthful_profile"]), parse_profile(w["deviation_profile"])
    out = legal_problems(tree, truth) + legal_problems(tree, dev)
    if out:
        return out
    if Fraction(w["true_peak"]) != peak:
        out.append(f"{prop} cites true peak {w['true_peak']}, instance has {peak}")
    if truth[voter] != (peak, frozenset(tree.children[voter])):
        out.append(f"{prop} truthful profile misreports {voter}")
    if any(truth[v] != dev[v] for v in tree.voters if v != voter) or truth[voter] == dev[voter]:
        out.append(f"{prop} profiles do not differ exactly at {voter}")
    if prop == "SP-D" and dev[voter][0] != peak:
        out.append("SP-D deviation moves the peak")
    if voter not in participants(tree, truth):
        out.append(f"{prop} manipulator {voter} does not participate")
    got_t, got_d = outcome(rule, tree, truth), outcome(rule, tree, dev)
    if got_t != Fraction(w["truthful_outcome"]) or got_d != Fraction(w["deviation_outcome"]):
        out.append(f"{prop} outcomes replay as {got_t}, {got_d}")
    if not abs(got_d - peak) < abs(got_t - peak):
        out.append(f"{prop} deviation is not strictly closer to {peak}")
    return out


def _pe_problems(tree: Tree, rule: str, w: dict) -> list[str]:
    profile = parse_profile(w["profile"])
    out = legal_problems(tree, profile)
    if out:
        return out
    if any(profile[v][0] != tree.peaks[v] for v in tree.voters):
        out.append("PE profile misreports a peak")
    part = participants(tree, profile)
    if sorted(part) != w["participating"]:
        out.append("PE participation differs")
    peaks = [tree.peaks[v] for v in part]
    lo, hi = min(peaks), max(peaks)
    if [Fraction(q) for q in w["hull"]] != [lo, hi]:
        out.append("PE hull differs")
    got = outcome(rule, tree, profile)
    if got != Fraction(w["outcome"]):
        out.append(f"PE outcome {w['outcome']} replays as {got}")
    if lo <= got <= hi:
        out.append("PE outcome lies inside the hull")
    return out


def _an_problems(tree: Tree, rule: str, prop: str, w: dict) -> list[str]:
    base, perm = parse_profile(w["profile"]), parse_profile(w["permuted_profile"])
    out = legal_problems(tree, base) + legal_problems(tree, perm)
    if out:
        return out
    members = set(w["class_members"])
    part = participants(tree, base)
    depths = reported_depths(tree, base)
    keys = {v: class_key(prop, len(base[v][1]), depths[v]) for v in part}
    key = tuple(w["class_key"])
    if {v for v in part if keys[v] == key} != members:
        out.append(f"{prop} class {sorted(members)} is not the participants with key {key}")
    if any(base[v][1] != perm[v][1] for v in tree.voters):
        out.append(f"{prop} permutation moves invitations")
    if any(base[v] != perm[v] for v in tree.voters if v not in members):
        out.append(f"{prop} permutation touches a non-member")
    if sorted(base[v][0] for v in members) != sorted(perm[v][0] for v in members):
        out.append(f"{prop} is not a permutation of the members' peaks")
    got, got_p = outcome(rule, tree, base), outcome(rule, tree, perm)
    if got != Fraction(w["outcome"]) or got_p != Fraction(w["permuted_outcome"]):
        out.append(f"{prop} outcomes replay as {got}, {got_p}")
    if got == got_p:
        out.append(f"{prop} permutation does not move the outcome")
    return out


def _vr_problems(tree: Tree, rule: str, d: int, verdict: str, w: dict) -> list[str]:
    scope = sorted(v for v in tree.voters if tree.depth[v] <= d)
    if verdict == "Fail":
        voter = w["voter"]
        if voter not in scope:
            return [f"VR-{d} fails on out-of-scope voter {voter}"]
        if _relevant(tree, voter, lambda p: outcome(rule, tree, p)):
            return [f"VR-{d} Fail, but {voter} is relevant"]
        return []
    cited = w["voters"]
    out = [] if sorted(cited) == scope else [f"VR-{d} Pass covers {sorted(cited)}, scope is {scope}"]
    for voter, entry in cited.items():
        a = parse_profile(entry["others"])
        b = dict(a)
        a[voter], b[voter] = parse_report(entry["report_a"]), parse_report(entry["report_b"])
        problems = legal_problems(tree, a) + legal_problems(tree, b)
        if problems:
            out.extend(problems)
            continue
        if voter not in participants(tree, a):
            out.append(f"VR-{d} witness for {voter}: voter does not participate")
        got_a, got_b = outcome(rule, tree, a), outcome(rule, tree, b)
        if got_a != Fraction(entry["outcome_a"]) or got_b != Fraction(entry["outcome_b"]):
            out.append(f"VR-{d} witness for {voter}: outcomes replay as {got_a}, {got_b}")
        if got_a == got_b:
            out.append(f"VR-{d} witness for {voter}: both reports give {got_a}")
    return out


def _relevant(tree: Tree, voter: str, value) -> bool:
    space = report_space(tree, voter)
    for profile in others_profiles(tree, voter):
        seen = set()
        for rep in space:
            profile[voter] = rep
            seen.add(value(profile))
            if len(seen) > 1:
                return True
    return False


def implication_problems(verdicts: dict[str, bool]) -> list[str]:
    """The cross-checker laws: AN => AN-S and AN-D; AN-S or AN-D => AN-SD;
    SP => SP-D; VR-d => VR-(d-1)."""
    out = []
    laws = [("AN", "AN-S"), ("AN", "AN-D"), ("AN-S", "AN-SD"), ("AN-D", "AN-SD"), ("SP", "SP-D")]
    laws += [(f"VR-{d}", f"VR-{d - 1}") for d in range(1, 64)]
    for strong, weak in laws:
        if verdicts.get(strong) and weak in verdicts and not verdicts[weak]:
            out.append(f"{strong} passes but {weak} fails")
    return out


# --------------------------------------------------------------------------
# Sat models


def model_from_json(entries: list[dict]) -> dict[tuple, Fraction]:
    return {
        tuple(
            (s["voter"], Fraction(s["peak"]), tuple(s["invited"])) for s in entry["situation"]
        ): Fraction(entry["outcome"])
        for entry in entries
    }


def model_problems(tree: Tree, model: dict[tuple, Fraction], props) -> list[str]:
    """Replay a Sat table against everything its property set claims.

    SP is replayed for every voter under every hypothetical true peak on the
    grid, as the encoding promises, not only at the instance's own peaks.
    """
    reachable = {situation(tree, p) for p in all_profiles(tree)}
    missing = reachable - set(model)
    if missing:
        return [f"model leaves {len(missing)} reachable situations unassigned"]
    out = [f"model value {q} is off the grid" for q in set(model.values()) if q not in tree.grid]
    props = set(props)
    if "PE" in props:
        for key in reachable:
            peaks = [p for _, p, _ in key]
            if not min(peaks) <= model[key] <= max(peaks):
                out.append(f"PE: {key} -> {model[key]} leaves the hull")
    for variant in AN_VARIANTS:
        if variant in props:
            out.extend(_model_an_problems(tree, model, reachable, variant))
    for prop in props:
        if prop.startswith("VR-"):
            d = int(prop[3:])
            for voter in (v for v in tree.voters if tree.depth[v] <= d):
                if not _relevant(tree, voter, lambda p: model[situation(tree, p)]):
                    out.append(f"{prop}: {voter} never changes the outcome")
    if "SP" in props:
        out.extend(_model_sp_problems(tree, model))
    return out[:20]


def _model_an_problems(tree, model, reachable, variant) -> list[str]:
    out = []
    for key in reachable:
        reports = {v: (p, frozenset(inv)) for v, p, inv in key}
        depth: dict[str, int] = {}
        frontier, level = [v for v in tree.direct], 1
        while frontier:
            nxt = []
            for v in frontier:
                depth[v] = level
                nxt.extend(reports[v][1])
            frontier, level = nxt, level + 1
        for a, b in itertools.combinations(range(len(key)), 2):
            (va, pa, ia), (vb, pb, ib) = key[a], key[b]
            if pa == pb or class_key(variant, len(ia), depth[va]) != class_key(variant, len(ib), depth[vb]):
                continue
            swapped = list(key)
            swapped[a], swapped[b] = (va, pb, ia), (vb, pa, ib)
            if model.get(tuple(swapped)) != model[key]:
                out.append(f"{variant}: swapping {va} and {vb} in {key} moves the outcome")
    return out


def _model_sp_problems(tree, model) -> list[str]:
    out = []
    for voter in tree.voters:
        space = report_space(tree, voter)
        kids = frozenset(tree.children[voter])
        for profile in others_profiles(tree, voter):
            value = {}
            for rep in space:
                profile[voter] = rep
                value[rep] = model[situation(tree, profile)]
            for peak in tree.grid:
                truthful = value[(peak, kids)]
                for rep, dev in value.items():
                    if abs(dev - peak) < abs(truthful - peak):
                        out.append(f"SP: {voter} with peak {peak} gains by reporting {rep}")
                        return out
    return out


# --------------------------------------------------------------------------
# existence matrix documents

DEFAULT_DECIDED = {
    "VR-0|AN-S": "not-on-instance",
    "VR-2|AN-D": "not-on-instance",
    "VR-1|AN-D": "exists",
    "VR-2|AN-SD": "exists",
    "VR-n|AN-SD": "open",
    "VR-3 .. VR-n-1|AN-SD": "open",
}
COLUMNS = ("AN", "AN-S", "AN-D", "AN-SD")


def matrix_problems(doc: dict, instance: dict | None = None) -> list[str]:
    """Check a ``treechoice matrix`` JSON document by its verdicts, never its bytes.

    ``instance`` is the instance file's content for ``--instance`` runs and
    None for the default matrix.
    """
    out = []
    cells, artifacts = doc["cells"], doc["artifacts"]
    if instance is None:
        for name, want in DEFAULT_DECIDED.items():
            got = cells.get(name, {}).get("verdict")
            if got != want:
                out.append(f"default cell {name} is {got}, the theorem says {want}")
    else:
        depth = Tree.from_dict(instance).max_depth
        rows = [f"VR-{d}" for d in range(depth, -1, -1)]
        if doc["rows"] != rows:
            out.append(f"instance matrix rows {doc['rows']} != {rows}")
    want_cells = {f"{row}|{col}" for row in doc["rows"] for col in COLUMNS}
    if set(cells) != want_cells:
        out.append("matrix cells do not cover rows x columns")
    for name, cell in cells.items():
        artifact = artifacts.get(cell.get("evidence"))
        if artifact is None:
            out.append(f"cell {name} has no artifact")
            continue
        out.extend(_cell_problems(name, cell["verdict"], artifact))
    if instance is not None:
        out.extend(_monotonicity_problems(cells))
    return out


def _cell_problems(name: str, verdict: str, artifact: dict) -> list[str]:
    kind = artifact.get("kind")
    if verdict == "exists" and kind == "check-suite":
        bad = [r["property"] for r in artifact["reports"] if r["verdict"] != "Pass"]
        return [f"cell {name} cites non-Pass reports {bad}"] if bad else []
    if verdict == "exists" and kind == "csp":
        out = []
        if artifact["result"]["verdict"] != "sat":
            out.append(f"cell {name} exists without a sat result")
        if not artifact.get("replay") or any(r["verdict"] != "Pass" for r in artifact["replay"]):
            out.append(f"cell {name} has a failing or missing replay")
        if artifact["result"]["model"] is not None:
            tree = Tree.from_dict(artifact["instance"])
            model = model_from_json(artifact["result"]["model"])
            out.extend(f"cell {name}: {p}" for p in model_problems(tree, model, artifact["properties"]))
        return out
    if verdict in ("not-on-instance", "open"):
        if kind != "csp" or artifact.get("result", {}).get("verdict") != "unsat":
            return [f"cell {name} is {verdict} without an unsat result"]
        return []
    return [f"cell {name} has verdict {verdict} with a {kind} artifact"]


def _monotonicity_problems(cells: dict) -> list[str]:
    out = []
    for name, cell in cells.items():
        if cell["verdict"] != "exists":
            continue
        row, col = name.split("|")
        d = int(row[3:])
        if d >= 1 and cells[f"VR-{d - 1}|{col}"]["verdict"] != "exists":
            out.append(f"{name} exists but VR-{d - 1}|{col} does not")
        if col == "AN":
            for weaker in ("AN-S", "AN-D", "AN-SD"):
                if cells[f"{row}|{weaker}"]["verdict"] != "exists":
                    out.append(f"{name} exists but {row}|{weaker} does not")
    return out


# --------------------------------------------------------------------------
# tree shapes


def tree_shapes(voters: int, max_depth: int) -> list[tuple[int, ...]]:
    """Every rooted tree shape with exactly ``voters`` voters, up to isomorphism.

    A shape is a parent array: ``parents[k]`` is the index of voter k's
    parent, -1 for the moderator. One representative per isomorphism class,
    in a fixed order.
    """
    out, seen = [], set()
    for parents in itertools.product(*(range(-1, k) for k in range(voters))):
        depth = []
        for p in parents:
            depth.append(1 if p == -1 else depth[p] + 1)
        if max(depth) > max_depth:
            continue
        kids: dict[int, list[int]] = {k: [] for k in range(-1, voters)}
        for k, p in enumerate(parents):
            kids[p].append(k)

        def signature(node: int) -> tuple:
            return tuple(sorted(signature(c) for c in kids[node]))

        sig = signature(-1)
        if sig not in seen:
            seen.add(sig)
            out.append(parents)
    return out
