from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

import treechoice.cli as cli
from treechoice.cli import main
from treechoice.fileio import (
    dump_canonical,
    instance_to_dict,
    load_instance,
    make_fig2,
    parse_instance,
)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--shape", "random", "--size", "4", "--seed", "7", "--out", str(a)]) == 0
    assert main(["gen", "--shape", "random", "--size", "4", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_instance_round_trip(tmp_path):
    path = tmp_path / "fig2.json"
    assert main(["gen", "--shape", "fig2", "--out", str(path)]) == 0
    once = load_instance(path)
    again = parse_instance(json.loads(dump_canonical(instance_to_dict(once))))
    assert once == again
    assert once == make_fig2()


def test_gen_chain_names(tmp_path):
    path = tmp_path / "chain.json"
    assert main(["gen", "--shape", "chain", "--depth", "3", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["moderator_children"] == ["i"]
    assert data["children"]["i"] == ["j"]
    assert data["children"]["j"] == ["u"]


def test_evaluate_demo(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(path)])
    code, out, _ = run_cli(
        capsys, "evaluate", "--scf", "depth-weighted-median", "--instance", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "3/5"
    assert data["weights"] == {"i": 3, "j": 1, "u": 1, "v": 1}
    assert data["participating"] == ["i", "j", "u", "v"]
    assert data["depths"] == {"i": 1, "j": 1, "u": 2, "v": 2}


def test_evaluate_with_reports_file(tmp_path, capsys):
    inst = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(inst)])
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps({"reports": {"i": {"peak": "3/5", "invited": []}}}))
    code, out, _ = run_cli(
        capsys,
        "evaluate", "--scf", "depth-weighted-median",
        "--instance", str(inst), "--reports", str(reports),
    )
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "3/10"
    assert data["participating"] == ["i", "j"]


def test_check_exit_codes(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(path)])
    code, out, _ = run_cli(
        capsys,
        "check", "--scf", "depth-weighted-median", "--instance", str(path),
        "--property", "AN-SD",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Pass"
    code, out, _ = run_cli(
        capsys,
        "check", "--scf", "depth-weighted-median", "--instance", str(path),
        "--property", "AN-D",
    )
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "Fail"
    assert report["witness"] is not None
    code, _, err = run_cli(
        capsys,
        "check", "--scf", "depth-weighted-median", "--instance", str(path),
        "--property", "SP", "--budget", "5",
    )
    assert code == 3
    assert "budget" in err


def test_check_mode_flag_selects_diffusion_variant(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(path)])
    code, out, _ = run_cli(
        capsys,
        "check", "--scf", "depth-weighted-median", "--instance", str(path),
        "--property", "SP-D",
    )
    assert code == 0
    assert json.loads(out)["property"] == "SP-D"


def test_check_fixed_rule_fails_efficiency(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({
        "moderator_children": ["a", "b"],
        "children": {},
        "peaks": {"a": "0/1", "b": "0/1"},
        "grid": ["0/1", "1/2", "1/1"],
    }))
    code, out, _ = run_cli(
        capsys, "check", "--scf", "fixed:1/2", "--instance", str(path), "--property", "PE"
    )
    assert code == 2


def test_search_csp_exit_codes(tmp_path, capsys):
    path = tmp_path / "chain.json"
    main(["gen", "--shape", "chain", "--depth", "3", "--out", str(path)])
    code, out, _ = run_cli(
        capsys, "search-csp", "--instance", str(path), "--properties", "SP,PE,AN-S"
    )
    assert code == 2
    data = json.loads(out)
    assert data["result"]["verdict"] == "unsat"
    assert data["csp"]["variables"] == 39
    code, out, _ = run_cli(
        capsys, "search-csp", "--instance", str(path), "--properties", "SP,PE"
    )
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "sat"


def test_usage_and_validation_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--scf", "direct-median"])  # missing --instance
    assert exc.value.code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        capsys, "evaluate", "--scf", "direct-median", "--instance", str(bad)
    )
    assert code == 1
    assert "error" in err
    good = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(good)])
    code, _, err = run_cli(
        capsys, "evaluate", "--scf", "mystery-rule", "--instance", str(good)
    )
    assert code == 1
    code, _, err = run_cli(
        capsys, "search-csp", "--instance", str(good), "--properties", "SP,VR-\u00b2"
    )
    assert code == 1
    assert "unknown property" in json.loads(err)["error"]
    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--serial"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:  # SP-D is the diffusion check; there is no --mode
        main(["check", "--scf", "direct-median", "--instance", str(good), "--property", "SP", "--mode", "full"])
    assert exc.value.code == 1


def test_negative_limits_are_usage_errors(tmp_path, capsys):
    # a negative time limit or budget is refused by the parser, at exit 1,
    # before any check or search runs; 0 stays legal
    good = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(good)])
    check = ["check", "--scf", "direct-median", "--instance", str(good), "--property", "PE"]
    search = ["search-csp", "--instance", str(good), "--properties", "SP,PE"]
    matrix = ["matrix", "--instance", str(good)]
    for argv in (
        [*check, "--budget", "-5"],
        [*search, "--timeout", "-1"],
        [*search, "--timeout", "nan"],
        [*search, "--variable-budget", "-1"],
        [*matrix, "--timeout", "-1"],
        [*matrix, "--timeout", "-0.5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and f"error: argument {argv[-2]}: must be a non-negative" in err, argv
    with pytest.raises(SystemExit) as exc:  # not a number at all: argparse's own message
        main([*check, "--budget", "x"])
    assert exc.value.code == 1
    assert "error: argument --budget: invalid int value: 'x'" in capsys.readouterr().err
    # zero is a limit, not a usage error: no profile fits a budget of 0, no
    # variable a variable budget of 0, and a search with no time left gives up
    assert main([*check, "--budget", "0"]) == 3
    assert "exceeds budget 0" in capsys.readouterr().err
    assert main([*search, "--variable-budget", "0"]) == 3
    assert "exceeds budget 0" in capsys.readouterr().err
    assert main([*search, "--timeout", "0"]) == 3
    capsys.readouterr()


def test_instance_file_errors_are_path_qualified(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "moderator_children": ["a"],
        "children": {},
        "peaks": {"a": "0.5"},
        "grid": ["0/1", "1/1"],
    }))
    code, _, err = run_cli(
        capsys, "evaluate", "--scf", "direct-median", "--instance", str(path)
    )
    assert code == 1
    assert "peaks.a" in err


@pytest.mark.parametrize(
    "option, document, at",
    [
        ("--reports", {"reports": {"i": "3/5"}}, ".reports.i"),
        ("--reports", {"reports": {"i": {"peak": "3/5", "invited": [["u"]]}}}, ".reports.i.invited"),
        ("--scf", {"anonymous": {"two": ["0/1", "1/1"]}}, ".anonymous.two"),
        ("--scf", {"anonymous": {"1": ["0/1", "zz"]}}, ".anonymous.1[1]"),
        ("--scf", {"by_subset": [{"participants": ["i", "j"]}]}, ".by_subset[0].alpha"),
    ],
    ids=["report-not-object", "invited-not-string", "gmvs-size-not-int", "gmvs-not-rational", "gmvs-no-alpha"],
)
def test_malformed_report_and_gmvs_files_are_path_qualified(tmp_path, capsys, option, document, at):
    instance = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(instance)])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    given = ["--reports", str(path), "--scf", "direct-median"] if option == "--reports" else ["--scf", f"gmvs:{path}"]
    code, out, err = run_cli(capsys, "evaluate", "--instance", str(instance), *given)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert set(error) == {"error", "kind"}
    assert error["error"].startswith(f"{path}{at}: ")


@pytest.mark.parametrize("option", ["--instance", "--reports", "--scf"])
@pytest.mark.parametrize("broken", ["missing", "bad-json"])
def test_every_input_file_fails_alike(tmp_path, capsys, option, broken):
    # an unreadable file is named by its path, and a syntax error by its
    # path, line and column, whichever option the file came from
    instance = tmp_path / "fig2.json"
    main(["gen", "--shape", "fig2", "--out", str(instance)])
    path = tmp_path / "input.json"
    if broken == "bad-json":
        path.write_text('{"a": ')
    given = {
        "--instance": ["--instance", str(path), "--scf", "direct-median"],
        "--reports": ["--instance", str(instance), "--reports", str(path), "--scf", "direct-median"],
        "--scf": ["--instance", str(instance), "--scf", f"gmvs:{path}"],
    }[option]
    code, out, err = run_cli(capsys, "evaluate", *given)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["kind"] == "InstanceFileError"
    assert error["error"].startswith(f"{path}: " if broken == "missing" else f"{path}:1:7: ")


def test_matrix_markdown_smoke(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "matrix", "--format", "markdown")
    assert code == 0
    assert "| VR-2 |" in out
    assert "AN-SD" in out
    # --out takes the markdown, trailing newline and all, and stdout stays empty
    path = tmp_path / "matrix.md"
    assert run_cli(capsys, "matrix", "--format", "markdown", "--out", str(path)) == (0, "", "")
    assert path.read_text() == out and out.endswith("|\n")


def _without_timings(doc):
    if isinstance(doc, dict):
        return {k: _without_timings(v) for k, v in doc.items() if k not in ("wall_time_s", "phase_s")}
    if isinstance(doc, list):
        return [_without_timings(v) for v in doc]
    return doc


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main reuses one parser; each call must give the exit code and bytes it
    # gives with a parser built for it alone, whatever the calls before it
    # set: markdown and --out before a plain matrix, --ambiguous-ok before a
    # plain check, a usage error in between
    fig2 = tmp_path / "fig2.json"
    assert main(["gen", "--shape", "fig2", "--out", str(fig2)]) == 0
    check = ["check", "--scf", "depth-weighted-median", "--instance", str(fig2)]
    calls = [
        ["matrix", "--format", "markdown", "--out", "{dir}/matrix.md"],
        ["matrix", "--out", "{dir}/matrix.json"],
        ["matrix", "--format", "markdown"],
        [*check, "--property", "AN-D", "--ambiguous-ok", "--out", "{dir}/check.json"],
        [*check, "--property", "SP"],
        ["check", "--scf", "depth-weighted-median", "--property", "SP"],
        ["search-csp", "--instance", str(fig2), "--properties", "SP,PE,AN-SD,VR-2"],
        ["matrix", "--format", "xml"],
    ]

    def run_all(folder):
        folder.mkdir()
        runs = []
        for argv in calls:
            try:
                code = main([arg.format(dir=folder) for arg in argv])
            except SystemExit as exc:  # a usage error
                code = exc.code
            out, err = capsys.readouterr()
            texts = {"stdout": out, **{path.name: path.read_text() for path in folder.iterdir()}}
            docs = {name: _without_timings(json.loads(text)) if text.startswith("{") else text for name, text in texts.items()}
            runs.append((code, err, docs))
        return runs

    reused = run_all(tmp_path / "reused")
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser for every call
    fresh = run_all(tmp_path / "fresh")
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 1, 0, 1]
    assert reused == fresh


def _json_canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_canonical_writer_matches_json_on_every_cli_document(tmp_path, capsys, monkeypatch):
    emitted = []

    def recording(doc):
        text = dump_canonical(doc)
        emitted.append((doc, text))
        return text

    monkeypatch.setattr(cli, "dump_canonical", recording)
    fig2, chain, branch = (tmp_path / f"{name}.json" for name in ("fig2", "chain", "branch"))
    branch.write_text(json.dumps({
        "moderator_children": ["a", "b"],
        "children": {"a": ["c"]},
        "peaks": {"a": "0/1", "b": "1/1", "c": "1/2"},
        "grid": ["0/1", "1/2", "1/1"],
    }))
    runs = [
        (0, ["gen", "--shape", "fig2", "--out", str(fig2)]),
        (0, ["gen", "--shape", "chain", "--depth", "3", "--out", str(chain)]),
        (0, ["gen", "--shape", "random", "--size", "4", "--seed", "7"]),
        (0, ["evaluate", "--scf", "depth-weighted-median", "--instance", str(fig2)]),
        (0, ["check", "--scf", "depth-weighted-median", "--instance", str(fig2), "--property", "AN-SD"]),
        (2, ["check", "--scf", "depth-weighted-median", "--instance", str(fig2), "--property", "AN-D"]),
        (2, ["check", "--scf", "participant-median", "--instance", str(fig2), "--property", "SP"]),
        (0, ["matrix"]),
        (0, ["matrix", "--instance", str(chain)]),
        (0, ["matrix", "--instance", str(branch)]),
        (0, ["search-csp", "--instance", str(fig2), "--properties", "SP,PE,AN-SD,VR-2"]),
        (2, ["search-csp", "--instance", str(chain), "--properties", "SP,PE,AN-S"]),
        (3, ["check", "--scf", "depth-weighted-median", "--instance", str(fig2), "--property", "SP", "--budget", "5"]),
        (1, ["evaluate", "--scf", "mystery-rule", "--instance", str(fig2)]),
    ]
    for code, argv in runs:
        assert main(argv) == code, argv
    capsys.readouterr()
    assert len(emitted) == len(runs)
    for doc, text in emitted:
        assert text == _json_canonical(doc)
    docs = [doc for doc, _ in emitted]
    assert sum(doc.get("verdict") == "Fail" and doc.get("witness") is not None for doc in docs) == 2
    assert sum(isinstance(doc.get("result", {}).get("model"), list) for doc in docs) == 1
    assert [doc["kind"] for doc in docs if "kind" in doc] == ["budget", "ConfigurationError"]


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([1e-7, 1e16, -0.0, 0.1, 2.0**53 + 1]),
    st.text(),
    st.sampled_from(["", "\u00e9t\u00e9", "\u2603\U0001f600", '"\\/\b\f\n\r\t', "\x00\x1f\x7f"]),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),  # not str keys: json spells the document
    )


@given(st.recursive(_leaves, _containers, max_leaves=40))
def test_canonical_writer_matches_json_on_drawn_trees(doc):
    assert dump_canonical(doc) == _json_canonical(doc)
