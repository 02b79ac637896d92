"""Command line interface: parsing, output shape, exit codes, determinism."""

import json
import re
from pathlib import Path

import pytest

from edgeideal import __version__, regbounds
from edgeideal.chordal import cochordal_cover_number
from edgeideal.cli import main, parse_family
from edgeideal.families import (
    add_pendants,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    path,
    whisker,
)
from edgeideal.graphs import Graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_family_specs():
    assert parse_family("C6") == cycle(6)
    assert parse_family("P4") == path(4)
    assert parse_family("K2,3") == complete_bipartite(2, 3)
    assert parse_family("K4") == complete(4)
    assert parse_family("W(C4)") == whisker(cycle(4))
    assert parse_family("U(C5;K2)") == disjoint_union([cycle(5), complete(2)])
    assert parse_family("U(W(C4);K2,3)") == disjoint_union(
        [whisker(cycle(4)), complete_bipartite(2, 3)]
    )
    assert parse_family("pend(C4;x1,x1)") == add_pendants(cycle(4), ["x1", "x1"])
    star = parse_family("star(1;4)")
    assert star.n_vertices == 11 and star.degree("w") == 2


def test_parse_family_rejects_garbage():
    for bad in ("C2", "Q5", "K3,", "U(C5", "star(1)", "pend(C4)", ""):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_reg_command(capsys):
    code, out, _ = run(capsys, "reg", "--family", "C6")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run(capsys, "reg", "--family", "C6", "--s", "2", "--json")
    assert code == 0
    assert json.loads(out)["reg"] == 5


def test_gprime_command_lists_added_edges(capsys):
    code, out, _ = run(capsys, "gprime", "--family", "C6", "--edges", "x2 x3, x4 x5")
    assert code == 0
    added = out.split("added edges:\n", 1)[1]
    assert "x1 x4  walk: x1 x2 x3 x4" in added
    assert "x3 x6  walk: x3 x4 x5 x6" in added

    code, out, _ = run(
        capsys, "gprime", "--family", "C3", "--edges", "x1 x3", "--json"
    )
    data = json.loads(out)
    assert data["added"] == [
        {"pair": ["x2", "x2"], "walk": ["x2", "x1", "x3", "x2"], "middle_assignment": [[1, 0]]}
    ]
    assert ["x2", "z@x2"] in data["derived"]["edges"]


def test_invariants_on_empty_graph(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("# no edges here\n")
    code, out, _ = run(capsys, "invariants", "--graph", str(f))
    assert code == 0
    lines = dict(line.split() for line in out.splitlines())
    assert lines["vertices"] == "0"
    assert lines["edges"] == "0"
    assert lines["matching"] == "0"
    assert lines["induced_matching"] == "0"
    assert lines["cochord"] == "0"
    assert lines["independence"] == "0"
    assert lines["bipartite"] == "true"


def test_invariants_json_round_trips_the_graph(capsys):
    code, out, _ = run(capsys, "invariants", "--family", "W(C4)", "--json")
    assert code == 0
    data = json.loads(out)
    g = Graph(data["graph"]["vertices"], [tuple(e) for e in data["graph"]["edges"]])
    assert g == whisker(cycle(4))
    assert data["invariants"]["induced_matching"] == 2
    assert data["flags"]["whiskered"] is True


def test_ideal_command_polarizes(capsys):
    code, out, _ = run(
        capsys, "ideal", "--family", "C3", "--power", "2", "--colon", "x1 x3",
        "--polarize",
    )
    assert code == 0
    assert "x2*x2#2" in out.replace(" ", "")
    assert "fresh: x2#2->x2" in out


def test_betti_command(capsys):
    code, out, _ = run(capsys, "betti", "--family", "C5")
    assert code == 0
    assert "regularity 3" in out
    assert "projective_dimension 2" in out

    code, out, _ = run(capsys, "betti", "--family", "C5", "--json")
    data = json.loads(out)
    assert data["regularity"] == 3
    assert {"i": 0, "j": 2, "rank": 5} in data["rows"]


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "C8", "--s", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == 5
    assert data["lower_witnessed"] == 5
    assert data["upper_cochord"] == 6
    assert data["upper_bounds_proven"] is True
    assert data["exact"]["class"] == "cycle"

    code, out, _ = run(capsys, "bounds", "--family", "K2,5")
    assert "upper_bipartition 5/2 (floor 2)" in out


def test_check_command_passes_on_clean_graph(capsys):
    code, out, _ = run(capsys, "check", "--family", "C6", "--s", "1")
    assert code == 0
    assert "[fail]" not in out

    code, out, _ = run(capsys, "check", "--family", "C6", "--s", "1", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert {c["status"] for c in reports[0]["checks"]} <= {"pass", "recorded-pass"}


def test_check_command_no_oracle_skips_reg(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "C6", "--s", "1", "--no-oracle", "--json"
    )
    assert code == 0
    assert json.loads(out)[0]["oracle"] is None


def test_gap_search_command(capsys):
    code, out, _ = run(
        capsys, "gap-search", "--family", "trees:5", "--s", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 3 and data["skipped"] == 0
    assert data["strict"] == []
    assert all(t == "0" for row in data["distribution"].values() for t in row)

    code, out, _ = run(capsys, "gap-search", "--family", "C5", "--family", "C7")
    assert code == 0
    assert "gap 1" in out


def test_gap_search_reports_proven_upper_bound_violations(capsys, monkeypatch):
    def reg_above_cochord_bound(g, s, char=0, caps=None):
        return 2 * s + cochordal_cover_number(g, caps)[0]

    monkeypatch.setattr(regbounds, "reg_power", reg_above_cochord_bound)
    # the bound is a theorem for bipartite graphs at every s and for all at s = 1
    for spec, s in (("C6", "2"), ("P4", "2"), ("C5", "1")):
        code, out, err = run(capsys, "gap-search", "--family", spec, "--s", s)
        assert code == 1, spec
        assert "upper-bound violation" in err and "graphs examined: 1" in out
    code, out, err = run(capsys, "gap-search", "--family", "C5", "--s", "2")
    assert code == 0 and err == ""


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reg", "--family", "C4", "--seed", "1"])
    assert exc.value.code == 2


def test_families_command(capsys):
    code, out, _ = run(capsys, "families")
    assert code == 0
    assert "U(S1;S2;...)" in out
    code, out, _ = run(capsys, "families", "--family", "P3")
    assert code == 0
    assert out == "x1 x2\nx2 x3\n"


def test_usage_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "reg", "--family", "nonsense")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "reg", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2
    code, _, err = run(capsys, "invariants")
    assert code == 2 and "required" in err
    code, _, err = run(capsys, "gprime", "--family", "C6", "--edges", "x1 x3")
    assert code == 2 and "not an edge" in err


def test_resource_cap_exits_3(capsys):
    code, _, err = run(capsys, "reg", "--family", "C6", "--cap-vertices", "2")
    assert code == 3 and "resource cap exceeded" in err


def test_caps_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv("EDGEIDEAL_CAPS", "vertices=2")
    code, _, err = run(capsys, "reg", "--family", "C6")
    assert code == 3


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_cap_flag_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "reg", "--family", "C4", "--cap-lattice", value)
    assert code == 2 and out == ""
    assert "error:" in err and "max_lattice" in err


@pytest.mark.parametrize("text", ["lattice=-1", "generators=0"])
def test_non_positive_cap_in_environment_is_a_usage_error(capsys, monkeypatch, text):
    monkeypatch.setenv("EDGEIDEAL_CAPS", text)
    code, out, err = run(capsys, "reg", "--family", "C4")
    assert code == 2 and out == ""
    assert "error:" in err and "must be a positive integer" in err


@pytest.mark.parametrize("char", ["1", "4", "-3"])
@pytest.mark.parametrize("command", [["reg", "--family", "P2"], ["betti", "--family", "C6"]])
def test_characteristic_not_zero_or_prime_is_a_usage_error(capsys, command, char):
    code, out, err = run(capsys, *command, "--char", char)
    assert code == 2 and out == ""
    assert "error:" in err and "characteristic must be 0 or a prime" in err


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == __version__


def test_output_is_deterministic(capsys):
    first = run(capsys, "check", "--family", "C5", "--s", "1,2", "--json")
    second = run(capsys, "check", "--family", "C5", "--s", "1,2", "--json")
    assert first == second
    third = run(capsys, "bounds", "--family", "star(1;4)", "--s", "2")
    fourth = run(capsys, "bounds", "--family", "star(1;4)", "--s", "2")
    assert third == fourth and third[0] == 0
