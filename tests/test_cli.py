"""CLI: verb behavior, JSON schema validation, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import sigmadim
from sigmadim.cli import main

SCHEMA = json.loads(resources.files("sigmadim").joinpath("schema.json").read_text())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(["--json"] + argv)
    assert code == 0, err
    data = json.loads(out)
    jsonschema.validate(data, SCHEMA)
    return data


class TestVerbs:
    def test_cover_solves_one_cycle_mean(self, monkeypatch):
        import sigmadim.covering
        import sigmadim.meancycle

        real = sigmadim.meancycle.minimum_cycle_mean
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (sigmadim.meancycle, sigmadim.covering):
            monkeypatch.setattr(module, "minimum_cycle_mean", counting)
        code, out, _ = run(["cover", "0,2,3"])
        assert code == 0
        assert out == "E = {0,2,3}\ndensity = 2/5\ncomplement: period 5, offsets {0,1}\n"
        assert len(calls) == 1

    def test_sdim_monomial(self):
        data = run_json(["sdim", "--monomial", "y1*s(y1)", "--imax", "6"])
        assert data["verb"] == "sdim"
        assert data["result"]["certified"] == {"kind": "exact", "value": {"num": "1", "den": "2"}}
        assert data["result"]["method"] == "covering"

    def test_sdim_table_marker(self):
        code, out, _ = run(["sdim", "--monomial", "y1*s(y1)", "--imax", "4"])
        assert code == 0
        assert "sigma-dim (exact) = 1/2" in out
        assert "*" in out

    def test_sdim_general_system(self):
        data = run_json(
            ["sdim", "y1*s(y1)", "y1*y2 - y2*s(y2)", "--imax", "5"]
        )
        res = data["result"]
        assert res["method"] == "truncation"
        assert res["certified"]["kind"] == "upper_bound"
        assert res["certified"]["value"] == {"num": "1", "den": "1"}
        assert res["family"]["value"] == {"num": "1", "den": "1"}

    def test_cover(self):
        data = run_json(["cover", "0,1,2"])
        assert data["result"]["density"] == {"num": "1", "den": "3"}
        assert data["result"]["complement"] == {"period": 3, "offsets": [0]}

    def test_tau(self):
        data = run_json(["tau", "0,1", "--order", "5"])
        assert data["result"]["tau"] == 3

    def test_dimseq(self):
        data = run_json(["dimseq", "s^2(y1) - y1", "--imax", "5"])
        assert [e["d"] for e in data["result"]["sequence"]] == [1, 2, 2, 2, 2, 2]
        assert data["result"]["linear_tail"]["d"] == 0
        assert data["result"]["linear_tail"]["e"] == 2
        code, out, _ = run(["dimseq", "s^2(y1) - y1", "--imax", "5"])
        assert "≤" in out  # upper-bound marker

    def test_free_family(self, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text("{(0,1),(1,1)}\n")
        data = run_json(["free", "--family", str(fam), "--set", "{(0,1),(2,1)}"])
        assert data["result"] == {"free": True, "conclusive": True, "certificate": None}

    def test_free_system_certificate(self):
        data = run_json(
            ["free", "s(y1) - y1 - 1", "y1*y2 - 1", "--set", "{(0,1),(1,1)}", "--depth", "1"]
        )
        assert data["result"]["free"] is False
        assert data["result"]["certificate"] == "s(y1) - y1 - 1"

    def test_free_inconclusive(self):
        data = run_json(["free", "y1*s(y1)", "--set", "{(0,1),(2,1)}", "--depth", "3"])
        assert data["result"] == {"free": None, "conclusive": False, "certificate": None}

    def test_monomialize(self):
        data = run_json(["monomialize", "y1*s(y1)", "--imax", "3"])
        assert data["result"]["members"] == [[[0, 1], [1, 1]]]

    def test_gb(self):
        data = run_json(["gb", "y1*y2 - 1", "y1 - y2"])
        assert data["result"]["generators"] == ["y1^2 - 1", "y2 - y1"]

    def test_eliminate(self):
        data = run_json(["eliminate", "y1*y2 - 1", "y1 - y2", "--keep", "{(0,2)}"])
        assert data["result"]["generators"] == ["y2^2 - 1"]

    def test_solve(self):
        data = run_json(["solve", "y1*s(y1)", "--prime", "2", "--order", "1"])
        assert data["result"]["count"] == 3
        assert data["result"]["points"] == [[0, 0], [0, 1], [1, 0]]

    def test_solve_projection(self):
        data = run_json(
            ["solve", "y1*s(y1)", "--prime", "3", "--order", "1", "--set", "{(0,1),(1,1)}"]
        )
        assert data["result"]["projection"]["count"] == 5
        assert data["result"]["projection"]["fraction"] == {"num": "5", "den": "9"}

    def test_solve_projection_duplicate_cells(self):
        data = run_json(
            ["solve", "y1*s(y1)", "--prime", "3", "--order", "1", "--set", "{(0,1),(0,1)}"]
        )
        assert data["result"]["projection"]["set"] == [[0, 1]]
        assert data["result"]["projection"]["count"] == 3
        assert data["result"]["projection"]["fraction"] == {"num": "1", "den": "1"}
        code, out, _ = run(
            ["solve", "y1*s(y1)", "--prime", "3", "--order", "1", "--set", "{(0,1),(0,1)}"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "projection to {(0,1),(0,1)}: 3 points, fraction 1"

    def test_sdim_family_file(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"n": 1, "members": [[[0, 1], [1, 1]]]}))
        data = run_json(["sdim", "--family", str(fam), "--imax", "4"])
        assert data["result"]["certified"]["value"] == {"num": "1", "den": "2"}

    def test_family_label_of_a_given_family(self, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text("{(0,1),(1,1)}\n")
        for argv in (["sdim", "--family", str(fam)], ["sdim", "--monomial", "y1*y2"]):
            code, out, _ = run(argv + ["--imax", "2"])
            assert code == 0
            assert "family:" in out.splitlines()
            assert "monomialized" not in out

    def test_family_label_of_a_truncation(self):
        code, out, _ = run(["sdim", "y1*s(y1)", "y1*y2 - y2*s(y2)", "--imax", "3"])
        assert code == 0
        assert "monomialized family (depth 3):" in out.splitlines()
        assert "family:" not in out.splitlines()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--json", "sdim", "y1*s(y1)", "y1*y2 - y2*s(y2)", "--imax", "4"],
            ["--json", "cover", "0,2,3"],
            ["cover", "0,2,3"],
            ["--json", "solve", "y1*s(y1)", "--prime", "3", "--order", "1"],
        ],
    )
    def test_byte_identical(self, argv):
        first = run(list(argv))
        second = run(list(argv))
        assert first == second


class TestExitCodes:
    def test_parse_error(self):
        code, _, err = run(["sdim", "y1 +", "--imax", "3"])
        assert code == 2
        assert "error" in err

    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setenv("SDIM_BUDGET", "10")
        code, _, err = run(["solve", "y1*s(y1)", "--prime", "5", "--order", "3"])
        assert code == 3

    def test_cap_exceeded(self):
        code, _, err = run(
            ["sdim", "--monomial", "y1*s^10(y1)", "--monomial", "y2*s^10(y2)", "--imax", "12"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "0,40"],
            ["tau", "0,40", "--order", "3"],
            ["tau", "0,20", "--order", "20"],
            ["sdim", "--monomial", "y1*s^20(y1)", "--imax", "21"],
        ],
    )
    def test_span_beyond_the_automaton_cap(self, argv):
        code, out, err = run(argv)
        assert code == 3
        assert out == ""
        assert "cap is 20" in err

    @pytest.mark.parametrize(
        "members, cells",
        [("{(0,1),(1,1)}", "{(-1,1)}"), ("{(0,1),(1,1)}", "{(0,3)}"), ("{(0,1),(0,2)}", "{(1,3)}")],
    )
    def test_free_family_cells_outside_the_ring(self, members, cells, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text(members + "\n")
        code, out, err = run(["free", "--family", str(fam), "--set", cells])
        assert code == 2
        assert out == ""
        assert "cells must lie in N x" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"members": [[[0, 1]]]},
            {"n": "1", "members": [[[0, 1]]]},
            {"n": 1, "members": [[0, 1]]},
            {"n": 1, "members": 5},
            {"n": 1, "members": [[[0, 1, 2]]]},
            {"n": 1, "members": [[[0, 1.5]]]},
        ],
    )
    @pytest.mark.parametrize("verb", [["sdim"], ["free", "--set", "{(0,1)}"]])
    def test_malformed_family_json(self, data, verb, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(data))
        code, out, err = run(verb[:1] + ["--family", str(fam)] + verb[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: family JSON"), err

    def test_unit_ideal(self):
        code, _, err = run(["sdim", "--monomial", "1", "--imax", "3"])
        assert code == 4

    def test_unit_ideal_sequence(self):
        code, out, _ = run(["dimseq", "y1 - 1", "y1 - 2", "--imax", "2"])
        assert code == 0
        assert out.splitlines()[-1] == "sigma-dim: undefined (unit ideal)"

    def test_bad_integer_set(self):
        code, out, err = run(["cover", "0,a"])
        assert code == 2
        assert out == ""
        assert "bad integer set '0,a'" in err

    @pytest.mark.parametrize("text", ["0", "y1 - y1", "y1 + 1"])
    def test_monomial_must_have_one_term(self, text):
        code, out, err = run(["sdim", "--monomial", text, "--imax", "3"])
        assert code == 2
        assert out == ""
        assert "not a monomial" in err

    @pytest.mark.parametrize("cells", ["{(0,3)}", "{(-1,1)}", "{(0,0)}", "{(0,2),(0,3)}"])
    def test_eliminate_keep_outside_ring(self, cells):
        # free and solve --set reject the same cells
        code, out, err = run(["eliminate", "y1 - y2", "s(y1)", "--keep", cells])
        assert code == 2
        assert out == ""
        assert "keep must lie in N x {1..n}" in err

    def test_eliminate_keep_new_cell_inside_ring(self):
        # a kept cell no generator uses is still a variable of the ring
        data = run_json(["eliminate", "y1 - y2", "s(y1)", "--keep", "{(0,2),(2,1)}"])
        assert data["result"]["generators"] == []

    @pytest.mark.parametrize("imax", ["1", "-1"])
    def test_monomialize_below_generator_order(self, imax):
        # the window drops y1*s^2(y1) - 1; an empty family would claim the zero ideal
        code, out, err = run(["monomialize", "y1*s^2(y1)-1", "--imax", imax])
        assert code == 2
        assert out == ""
        assert f"i_max={imax} below the maximal generator order 2" in err

    def test_negative_depth_on_covering_path(self):
        code, out, err = run(["sdim", "--monomial", "y1*s(y1)", "--imax", "-1"])
        assert code == 2
        assert out == ""
        assert "i_max=-1 must be non-negative" in err

    def test_negative_depth_on_family_path(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"n": 1, "members": [[[0, 1], [1, 1]]]}))
        code, out, err = run(["sdim", "--family", str(fam), "--imax", "-1"])
        assert code == 2
        assert out == ""
        assert "i_max=-1 must be non-negative" in err

    def test_negative_free_depth(self):
        code, out, err = run(["free", "y1", "--set", "{}", "--depth", "-1"])
        assert code == 2
        assert out == ""
        assert "depth=-1 must be non-negative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sdim", "--monomial", "y1*s(y1)", "y2*s^5(y2)"],
            ["sdim", "--family", "FAMILY", "y1*y2"],
            ["sdim", "--family", "FAMILY", "--monomial", "y1*s(y1)"],
            ["free", "--family", "FAMILY", "y1*s(y1)", "--set", "{(0,1)}"],
        ],
    )
    def test_mixed_inputs_are_rejected(self, argv, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"n": 1, "members": [[[0, 1], [1, 1]]]}))
        code, out, err = run([str(fam) if a == "FAMILY" else a for a in argv])
        assert code == 2
        assert out == ""
        assert "error: pass" in err

    def test_unknown_flag_is_an_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["cover", "0,1", "--frobnicate"])
        assert exc.value.code == 2


class TestParserReuse:
    def test_built_once(self, monkeypatch):
        import sigmadim.cli

        built = []
        real = sigmadim.cli.build_parser
        monkeypatch.setattr(sigmadim.cli, "build_parser", lambda: built.append(1) or real())
        sigmadim.cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(["cover", "0,1"])[0] == 0
        finally:
            sigmadim.cli._parser.cache_clear()
        assert len(built) == 1

    def test_repeated_monomial_does_not_leak(self):
        family = ["sdim", "--monomial", "y1*s(y1)", "--monomial", "y1*s^2(y1)", "--imax", "4"]
        first = run_json(family)
        single = run_json(["sdim", "--monomial", "y1*s(y1)", "--imax", "4"])
        assert single["result"]["method"] == "covering"
        assert single["result"]["certified"]["value"] == {"num": "1", "den": "2"}
        code, out, err = run(["sdim", "--imax", "4"])
        assert code == 2 and out == "" and "--monomial" in err
        assert run_json(family) == first


# the automaton verbs in a fresh process, then whether numpy.ma was loaded
NUMPY_MA = """
import io, sys
from contextlib import redirect_stdout
from sigmadim.cli import main
with redirect_stdout(io.StringIO()):
    codes = [main(["cover", "0,1,4"]), main(["sdim", "--family", sys.argv[1]])]
print(codes, "numpy.ma" in sys.modules)
"""


def test_automaton_verbs_leave_numpy_ma_out(tmp_path):
    # a plain np.unique or np.union1d imports numpy.ma, about 0.5 MB of
    # resident memory in a fresh process
    fam = tmp_path / "family.txt"
    fam.write_text("{(0,1),(1,1),(4,1)}\n{(0,1),(2,1)}\n")
    src = str(Path(sigmadim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA, str(fam)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[0,", "0]", "False"]
