"""CLI: verb behavior, JSON schema validation, determinism, exit codes."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import pytest

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

    def test_sdim_family_file(self, tmp_path):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"n": 1, "members": [[[0, 1], [1, 1]]]}))
        data = run_json(["sdim", "--family", str(fam), "--imax", "4"])
        assert data["result"]["certified"]["value"] == {"num": "1", "den": "2"}


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

    def test_unit_ideal(self):
        code, _, err = run(["sdim", "--monomial", "1", "--imax", "3"])
        assert code == 4

    def test_unknown_flag_is_an_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["cover", "0,1", "--frobnicate"])
        assert exc.value.code == 2
