"""Command-line interface: payloads, formats, files, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpkit.algebra
import fpkit.cli
import fpkit.genus
import fpkit.identities
from fpkit.cli import _format_chi_y, main
from fpkit.data import load_data, serialize_data
from fpkit.genus import default_series_order
from tests.conftest import GOLDEN, dim6, fixture_path, flipped

S2 = str(fixture_path("s2_a3"))
S2_A1 = str(fixture_path("s2_a1"))
S6 = str(fixture_path("s6_a1_b2"))
S8 = str(fixture_path("s8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture
def bad_data_file(tmp_path):
    """Parses fine but fails the identity suite (single point, weight 1)."""
    path = tmp_path / "bad.json"
    path.write_text(
        '{"name": "bad", "dimension": 2, "fixed_points": '
        '[{"id": "p", "sign": 1, "weights": [1]}]}\n'
    )
    return str(path)


@pytest.fixture
def unbuildable_file(tmp_path):
    """Passes parsing but the per-level matching has no chance."""
    path = tmp_path / "unbuildable.json"
    path.write_text(
        '{"name": "unbuildable", "dimension": 4, "fixed_points": '
        '[{"id": "p", "sign": 1, "weights": [1, 1]},'
        ' {"id": "q", "sign": 1, "weights": [-1, -1]}]}\n'
    )
    return str(path)


class TestValidate:
    def test_fixture_passes(self, capsys):
        code, payload, _ = run_json(capsys, "validate", S2)
        assert code == 0
        assert payload["verdict"] is True
        assert payload["strict"] is False
        assert [c["name"] for c in payload["checks"]] == [
            "weight_balance",
            "hattori_parity",
            "odd_points_even_dim",
            "chern_sum",
            "min_weight_index_balance",
            "abbv_vanishing",
            "chern_class_map",
        ]

    def test_strict_adds_checks(self, capsys):
        code, payload, _ = run_json(capsys, "validate", S8, "--strict")
        assert code == 0
        assert payload["strict"] is True
        assert len(payload["checks"]) == 9
        assert payload["verdict"] is True

    def test_failing_data_exits_one(self, capsys, bad_data_file):
        code, payload, _ = run_json(capsys, "validate", bad_data_file)
        assert code == 1
        assert payload["verdict"] is False
        failures = [c for c in payload["checks"] if not c["passed"]]
        assert failures
        assert "witness" in failures[0]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "validate", S2, "--format", "text")
        assert code == 0
        assert "verdict: pass" in out
        assert "weight_balance: pass" in out

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "validate", "/nonexistent/data.json")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_path_through_a_file(self, capsys):
        # NotADirectoryError, like every OSError, is an exit-2 input error
        code, out, err = run(capsys, "validate", S8 + "/x")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error:" in err

    def test_format_violation(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"dimension": 3, "fixed_points": []}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "positive even" in err

    def test_empty_isotropy_block(self, capsys, tmp_path):
        path = tmp_path / "empty_block.json"
        path.write_text(
            '{"dimension": 2, "fixed_points": '
            '[{"id": "p", "sign": 1, "weights": [1]},'
            ' {"id": "q", "sign": 1, "weights": [-1]}], '
            '"isotropy_components": {"3": [["p", "q"], []]}}'
        )
        code, out, err = run(capsys, "validate", "--strict", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "empty block" in err

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]},'
                ' {"id": "q", "sign": 1, "weights": [-1]}], '
                '"isotropy_components": {"1": [["p"], ["q"]], "01": [["p", "q"]]}}',
                "modulus key '01' is not in plain decimal form",
            ),
            (
                '{"dimension": 2, "dimension": 4, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]},'
                ' {"id": "q", "sign": 1, "weights": [-1]}]}',
                "repeated key 'dimension'",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "weights": [1]},'
                ' {"id": "q", "sign": 1, "weights": [-1]}], '
                '"isotropy_component": {"1": [["p", "q"]]}}',
                "unknown key 'isotropy_component'",
            ),
            (
                '{"dimension": 2, "fixed_points": '
                '[{"id": "p", "sign": 1, "wieghts": [1]},'
                ' {"id": "q", "sign": 1, "weights": [-1]}]}',
                "unknown key 'wieghts' at 'p'",
            ),
        ],
        ids=[
            "duplicate-modulus",
            "repeated-key",
            "unknown-top-level-key",
            "unknown-point-key",
        ],
    )
    def test_rejected_document(self, capsys, tmp_path, document, message):
        path = tmp_path / "rejected.json"
        path.write_text(document)
        code, out, err = run(capsys, "validate", "--strict", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err


class TestGenus:
    def test_two_sphere(self, capsys):
        code, payload, _ = run_json(capsys, "genus", S2)
        assert code == 0
        assert payload["report"]["chi"] == [1, -1]
        assert payload["chi_y"] == "1 - y"
        assert payload["txy"] == [1, -1]
        assert payload["report"]["symbolic_constant"] is True
        assert [c["symbolic"] for c in payload["components"]] == ["1", "-1"]
        assert all(c["constant"] for c in payload["components"])

    def test_six_sphere_chi_y(self, capsys):
        _, payload, _ = run_json(capsys, "genus", S6)
        assert payload["chi_y"] == "-y + y^2"

    def test_series_order_flag(self, capsys):
        _, payload, _ = run_json(capsys, "genus", S2, "--series-order", "3")
        assert payload["series_order"] == 3
        assert all(len(c["series"]) == 4 for c in payload["components"])

    def test_default_series_order(self, capsys):
        _, payload, _ = run_json(capsys, "genus", S2)
        assert payload["series_order"] == 7  # 1 + |3| + |-3|

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "genus", S2, "--format", "text")
        assert code == 0
        assert "chi_y = 1 - y" in out
        assert "todd = 1" in out


class TestGraph:
    def test_json_payload(self, capsys):
        code, payload, _ = run_json(capsys, "graph", S6)
        assert code == 0
        assert payload["describes"] is True
        assert payload["edges"] == [
            {"from": "p", "to": "q", "label": 1},
            {"from": "p", "to": "q", "label": 2},
            {"from": "q", "to": "p", "label": 3},
        ]

    def test_text_prints_dot(self, capsys):
        code, out, _ = run(capsys, "graph", S2, "--format", "text")
        assert code == 0
        assert out == (GOLDEN / "s2_a3.dot").read_text()

    def test_dot_file_written(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, _, _ = run(capsys, "graph", S2, "--dot", str(target))
        assert code == 0
        assert target.read_text() == (GOLDEN / "s2_a3.dot").read_text()

    def test_dot_path_through_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, "graph", S8, "--dot", str(blocker / "out.dot"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unbuildable_exits_one(self, capsys, unbuildable_file):
        code, payload, _ = run_json(capsys, "graph", unbuildable_file)
        assert code == 1
        assert payload["error"] == "per-index balance violated"
        assert payload["modulus"] == 1

    def test_unbuildable_text(self, capsys, unbuildable_file):
        code, out, _ = run(capsys, "graph", unbuildable_file, "--format", "text")
        assert code == 1
        assert "per-index balance violated" in out


class TestSubgraph:
    def test_modulus_three(self, capsys):
        code, payload, _ = run_json(capsys, "subgraph", S8, "--modulus", "3")
        assert code == 0
        assert payload["modulus"] == 3
        assert payload["edges"] == [
            {"from": "p", "to": "q", "label": 3},
            {"from": "p", "to": "q", "label": 6},
        ]

    def test_dot_golden(self, capsys, tmp_path):
        target = tmp_path / "sub.dot"
        run(capsys, "subgraph", S8, "--modulus", "3", "--dot", str(target))
        assert target.read_text() == (GOLDEN / "s8_mod3.dot").read_text()

    def test_modulus_validation(self, capsys):
        with pytest.raises(SystemExit):
            main(["subgraph", S8, "--modulus", "0"])


class TestAbbv:
    def test_power_below_n_vanishes(self, capsys):
        code, payload, _ = run_json(capsys, "abbv", S6, "--power", "2")
        assert code == 0
        assert payload["value"] == "0"
        assert payload["zero"] is True

    def test_two_sphere_power_one(self, capsys):
        _, payload, _ = run_json(capsys, "abbv", S2_A1, "--power", "1")
        assert payload["value"] == "2"
        assert payload["zero"] is False

    def test_text(self, capsys):
        code, out, _ = run(capsys, "abbv", S2_A1, "--power", "1", "--format", "text")
        assert code == 0
        assert "= 2" in out


class TestClassify:
    def test_small_survey(self, capsys):
        code, payload, _ = run_json(
            capsys, "classify", "--points", "2", "--dim", "2", "--max-weight", "2"
        )
        assert code == 0
        assert payload["candidates"] == 36
        assert len(payload["survivors"]) == 8
        assert payload["flagged"] == []

    def test_byte_determinism(self, capsys):
        args = ("classify", "--points", "2", "--dim", "2", "--max-weight", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        _, out, _ = run(
            capsys,
            "classify",
            "--points", "2",
            "--dim", "2",
            "--max-weight", "1",
            "--out", str(target),
        )
        assert target.read_text() == out

    def test_text_format(self, capsys):
        _, out, _ = run(
            capsys,
            "classify",
            "--points", "2",
            "--dim", "2",
            "--max-weight", "2",
            "--format", "text",
        )
        assert "candidates: 36" in out
        assert "survivors: 8" in out

    def test_thread_variable_ignored(self, capsys, monkeypatch):
        # a malformed FPKIT_THREADS once exited 2; the survey no longer reads it
        args = ("classify", "--points", "2", "--dim", "2", "--max-weight", "2")
        monkeypatch.delenv("FPKIT_THREADS", raising=False)
        _, expected, _ = run(capsys, *args)
        monkeypatch.setenv("FPKIT_THREADS", "zero")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == expected

    def test_odd_dim_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["classify", "--points", "2", "--dim", "3", "--max-weight", "1"])

    def test_oversized_survey_refused(self, capsys):
        # about 3e17 candidates: refused before any enumeration
        start = time.perf_counter()
        code, out, err = run(
            capsys, "classify", "--points", "4", "--dim", "10", "--max-weight", "9"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: survey too large")


class TestRandom:
    def test_emits_canonical_data(self, capsys):
        code, out, _ = run(
            capsys,
            "random",
            "--seed", "7",
            "--points", "4",
            "--dim", "4",
            "--max-label", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "random-k4-n2-w5-seed7"
        assert doc["dimension"] == 4
        assert len(doc["fixed_points"]) == 4

    def test_byte_determinism(self, capsys):
        args = (
            "random",
            "--seed", "3",
            "--points", "6",
            "--dim", "6",
            "--max-label", "4",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_odd_slot_count(self, capsys):
        code, out, err = run(
            capsys,
            "random",
            "--seed", "0",
            "--points", "3",
            "--dim", "2",
            "--max-label", "1",
        )
        assert code == 2
        assert out == ""
        assert "must be even" in err

    def test_impossible_shape(self, capsys):
        # 3 points in dimension 4 need labels of both sizes 1 and 2
        code, out, err = run(
            capsys,
            "random",
            "--seed", "0",
            "--points", "3",
            "--dim", "4",
            "--max-label", "1",
        )
        assert code == 2
        assert out == ""
        assert "no realizable composition" in err


class TestReport:
    def test_full_bundle(self, capsys):
        code, payload, _ = run_json(capsys, "report", S8)
        assert code == 0
        assert payload["validation"]["verdict"] is True
        assert payload["genus"]["chi"] == [0, 0, 0, 0, 0]
        assert [entry["value"] for entry in payload["abbv"]] == ["0", "0", "0", "0"]
        assert payload["graph"]["describes"] is True

    def test_failing_data(self, capsys, bad_data_file):
        code, payload, _ = run_json(capsys, "report", bad_data_file)
        assert code == 1
        assert payload["validation"]["verdict"] is False

    def test_unbuildable_graph_reported(self, capsys, unbuildable_file):
        code, payload, _ = run_json(capsys, "report", unbuildable_file)
        assert code == 1
        assert payload["graph"]["error"] == "per-index balance violated"

    def test_text(self, capsys):
        code, out, _ = run(capsys, "report", S2, "--format", "text")
        assert code == 0
        assert "chi_y = 1 - y" in out
        assert "describes=True" in out


@pytest.fixture
def genus_calls(monkeypatch):
    """Count chi_symbolic calls per component and chi_series calls per
    (component, order), through every import of each."""
    symbolic: Counter = Counter()
    series: Counter = Counter()
    original_symbolic = fpkit.genus.chi_symbolic
    original_series = fpkit.genus.chi_series

    def counted_symbolic(data, i):
        symbolic[i] += 1
        return original_symbolic(data, i)

    def counted_series(data, i, order):
        series[i, order] += 1
        return original_series(data, i, order)

    for module in (fpkit.genus, fpkit.cli, fpkit.identities):
        monkeypatch.setattr(module, "chi_symbolic", counted_symbolic)
    for module in (fpkit.genus, fpkit.cli):
        monkeypatch.setattr(module, "chi_series", counted_series)
    return symbolic, series


@pytest.mark.parametrize(
    "argv",
    [["genus"], ["report"], ["validate", "--strict"]],
    ids=["genus", "report", "validate-strict"],
)
@pytest.mark.parametrize("flipped", [False, True], ids=["s8", "s8-flipped"])
def test_one_symbolic_pass_per_component(capsys, tmp_path, genus_calls, argv, flipped):
    path = S8
    if flipped:
        # equal signs on identical weights: no component is constant
        doc = json.loads(fixture_path("s8").read_text())
        doc["fixed_points"][1]["sign"] = 1
        path = tmp_path / "s8_flipped.json"
        path.write_text(json.dumps(doc))
    main(argv + [str(path)])
    capsys.readouterr()
    symbolic_calls, series_calls = genus_calls
    assert symbolic_calls
    assert max(symbolic_calls.values()) == 1
    if argv == ["genus"]:
        # one series pass per component, at the default order
        data = load_data(path)
        order = default_series_order(data)
        assert series_calls == Counter({(i, order): 1 for i in range(data.n + 1)})
    else:
        # report and validate --strict need only the symbolic verdict
        assert not series_calls


@pytest.fixture
def gcd_calls(monkeypatch):
    """Count calls of the gcd route's entry points in fpkit.algebra."""
    calls: Counter = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in ("poly_gcd", "ratfun_sum"):
        monkeypatch.setattr(fpkit.algebra, name, counting(name, getattr(fpkit.algebra, name)))
    return calls


@pytest.mark.parametrize(
    "argv",
    [["genus"], ["report"], ["validate", "--strict"]],
    ids=["genus", "report", "validate-strict"],
)
@pytest.mark.parametrize("use_dim6", [False, True], ids=["s8", "dim6-b50-flipped"])
def test_no_polynomial_gcd(capsys, tmp_path, gcd_calls, argv, use_dim6):
    """The genus paths reduce over cyclotomic factors, never by a gcd."""
    path = S8
    if use_dim6:
        path = tmp_path / "dim6_flipped.json"
        path.write_text(serialize_data(flipped(dim6(50))))
    main(argv + [str(path)])
    capsys.readouterr()
    assert gcd_calls == Counter()


class TestOutOfMemory:
    """Sizes past any memory exit 2 with one line, at once."""

    @pytest.fixture
    def huge_weight_file(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"name": "huge", "dimension": 2, "fixed_points": '
            '[{"id": "p", "sign": 1, "weights": [1000000000000000]},'
            ' {"id": "q", "sign": 1, "weights": [-1000000000000000]}]}\n'
        )
        return str(path)

    def _check(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert out == ""
        assert err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [["genus"], ["report"], ["validate", "--strict"]],
        ids=["genus", "report", "validate-strict"],
    )
    def test_huge_weights(self, capsys, huge_weight_file, argv):
        self._check(capsys, argv + [huge_weight_file])

    def test_huge_series_order(self, capsys):
        # 10^15 coefficients exceed any address space, so the allocation
        # fails whatever the host's overcommit policy
        self._check(capsys, ["genus", S8, "--series-order", str(10**15)])


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["subgraph", S8, "--modulus", "x"], "'x' is not an integer"),
            (["subgraph", S8, "--modulus", "0"], "value must be a positive integer"),
            (["abbv", S2, "--power", "-1"], "value must be nonnegative"),
            (
                ["classify", "--points", "2", "--dim", "0", "--max-weight", "1"],
                "dimension must be a positive even integer",
            ),
        ],
    )
    def test_integer_argument_messages(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit):
            main(["validate", S2, "--format", "xml"])

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "fpkit":
                built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        main(["validate", S2])
        main(["genus", S2])
        capsys.readouterr()
        assert len(built) <= 1


class TestChiYFormatter:
    @pytest.mark.parametrize(
        "chi, expected",
        [
            ((1, -1), "1 - y"),
            ((0, -1, 1, 0), "-y + y^2"),
            ((0, 0, 0), "0"),
            ((2, 3), "2 + 3*y"),
            ((0, 1), "y"),
            ((-1, 0, -2), "-1 - 2*y^2"),
        ],
    )
    def test_rendering(self, chi, expected):
        assert _format_chi_y(chi) == expected


# -- fuzzing ---------------------------------------------------------------

_ids_st = st.sampled_from(["p", "q", "r", "s", "", 3])
_weights_st = st.lists(st.integers(-6, 6), min_size=0, max_size=4)


@st.composite
def _documents_st(draw):
    """Bounded JSON-like data documents, mostly well-formed, some truncated."""
    doc: dict = {}
    if draw(st.booleans()):
        doc["name"] = draw(st.sampled_from(["fuzz", 7]))
    doc["dimension"] = draw(st.sampled_from([2, 4, 6, 2, 4, 6, 3, 0, -2, "4", True]))
    points = []
    for _ in range(draw(st.integers(0, 4))):
        point = {
            "id": draw(_ids_st),
            "sign": draw(st.sampled_from([1, -1, 1, -1, 0, True])),
            "weights": draw(_weights_st),
        }
        if draw(st.integers(0, 9)) == 0:
            point[draw(st.sampled_from(["wieghts", "id", "sign"]))] = 1
        points.append(point)
    doc["fixed_points"] = points
    if draw(st.booleans()):
        ids = [point["id"] for point in points]
        doc["isotropy_components"] = {
            draw(st.sampled_from(["1", "2", "3", "01", " 3", "x", "0"])): draw(
                st.sampled_from([[ids], [ids[:1], ids[1:]], [], [[]], 5])
            )
            for _ in range(draw(st.integers(1, 2)))
        }
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


_FUZZ_COMMANDS = [
    ["validate", "--strict"],
    ["genus"],
    ["report"],
    ["graph"],
    ["subgraph", "--modulus", "2"],
    ["abbv", "--power", "1"],
]


@given(text=_documents_st())
@settings(max_examples=60, deadline=None)
def test_main_fuzz(tmp_path_factory, text):
    """No exception escapes main, and exit 2 means exactly one stderr line."""
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    for command in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(path)])
        assert code in (0, 1, 2), command
        if code == 2:
            assert out.getvalue() == "", command
            assert err.getvalue().startswith("error:"), command
            assert err.getvalue().count("\n") == 1, command
