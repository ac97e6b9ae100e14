"""Command-line interface tests: commands, exit codes, JSON determinism."""

import importlib.metadata
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import paramat
from paramat import audit, cli
from paramat.cli import main
from paramat.formula import MAX_DEPTH
from paramat.matrix import builtin, matrix_to_document

GOLDEN_AUDIT = Path(__file__).parent / "data" / "audit_seed0.json"


def _cli_env() -> dict:
    """The environment for a `python -m paramat` subprocess."""
    return {**os.environ, "PYTHONPATH": str(Path(paramat.__file__).resolve().parents[1])}


@pytest.fixture
def runner():
    return CliRunner()


class TestEntails:
    def test_holds(self, runner):
        result = runner.invoke(main, ["entails", "--logic", "l3", "p|q, ~p", "q"])
        assert result.exit_code == 0
        assert "holds" in result.output

    def test_para_fails(self, runner):
        result = runner.invoke(
            main, ["entails", "--logic", "l3", "--para", "1", "p, ~p", "q"]
        )
        assert result.exit_code == 1
        assert "fails" in result.output

    def test_k3_countermodel(self, runner):
        result = runner.invoke(main, ["entails", "--logic", "k3", "", "p -> p"])
        assert result.exit_code == 1
        assert "countermodel: p=1/2" in result.output

    def test_para_witness_shown(self, runner):
        result = runner.invoke(
            main, ["entails", "--logic", "l3", "--para", "1", "p, ~p", "p | q"]
        )
        assert result.exit_code == 0
        assert "witness: {p}" in result.output

    def test_depth2(self, runner):
        result = runner.invoke(
            main, ["entails", "--logic", "l3", "--para", "2", "p, ~p", "q"]
        )
        assert result.exit_code == 1

    def test_json(self, runner):
        result = runner.invoke(
            main,
            ["entails", "--logic", "l3", "--format", "json", "p|q, ~p", "q"],
        )
        doc = json.loads(result.output)
        assert doc["holds"] is True
        assert doc["logic"] == "L3"
        assert doc["gamma"] == ["p | q", "~p"]

    def test_parse_error_exit_3(self, runner):
        result = runner.invoke(main, ["entails", "--logic", "l3", "p |", "q"])
        assert result.exit_code == 3

    def test_unknown_logic_exit_2(self, runner):
        result = runner.invoke(main, ["entails", "--logic", "zzz", "p", "q"])
        assert result.exit_code == 2


class TestInternalError:
    def test_unexpected_exception_exits_4(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("table\nbroken")

        monkeypatch.setattr(cli, "para_entails", broken)
        result = runner.invoke(main, ["entails", "--logic", "l3", "--para", "1", "p", "q"])
        assert result.exit_code == 4
        assert result.output == "error: internal error: RuntimeError: table broken\n"

    def test_a_raising_cell_exits_4(self, runner, monkeypatch):
        decide = audit.check_property

        def broken(spec, prop):
            if (prop, spec.name) == (audit.PropertyId.IDEMPOTENCY, "P(G3)"):
                raise ZeroDivisionError("cell broke")
            return decide(spec, prop)

        monkeypatch.setattr(audit, "check_property", broken)
        result = runner.invoke(main, ["audit"])
        assert result.exit_code == 4
        assert result.output == "error: internal error: ZeroDivisionError: cell broke\n"

    def test_usage_errors_keep_their_codes(self, runner):
        assert runner.invoke(main, ["entails", "--para", "3", "p", "q"]).exit_code == 2
        assert runner.invoke(main, ["nosuchcommand"]).exit_code == 2
        assert runner.invoke(main, ["--help"]).exit_code == 0


class TestInterrupt:
    @pytest.mark.parametrize(
        "args, target",
        [
            (["entails", "--logic", "l3", "p", "q"], "entails"),
            (["audit"], "run_table"),
        ],
        ids=["entails", "audit"],
    )
    def test_ctrl_c_exits_130(self, runner, monkeypatch, args, target):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, target, interrupted)
        result = runner.invoke(main, args)
        assert result.exit_code == 130
        assert result.output == "error: interrupted\n"

    @pytest.mark.parametrize("to_group", [True, False], ids=["process-group", "parent-only"])
    def test_sigint_mid_query_exits_130(self, to_group):
        # Ctrl-C reaches the whole process group; `kill -INT` only the query.
        # Either way: one line, and nothing left behind.
        premises = ", ".join(f"p{i} | ~p{i}" for i in range(16))
        proc = subprocess.Popen(
            [sys.executable, "-m", "paramat", "mss", "--logic", "l3", premises],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_env(),
            start_new_session=True,
        )
        try:
            # the subset tables of 16 premises over 16 letters walk 3^16
            # valuations, seconds of work; by now the query is running
            time.sleep(2.0)
            assert proc.poll() is None, "the query ended before the interrupt"
            if to_group:
                os.killpg(proc.pid, signal.SIGINT)
            else:
                os.kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130
        assert (out, err) == ("", "error: interrupted\n")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # nothing is left in the query's process group


@pytest.mark.parametrize(
    "args",
    [
        ["matrix", "show", "l3"],
        ["audit"],
        ["classify", "p"],
        ["--help"],  # printed while the arguments are parsed
    ],
    ids=["matrix-show", "audit", "classify", "help"],
)
def test_closed_stdout_exits_141_quietly(args):
    # the read end is closed before the process starts, so its first write
    # meets a broken pipe, as `paramat ... | head -1` may
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "paramat", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


class TestVersion:
    def test_needs_no_package_metadata(self, runner, monkeypatch):
        # a checkout run with PYTHONPATH=src has no installed metadata
        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output.endswith(f"version {paramat.__version__}\n")

    def test_matches_pyproject(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        project = pyproject.read_text().split("[project]", 1)[1]
        assert re.search(r'^version = "([^"]+)"$', project, re.M)[1] == paramat.__version__


def test_python_m_paramat_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "paramat", "classify", "--logic", "g3", "p & ~p"],
        capture_output=True,
        text=True,
        env=_cli_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "contradiction\n"


class TestDeepFormulas:
    @pytest.mark.parametrize(
        "args",
        [
            ["entails", "--logic", "l3", "", "~" * 3000 + "p"],
            ["classify", "(" * 250 + "p" + ")" * 250],
            ["classify", "|".join(["p"] * 3000)],
        ],
        ids=["negations", "parentheses", "flat-disjunction"],
    )
    def test_too_deep_exit_3(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.output.startswith("error: cannot parse formula: ")
        assert "nested deeper than" in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "~" * MAX_DEPTH + "p",
            "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
            "|".join(["p"] * (MAX_DEPTH + 1)),
            "->".join(["p"] * (MAX_DEPTH + 1)),
        ],
        ids=["negations", "parentheses", "flat-disjunction", "implications"],
    )
    def test_at_the_limit_classifies(self, runner, text):
        result = runner.invoke(main, ["classify", "--logic", "l3", text])
        assert result.exit_code == 0
        assert result.output.strip() in ("tautology", "contingent")


class TestOtherQueries:
    def test_classify(self, runner):
        result = runner.invoke(main, ["classify", "--logic", "g3", "p & ~p"])
        assert result.exit_code == 0
        assert result.output.strip() == "contradiction"

    def test_consistent(self, runner):
        result = runner.invoke(main, ["consistent", "--logic", "l3", "p, ~p"])
        assert result.exit_code == 1
        assert result.output.strip() == "inconsistent"

    def test_para_consistent(self, runner):
        result = runner.invoke(
            main, ["consistent", "--logic", "l3", "--para", "1", "p, ~p"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "consistent"

    def test_mss(self, runner):
        result = runner.invoke(main, ["mss", "--logic", "l3", "p, ~p"])
        assert result.exit_code == 0
        assert result.output.strip() == "{p}; {~p}"


class TestSubsetBound:
    PREMISES = ", ".join(f"x{i}" for i in range(17))

    @pytest.mark.parametrize(
        "args",
        [
            ["entails", "--para", "1", PREMISES, "q"],
            ["entails", "--para", "2", PREMISES, "q"],
            ["consistent", "--para", "1", PREMISES],
            ["mss", PREMISES],
        ],
        ids=["entails-1", "entails-2", "consistent-1", "mss"],
    )
    def test_over_the_bound_exits_2(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == "error: premise set of size 17 exceeds the bound 16\n"
        assert result.stdout == ""

    def test_the_base_logic_has_no_bound(self, runner):
        result = runner.invoke(main, ["entails", "--para", "0", self.PREMISES, "q"])
        assert result.exit_code == 1
        assert result.output.startswith("fails\n")


class TestSelectors:
    def test_parametric(self, runner):
        result = runner.invoke(main, ["matrix", "show", "gn:4"])
        assert result.exit_code == 0
        assert "G4" in result.output
        assert "extension" in result.output

    def test_parametric_bad_arity(self, runner):
        result = runner.invoke(main, ["entails", "--logic", "ln:1", "p", "p"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("selector", ["ln:100000", "gn:100000"])
    def test_parametric_too_many_values(self, runner, selector):
        start = time.perf_counter()
        result = runner.invoke(main, ["classify", "--logic", selector, "p"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.output.startswith("error: ")
        assert result.output.count("\n") == 1

    def test_parametric_bad_number(self, runner):
        result = runner.invoke(main, ["entails", "--logic", "ln:x", "p", "p"])
        assert result.exit_code == 2

    def test_file_selector(self, runner, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text(json.dumps(matrix_to_document(builtin("g3"))))
        result = runner.invoke(main, ["classify", "--logic", f"file:{path}", "p & ~p"])
        assert result.output.strip() == "contradiction"

    def test_file_selector_missing(self, runner, tmp_path):
        result = runner.invoke(
            main, ["classify", "--logic", f"file:{tmp_path}/no.matrix", "p"]
        )
        assert result.exit_code == 3

    def test_matrix_path_env(self, runner, tmp_path, monkeypatch):
        (tmp_path / "mine.matrix").write_text(
            json.dumps(matrix_to_document(builtin("k3")))
        )
        monkeypatch.setenv("PARAMAT_MATRIX_PATH", str(tmp_path))
        result = runner.invoke(main, ["entails", "--logic", "mine", "", "p -> p"])
        assert result.exit_code == 1


# matrix files that cannot be read, decoded or parsed
_BAD_MATRIX_FILES = {
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b'\xff\xfe{"name": "x"}'),
    "deep-nesting": lambda path: path.write_text("[" * 100_000),
}


@pytest.mark.parametrize("make", _BAD_MATRIX_FILES.values(), ids=_BAD_MATRIX_FILES)
@pytest.mark.parametrize("entry", ["file-selector", "matrix-path", "validate"])
def test_a_bad_matrix_file_exits_3(runner, tmp_path, make, entry):
    path = tmp_path / "bad.matrix"
    make(path)
    args = {
        "file-selector": ["entails", "-l", f"file:{path}", "p", "p"],
        "matrix-path": ["entails", "--matrix-path", str(tmp_path), "-l", "bad", "p", "p"],
        "validate": ["matrix", "validate", str(path)],
    }[entry]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.output.startswith("error: ")
    assert result.output.count("\n") == 1


class TestMatrixCommands:
    def test_show_l3(self, runner):
        result = runner.invoke(main, ["matrix", "show", "l3"])
        assert result.exit_code == 0
        # descending rows: 1, 1/2, 0
        lines = [line for line in result.output.splitlines() if line.strip()]
        assert "L3" in lines[0]
        assert lines[-3].strip().startswith("1 ")
        assert lines[-1].strip().startswith("0 ")

    def test_show_json_round_trips(self, runner):
        result = runner.invoke(main, ["matrix", "show", "l3", "--format", "json"])
        doc = json.loads(result.output)
        assert doc == matrix_to_document(builtin("l3"))

    def test_list(self, runner):
        result = runner.invoke(main, ["matrix", "list"])
        for name in ("l3", "g3", "k3", "cl2", "ln:<n>", "gn:<n>"):
            assert name in result.output

    def test_validate_ok(self, runner, tmp_path):
        path = tmp_path / "ok.matrix"
        path.write_text(json.dumps(matrix_to_document(builtin("l3"))))
        result = runner.invoke(main, ["matrix", "validate", str(path)])
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_validate_partial_table(self, runner, tmp_path):
        doc = matrix_to_document(builtin("l3"))
        del doc["imp"]["1|1"]
        path = tmp_path / "bad.matrix"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["matrix", "validate", str(path)])
        assert result.exit_code == 3
        assert "table not total" in result.output


class TestAudit:
    def test_bad_budget_exit_2(self, runner):
        # the audit takes no sampling options; naming one is a usage error
        for option in ("--samples", "--depth", "--letters", "--gamma-size"):
            result = runner.invoke(main, ["audit", option, "5"])
            assert result.exit_code == 2
            assert "No such option" in result.output and option in result.output
        assert runner.invoke(main, ["audit", "--seed", "x"]).exit_code == 2

    def test_audit_exit_0_with_known_discrepancies(self, runner):
        result = runner.invoke(main, ["audit"])
        assert result.exit_code == 0
        assert result.output.count("[known]") == 4
        assert "UNEXPLAINED" not in result.output

    def test_table_text_grid(self, runner):
        result = runner.invoke(main, ["table"])
        assert result.exit_code == 0
        assert "Summary of results" in result.output
        assert "✓" in result.output

    def test_stats_go_to_stderr(self, runner):
        result = runner.invoke(main, ["audit", "--stats", "--format", "json", "--seed", "0"])
        assert result.exit_code == 0
        assert result.stdout == GOLDEN_AUDIT.read_text(encoding="utf-8")
        head, *slowest = result.stderr.splitlines()
        counts = re.fullmatch(
            r"stats: 96 cells in [\d.]+ s wall, [\d.]+ s summed over cells, "
            r"(\d+) claims replayed, (\d+) answered",
            head,
        )
        assert 0 < int(counts[2]) < int(counts[1])
        assert len(slowest) == 5
        times = [float(re.fullmatch(r"  \w+/[\w()]+: ([\d.]+) s", line)[1]) for line in slowest]
        assert times == sorted(times, reverse=True)

    def test_seed0_grid_draws_no_sample(self, runner):
        # every cell is decided by an argument or a witness
        result = runner.invoke(main, ["audit", "--format", "json", "--seed", "0"])
        assert result.exit_code == 0
        grid = json.loads(result.output)["grid"]
        open_cells = [
            cell
            for cell, v in grid.items()
            if v["outcome"] not in ("HOLDS", "FAILS") or v["method"] not in ("EXACT", "WITNESS")
        ]
        assert open_cells == []

    def test_json_byte_identical(self, runner):
        args = ["audit", "--format", "json", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output
        json.loads(first.output)


# Fuzzing the query commands: whatever the text, the exit code is one of the
# documented ones and an error is one line.  The valuation space grows as
# 3^letters and nothing bounds the letters yet, so inputs keep to at most six.
_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*")
_SYMBOLS = ["~", "¬", "|", "∨", "&", "∧", "->", "→", "-", ">", "(", ")", ",", " "]
_QUERY_OPTIONS = st.tuples(
    st.sampled_from(["l3", "g3", "k3", "cl2"]), st.sampled_from(["0", "1", "2"])
)


def _few_letters(text: str) -> bool:
    return len(set(_NAME.findall(text))) <= 6


_random_text = st.text(max_size=40).filter(_few_letters)
# formula-like text: symbols and six letter names, with stray characters
_token_text = st.lists(
    st.sampled_from([*_SYMBOLS, "p", "q", "r", "s", "t", "u", "1", "P", "_", "#"]),
    max_size=40,
).map(" ".join)


@st.composite
def _nested(draw):
    """Deep runs of negations and parentheses, balanced or not."""
    core = draw(st.sampled_from(["p", "p | q", "~q -> r", "(p & s)", ""]))
    negations = draw(st.integers(0, 3000))
    opened = draw(st.integers(0, 400))
    closed = draw(st.sampled_from([opened, max(opened - 1, 0), opened + 1]))
    inner = draw(st.sampled_from(["", "~", "~("]))
    return "~" * negations + (inner + "(") * opened + core + ")" * closed


_any_text = st.one_of(_random_text, _token_text, _nested())


def _check_outcome(result) -> None:
    assert result.exit_code in (0, 1, 2, 3), result.output
    assert "Traceback" not in result.output
    if result.exit_code in (2, 3):
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
    else:
        assert result.stderr == ""


_FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@_FUZZ
@given(_QUERY_OPTIONS, _any_text, _any_text)
def test_fuzz_entails(options, gamma, alpha):
    logic, para = options
    args = ["entails", "--logic", logic, "--para", para, "--", gamma, alpha]
    _check_outcome(CliRunner().invoke(main, args))


@_FUZZ
@given(st.sampled_from(["l3", "g3", "k3", "cl2"]), _any_text)
def test_fuzz_classify(logic, alpha):
    result = CliRunner().invoke(main, ["classify", "--logic", logic, "--", alpha])
    _check_outcome(result)
    assert result.exit_code in (0, 3)


@_FUZZ
@given(_QUERY_OPTIONS, _any_text)
def test_fuzz_consistent(options, gamma):
    logic, para = options
    args = ["consistent", "--logic", logic, "--para", para, "--", gamma]
    _check_outcome(CliRunner().invoke(main, args))
