"""Every entrypoint accepts every registered machine, or refuses it cleanly.

Each subcommand runs in-process on each ``MACHINE_FACTORIES`` key with
small valid argv variants drawn by hypothesis.  A case either exits 0
with output on stdout, or exits 1 with one ``error:`` line on stderr;
a traceback (any exception out of ``main``) fails the case.  ``lint``
may also exit 1 with its diagnostics on stdout and nothing on stderr,
its documented exit for an error-severity finding.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core.operations import OperationStyle
from repro.machines.registry import MACHINE_FACTORIES

_PATTERN = st.sampled_from(("0", "1", "64", "w"))
_STYLE = st.sampled_from([style.value for style in OperationStyle])
_BYTES = st.sampled_from(("4096", "32768"))
_FLAG = st.sampled_from(((), ("--json",)))


def _xy():
    return st.tuples(_PATTERN, _PATTERN).map(
        lambda xy: ("--x", xy[0], "--y", xy[1]))


def _transfer(*extra):
    return st.tuples(_xy(), _BYTES, _STYLE, *extra).map(
        lambda parts: parts[0] + ("--bytes", parts[1], "--style", parts[2])
        + sum(parts[3:], ()))


#: Per subcommand: (machine, scratch dir) -> strategy over argv.
_VARIANTS = {
    "estimate": lambda m, d: _xy().map(lambda a: ("estimate", "--machine", m) + a),
    "measure": lambda m, d: _transfer().map(
        lambda a: ("measure", "--machine", m) + a),
    "trace": lambda m, d: _transfer(_FLAG).map(
        lambda a: ("trace", "--machine", m, "--out", str(d / "t.json")) + a),
    "faults": lambda m, d: _transfer(
        st.sampled_from(((), ("--seed", "3"))), _FLAG,
    ).map(lambda a: ("faults", "--machine", m) + a),
    "table": lambda m, d: st.sampled_from(((), ("--source", "simulated"))).map(
        lambda a: ("table", "--machine", m) + a),
    "advise": lambda m, d: st.sampled_from(("4", "16", "64")).map(
        lambda n: ("advise", "--machine", m, "--rows", "256", "--cols", "256",
                   "--nodes", n)),
    "lint": lambda m, d: st.tuples(
        _xy(), st.sampled_from(("both", "chained", "buffer-packing")), _FLAG,
    ).map(lambda a: ("lint", "--machine", m) + a[0] + ("--style", a[1]) + a[2]),
    "load": lambda m, d: st.tuples(
        st.sampled_from(("steady", "bursty", "closed")), _FLAG,
    ).map(lambda a: ("load", "--machine", m, "--profile", a[0], "--nodes", "4",
                     "--duration", "0.001") + a[1]),
    "sweep": lambda m, d: st.sampled_from((
        {"machines": [m], "styles": ["chained"], "sizes": [4096]},
        {"machines": [m], "pairs": [["1", "w"]], "sizes": [4096],
         "rates": "paper"},
        {"kind": "calibrate", "machines": [m], "nwords": 1024,
         "strides": [2]},
    )).map(lambda spec: _sweep_argv(d, spec)),
}


def _sweep_argv(directory, spec):
    path = directory / "spec.json"
    path.write_text(json.dumps(spec))
    return ("sweep", "--spec", str(path), "--json")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A private calibration cache and a directory for output files."""
    path = tmp_path_factory.mktemp("cli-machines")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(path / "cache"))
        yield path


@pytest.mark.parametrize("machine", sorted(MACHINE_FACTORIES))
@pytest.mark.parametrize("command", sorted(_VARIANTS))
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_entrypoint_runs_or_refuses_in_one_line(
    command, machine, scratch, data
):
    argv = list(data.draw(_VARIANTS[command](machine, scratch), label="argv"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert "Traceback" not in stderr
    if code == 0:
        assert stdout.strip(), f"{argv}: exit 0 with no output"
        return
    assert code == 1, f"{argv}: exit {code}"
    lines = stderr.strip().splitlines()
    if command == "lint" and not lines:
        assert stdout.strip(), f"{argv}: exit 1 with no findings"
        return
    assert len(lines) == 1 and lines[0].startswith("error: "), (
        f"{argv}: exit 1 without a one-line error: {stderr!r}")


@pytest.mark.parametrize("argv", [
    ["estimate", "--machine", "t3d-contiguous-deposits", "--y", "64"],
    ["measure", "--machine", "t3d-contiguous-deposits", "--y", "64"],
])
def test_a_machine_without_a_general_deposit_engine_refuses_strided_chains(
    argv, capsys
):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "background receiver" in err
    assert len(err.strip().splitlines()) == 1
