"""The byte-identical contract as a test: the output of short configs against
stored bodies.

Everything after a report's or CSV's ``# generated`` line is a pure function
of its config, and so is a command's exit code and stdout. ``golden.json``
beside this file holds, for each config in ``CONFIGS``, the exit code, the
stdout (with the output directory as ``<tmp>``) and the body, written at the
``ARTIFACT_VERSION`` it records; and for each platform fingerprint (numpy,
BLAS, and the OpenBLAS core in use) the sha256 of each body, as
``reports.body_digest`` takes it.

On a fingerprint the file holds, each body must have its stored digest: a
change that moves one rounding fails, naming the config and the first key,
or CSV row and column, that differs. On any other fingerprint, every number
must equal the stored one within 1e-12 of the largest magnitude in its array
(a printed one within its last printed digit), and every string, key,
boolean and integer exactly. That fallback checks values, not roundings: the
determinism contracts promise nothing across platforms.

A change that moves a body on purpose bumps ``reports.ARTIFACT_VERSION``
once, lists the moved keys in CHANGES.md, and regenerates:

    PYTHONPATH=src python tests/test_golden.py --regenerate

That rewrites the file for the current fingerprint. At an unchanged version
it refuses to change a body, and only adds a new fingerprint's digests.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import functools
import glob
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest

from ttsa import cli, reports

pytestmark = pytest.mark.bitwise

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
REL = 1e-12  # the value fallback's tolerance, of the largest magnitude in an array
TMP = "<tmp>"  # the output directory, in stdout

_LINEAR_08_06 = (
    "problem.name = linear-2x2\nstep.b = 0.8\nstep.a = 0.6\n"
    "step.beta0 = 2.0\nstep.gamma0 = 2.0\n"
)
_QUADRATIC_08_06 = _LINEAR_08_06.replace("linear-2x2", "quadratic-2x2")

# name -> (command, config text). The first five are the problem, schedule and
# algorithm lines of the four benchmark workloads, at reduced length; they are
# held here rather than read from bench/, so that a change to the benchmark
# never moves golden.json.
CONFIGS = {
    "linear-clt": ("montecarlo", _LINEAR_08_06 + (
        "run.n_final = 400\nmc.replications = 40\nmc.checks = slopes,lil\n"
        "mc.base_seed = 20240701\n")),
    "quadratic-averaged": ("montecarlo", _QUADRATIC_08_06 + (
        "step.regime = averaging\nrun.algorithm = averaged\n"
        "run.n_final = 400\nmc.replications = 40\nmc.checks = clt,averaged_blocks\n"
        "mc.base_seed = 20240702\n")),
    "decomposition": ("montecarlo", (
        "problem.name = linear-2x2\nstep.b = 0.95\nstep.a = 0.55\n"
        "step.beta0 = 2.0\nstep.gamma0 = 2.0\nrun.track_decomposition = true\n"
        "run.n_final = 400\nmc.replications = 20\nmc.checks = negligibility\n"
        "mc.base_seed = 20240704\n")),
    "trajectory-run": ("run", _LINEAR_08_06 + "run.n_final = 2000\nrun.seed = 20240701\n"),
    "trajectory-decompose": (
        "decompose", _LINEAR_08_06 + "run.n_final = 2000\nrun.seed = 20240701\n"),
    "quadratic-matricial": ("montecarlo", (
        "problem.name = quadratic-2x2\nrun.algorithm = matricial\n"
        "run.n_final = 400\nmc.replications = 40\nmc.checks = clt,slopes\n"
        "mc.base_seed = 11\n")),
    "quadratic-power-decay": ("montecarlo", _QUADRATIC_08_06 + (
        "problem.bias = power_decay\nproblem.bias_coeff_fast = [0.5, 0.5]\n"
        "problem.bias_coeff_slow = [-0.5, -0.5]\nproblem.bias_rho = 0.8\n"
        "run.n_final = 400\nmc.replications = 40\nmc.checks = clt,slopes,lil\n"
        "mc.base_seed = 3\n")),
    # stable drift, steps far too large for it: the ensemble blows up
    "divergent": ("montecarlo", (
        "problem.name = custom\n"
        "problem.theta_star = [0.0]\nproblem.mu_star = [0.0]\n"
        "problem.q11 = [[-40.0]]\nproblem.q12 = [[0.0]]\n"
        "problem.q21 = [[0.0]]\nproblem.q22 = [[-40.0]]\n"
        "problem.noise_cov = [[0.01, 0.0], [0.0, 0.01]]\n"
        "step.beta0 = 2.0\nstep.gamma0 = 2.0\n"
        "run.n_final = 200\n"
        "mc.replications = 4\nmc.base_seed = 1\nmc.checks = slopes,lil\n")),
    # these two write no file: their stdout is the body
    "validate": ("validate", _LINEAR_08_06),
    "theory": ("theory", _LINEAR_08_06),
}
_STDOUT_ONLY = ("validate", "theory")


def _blas_core() -> str:
    """The OpenBLAS core in use, or "?". A DYNAMIC_ARCH build picks its kernels
    by CPU, so neither its build string nor ``platform.machine()`` names them."""
    root = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "?"


@functools.cache
def fingerprint() -> str:
    """numpy's version, its BLAS's name and version, and the OpenBLAS core."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return (f"numpy {np.__version__}; {blas.get('name', '?')} {blas.get('version', '?')}; "
            f"core {_blas_core()}")


def run_config(name: str, directory: str) -> dict:
    """One config through ``cli.main``, in-process: its exit code, its stdout
    with ``directory`` as ``<tmp>``, its body, and the body's digest."""
    command, text = CONFIGS[name]
    config = os.path.join(directory, f"{name}.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(text)
    argv = [command, "--config", config]
    out = os.path.join(directory, f"{name}.out")
    if name not in _STDOUT_ONLY:
        argv += ["--output", out]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = cli.main(argv)
    printed = stdout.getvalue().replace(directory, TMP)
    if name in _STDOUT_ONLY:
        body, digest = None, hashlib.sha256(printed.encode()).hexdigest()
    else:
        with open(out, encoding="utf-8") as handle:
            body = handle.read().partition("\n")[2]
        digest = reports.body_digest(out)
    return {"exit_code": exit_code, "stdout": printed, "body": body, "digest": digest}


def run_all(directory: str) -> dict:
    return {name: run_config(name, directory) for name in CONFIGS}


def load(path: str = GOLDEN) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- comparison --------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b)")


def _same(a: float, b: float, tol: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol


def _magnitude(values) -> float:
    """The largest finite float magnitude in a nested list, or 0."""
    if isinstance(values, list):
        return max((_magnitude(v) for v in values), default=0.0)
    if isinstance(values, float) and math.isfinite(values):
        return abs(values)
    return 0.0


def _json_diff(a, b, path: str, rel: float, scale: float | None = None) -> str | None:
    """The first key path where ``b`` differs from ``a``: keys, lengths,
    strings, booleans, integers and null exactly; floats within ``rel`` of the
    largest magnitude in their array, or of their own outside one."""
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{path or 'top level'}: keys {sorted(a)} are now {sorted(b)}"
        for key in sorted(a):
            found = _json_diff(a[key], b[key], f"{path}.{key}" if path else key, rel)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} is now {len(b)}"
        if scale is None:
            scale = max(_magnitude(a), _magnitude(b))
        for i, (x, y) in enumerate(zip(a, b)):
            found = _json_diff(x, y, f"{path}[{i}]", rel, scale)
            if found:
                return found
        return None
    if type(a) is float and type(b) is float:
        tol = rel * (max(abs(a), abs(b)) if scale is None else scale)
        return None if _same(a, b, tol) else f"{path}: stored {a!r}, now {b!r}"
    if type(a) is not type(b) or a != b:
        return f"{path}: stored {a!r}, now {b!r}"
    return None


def _csv_diff(a: str, b: str, rel: float) -> str | None:
    """The first CSV row and column where ``b`` differs from ``a``: the
    provenance and header lines and the integer column ``n`` exactly, numbers
    within ``rel`` of the largest magnitude in their column."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    head = sum(line.startswith("#") for line in lines_a) + 1  # provenance, then columns
    for i, (x, y) in enumerate(zip(lines_a[:head], lines_b[:head])):
        if x != y:
            return f"line {i + 2}: stored {x!r}, now {y!r}"
    columns = lines_a[head - 1].split(",")
    rows_a = [line.split(",") for line in lines_a[head:]]
    rows_b = [line.split(",") for line in lines_b[head:]]
    shape = [len(rows_a), *map(len, rows_a)]
    if [len(rows_b), *map(len, rows_b)] != shape or len(set(shape[1:])) > 1:
        return f"{len(rows_a)} rows are now {len(rows_b)}, or a row's length moved"
    values = np.array(rows_a + rows_b, dtype=float)
    scale = np.abs(np.where(np.isfinite(values), values, 0.0)).max(axis=0, initial=0.0)
    for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if not (x == y if j == 0 else _same(float(x), float(y), rel * scale[j])):
                return f"row {i} (n = {row_a[0]}), column {columns[j]}: stored {x}, now {y}"
    return None


def _text_diff(a: str, b: str, rel: float) -> str | None:
    """The first stdout line where ``b`` differs from ``a``: exactly at ``rel``
    = 0; else the words and integers exactly, and each printed number within
    ``rel`` of the largest in its line or within a unit of its last digit."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"stdout: {len(lines_a)} lines are now {len(lines_b)}"
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        parts_x, parts_y = _NUMBER.split(x), _NUMBER.split(y)
        numbers = [abs(float(p)) for p in parts_x[1::2] + parts_y[1::2]]
        scale = rel * max((v for v in numbers if math.isfinite(v)), default=0.0)
        same = x == y or rel > 0 and len(parts_x) == len(parts_y) and all(
            p == q or k % 2 == 1 and not (_is_int(p) and _is_int(q))
            and _same(float(p), float(q), max(scale, _last_digit(p)))
            for k, (p, q) in enumerate(zip(parts_x, parts_y)))
        if not same:
            return f"stdout line {i + 1}: stored {x!r}, now {y!r}"
    return None


def _is_int(token: str) -> bool:
    return token.lstrip("+-").isdigit()


def _last_digit(token: str) -> float:
    """One unit of a printed number's last digit."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals) if mantissa[-1:].isdigit() else 0.0


def mismatch(name: str, golden: dict, output: dict) -> str | None:
    """Why ``output`` is not config ``name``'s stored one on this platform, or
    None: bytes against the stored digest on a fingerprint the file holds,
    values against the stored body on any other. A body's first difference
    from the stored one is named either way."""
    stored = golden["bodies"][name]
    digests = golden["digests"].get(fingerprint())
    rel = REL if digests is None else 0.0
    if output["exit_code"] != stored["exit_code"]:
        return f"{name}: exit code {stored['exit_code']} is now {output['exit_code']}"
    found = None if name in _STDOUT_ONLY else _text_diff(stored["stdout"], output["stdout"], REL)
    if found is None and (digests is None or digests[name] != output["digest"]):
        if name in _STDOUT_ONLY:
            found = _text_diff(stored["stdout"], output["stdout"], rel)
        elif CONFIGS[name][0] == "montecarlo":
            found = _json_diff(json.loads(stored["body"]), json.loads(output["body"]), "", rel)
        else:
            found = _csv_diff(stored["body"], output["body"], rel)
        if found is None and digests is not None:
            found = "no value differs from the stored body, but the bytes do"
    return None if found is None else f"{name}: {found}"


def _stored(output: dict) -> dict:
    return {key: output[key] for key in ("exit_code", "stdout", "body")}


def regenerate(outputs: dict, path: str = GOLDEN) -> None:
    """Store ``outputs`` and their digests for this fingerprint. At the stored
    ``ARTIFACT_VERSION`` the stored bodies stay: refuse (SystemExit, the file
    untouched) if one would change, and add only new configs' bodies."""
    version = reports.ARTIFACT_VERSION
    golden = load(path) if os.path.exists(path) else None
    if golden is None or golden["artifact_version"] != version:
        golden = {"artifact_version": version, "digests": {},
                  "bodies": {name: _stored(out) for name, out in outputs.items()}}
    else:
        moved = [m for name, out in outputs.items()
                 if name in golden["bodies"] and (m := mismatch(name, golden, out))]
        if moved:
            raise SystemExit(f"refused: bodies would change at version {version}; bump "
                             "reports.ARTIFACT_VERSION and list the moved keys in CHANGES.md:\n"
                             + "\n".join(moved))
        if sorted(golden["bodies"]) != sorted(outputs):  # the other platforms lack a config
            golden["bodies"] = {name: golden["bodies"].get(name) or _stored(out)
                                for name, out in outputs.items()}
            golden["digests"] = {}
    golden["digests"][fingerprint()] = {name: out["digest"] for name, out in outputs.items()}
    reports.write_text_atomic(path, json.dumps(golden, sort_keys=True, indent=1) + "\n")


# -- tests -------------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_all(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture(scope="module")
def golden():
    return load()


def test_body_digest_is_the_sha256_after_the_generated_line(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"# generated 2024-07-01T00:00:00Z\n{}\n")
    assert reports.body_digest(str(path)) == hashlib.sha256(b"{}\n").hexdigest()
    path.write_bytes(b"{}\n")
    with pytest.raises(ValueError, match="report.json: does not start with a '# generated'"):
        reports.body_digest(str(path))


def test_stored_version_is_the_package_version(golden):
    assert golden["artifact_version"] == reports.ARTIFACT_VERSION, (
        "the stored bodies were written at another ARTIFACT_VERSION: regenerate them "
        "with `PYTHONPATH=src python tests/test_golden.py --regenerate`")


def test_every_config_is_stored_with_a_digest_per_platform(golden):
    assert sorted(golden["bodies"]) == sorted(CONFIGS)
    assert golden["digests"], "no platform's digests are stored"
    for digests in golden["digests"].values():
        assert sorted(digests) == sorted(CONFIGS)


@pytest.mark.parametrize("name", CONFIGS)
def test_output_is_the_stored_one(name, golden, outputs):
    found = mismatch(name, golden, outputs[name])
    assert found is None, found


def _foreign(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "fingerprint", lambda: "a foreign platform")


def test_on_a_foreign_platform_the_values_are_compared(golden, outputs, monkeypatch):
    _foreign(monkeypatch)
    assert [m for name in CONFIGS if (m := mismatch(name, golden, outputs[name]))] == []


def _moved(name: str, body: str, move) -> tuple[str, str]:
    """``body`` with its last entry of one array replaced by ``move(value,
    largest magnitude in the array)``, and where that entry is: a report's
    final scaled covariance, or a CSV's last theta_1."""
    if CONFIGS[name][0] == "montecarlo":
        payload = json.loads(body)
        cov = payload["checkpoints"]["scaled_cov"]
        cov[-1][-1][-1] = move(cov[-1][-1][-1], _magnitude(cov))
        where = f"checkpoints.scaled_cov[{len(cov) - 1}][3][3]"
        return json.dumps(payload, sort_keys=True, indent=1) + "\n", where
    lines = body.splitlines()
    cells = lines[-1].split(",")
    column = [abs(float(line.split(",")[1])) for line in lines if line[0].isdigit()]
    cells[1] = reports.fmt17(move(float(cells[1]), max(column)))
    where = f"row {len(column) - 1} (n = {cells[0]}), column theta_1"
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n", where


@pytest.mark.parametrize("name", ["quadratic-power-decay", "trajectory-run"])
def test_on_a_foreign_platform_a_value_moved_by_1e_11_fails(name, golden, outputs,
                                                            monkeypatch):
    _foreign(monkeypatch)
    for rel, fails in ((1e-11, True), (-1e-11, True), (1e-13, False)):
        moved = copy.deepcopy(golden)
        body, where = _moved(name, golden["bodies"][name]["body"], lambda v, m: v + rel * m)
        moved["bodies"][name]["body"] = body
        found = mismatch(name, moved, outputs[name])
        assert (found is not None) == fails, (rel, found)
        assert not fails or found.startswith(f"{name}: {where}: stored "), found


def test_on_this_platform_a_last_bit_fails_naming_the_key(outputs):
    held = {"artifact_version": reports.ARTIFACT_VERSION,
            "bodies": {name: _stored(out) for name, out in outputs.items()},
            "digests": {fingerprint(): {name: out["digest"] for name, out in outputs.items()}}}
    name = "quadratic-power-decay"
    body, where = _moved(name, outputs[name]["body"], lambda v, m: float(np.nextafter(v, np.inf)))
    last_bit = dict(outputs[name], body=body, digest=hashlib.sha256(body.encode()).hexdigest())
    assert mismatch(name, held, outputs[name]) is None
    assert mismatch(name, held, last_bit).startswith(f"{name}: {where}: stored ")


def test_regenerate_refuses_a_moved_body_at_the_same_version(golden, outputs, tmp_path):
    path = str(tmp_path / "golden.json")
    stored = copy.deepcopy(golden)
    stored["digests"][fingerprint()] = {name: out["digest"] for name, out in outputs.items()}
    stored["digests"][fingerprint()]["theory"] = "0" * 64  # a body that moved
    text = json.dumps(stored, sort_keys=True, indent=1) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    with pytest.raises(SystemExit, match="refused: bodies would change"):
        regenerate(outputs, path)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == text


def test_regenerate_adds_a_platform_and_keeps_the_bodies(golden, outputs, tmp_path,
                                                         monkeypatch):
    path = str(tmp_path / "golden.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle)
    _foreign(monkeypatch)
    regenerate(outputs, path)
    written = load(path)
    assert written["bodies"] == golden["bodies"]
    assert written["digests"] == {**golden["digests"], "a foreign platform": {
        name: out["digest"] for name, out in outputs.items()}}


def test_regenerate_stores_a_new_config_and_drops_the_digests_that_lack_it(
        golden, outputs, tmp_path):
    path = str(tmp_path / "golden.json")
    stored = copy.deepcopy(golden)
    del stored["bodies"]["theory"]
    for digests in stored["digests"].values():
        del digests["theory"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stored, handle)
    regenerate(outputs, path)
    written = load(path)
    assert written["bodies"] == {**stored["bodies"], "theory": _stored(outputs["theory"])}
    assert written["digests"] == {fingerprint(): {
        name: out["digest"] for name, out in outputs.items()}}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--regenerate", action="store_true", required=True,
                        help="rewrite golden.json for this platform")
    parser.parse_args()
    warnings.simplefilter("error")  # as the suite runs: no body is stored past a warning
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(run_all(tmp))
    print(f"wrote {GOLDEN} for {fingerprint()}")
