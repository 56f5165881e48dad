"""Command-line front end: report documents, exit codes, input loading,
determinism hashing, and the quotient trace."""
import hashlib
import json
import re
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from specvar import (
    OrderStat,
    cli,
    matrix_with_spectrum,
    random_symmetric,
    spectral,
    spectral_second_subderivative,
    spectral_subgradient,
)
from specvar.cli import main
from conftest import key_rng

FLAGSHIP = [[2.0, 0.0], [0.0, 1.0]]
OFFDIAG = [[0.0, 1.0], [1.0, 0.0]]
SPAN_H = [[0.3, 1.0, 0.0], [1.0, -0.2, 0.5], [0.0, 0.5, 0.1]]


def write_json_matrix(path, rows, flat_n=None):
    if flat_n is None:
        payload = {"entries": rows}
    else:
        payload = {"n": flat_n, "entries": np.asarray(rows).ravel().tolist()}
    path.write_text(json.dumps(payload))
    return str(path)


def write_csv_matrix(path, rows):
    path.write_text("\n".join(",".join(repr(c) for c in r) for r in rows) + "\n")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def run_strict(argv, env=None):
    """``python -W error::RuntimeWarning -m specvar.cli argv`` in a fresh
    process: (exit code, parsed stdout or None, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "specvar.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc, proc.stderr


def json_leaves(value, path=""):
    """(path, value) for every number, string, boolean and null of a parsed
    JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from json_leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_leaves(item, f"{path}[{i}]")
    else:
        yield path, value


@pytest.fixture()
def flagship_args(tmp_path):
    x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
    h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
    return [
        "--command", "SSUB",
        "--matrix", x,
        "--theta", '{"name":"order_stat","i":1}',
        "--direction", h,
        "--subgradient", "[1.0, 0.0]",
        "--seed", "0",
        "--probe-t-grid", "1e-3,1e-4",
        "--probe-samples", "32",
    ]


class TestSecondOrderCommand:
    def test_flagship_document(self, flagship_args, capsys):
        code, doc, err = run_cli(flagship_args, capsys)
        assert code == 0
        out = doc["outputs"]
        assert out["d2"] == pytest.approx(2.0, abs=1e-12)
        assert out["theta_d2"] == 0.0
        assert out["curvature_correction"] == pytest.approx(2.0, abs=1e-12)
        assert out["in_critical_cone"] is True
        assert out["oracle_gap"] is not None and out["oracle_gap"] <= 1e-2
        assert doc["eigen"]["lambda"] == [2.0, 1.0]
        assert doc["eigen"]["blocks"] == [[0, 1], [1, 2]]
        assert doc["inputs"]["matrix"] == {"n": 2, "entries": [2.0, 0.0, 0.0, 1.0]}
        assert doc["inputs"]["theta"] == {"name": "order_stat", "i": 1}
        assert len(doc["determinism_hash"]) == 64
        assert doc["command"] == "SSUB"

    def test_report_alias(self, flagship_args, capsys):
        code, doc, _ = run_cli(["--command", "REPORT"] + flagship_args[2:], capsys)
        assert code == 0
        assert doc["outputs"]["d2"] == pytest.approx(2.0, abs=1e-12)

    def test_canonical_subgradient_when_omitted(self, flagship_args, capsys):
        argv = [a for a in flagship_args]
        i = argv.index("--subgradient")
        del argv[i : i + 2]
        code, doc, _ = run_cli(argv, capsys)
        assert code == 0
        assert doc["outputs"]["y"] == [1.0, 0.0]
        assert "subgradient" not in doc["inputs"]

    def test_infinite_d2_serialized_as_string(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", [[1.0, 0.0], [0.0, 1.0]])
        h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
        code, doc, _ = run_cli(
            [
                "--command", "SSUB",
                "--matrix", x,
                "--theta", '{"name":"order_stat","i":1}',
                "--direction", h,
                "--subgradient", "[1.0, 0.0]",
            ],
            capsys,
        )
        assert code == 0
        assert doc["outputs"]["d2"] == "+inf"
        assert doc["outputs"]["in_critical_cone"] is False
        assert doc["outputs"]["oracle_gap"] is None

    def test_trace_csv(self, flagship_args, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(flagship_args + ["--trace-csv", str(trace)], capsys)
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "t,min_quotient,at_w_quotient"
        assert len(lines) == 3  # header + one row per grid level
        for row in lines[1:]:
            t, mn, atw = row.split(",")
            assert float(t) > 0
            for cell in (mn, atw):
                assert cell == "+inf" or np.isfinite(float(cell))

    def test_trace_csv_probes_once(self, flagship_args, tmp_path, capsys, monkeypatch):
        # the report and the trace read one probe: f(X) once, then one
        # stacked call per level of the default three-level grid
        calls = []
        lift = spectral.lifted

        def counted_lift(theta):
            f = lift(theta)

            def g(a):
                calls.append(np.ndim(a))
                return f(a)

            g.accepts_stack = True
            return g

        for module in (cli, spectral):
            monkeypatch.setattr(module, "lifted", counted_lift)
        trace = tmp_path / "trace.csv"
        argv = flagship_args[: flagship_args.index("--probe-t-grid")] + ["--trace-csv", str(trace)]
        code, doc, _ = run_cli(argv, capsys)
        assert code == 0
        assert sorted(calls) == [2, 3, 3, 3]
        rows = [row.split(",") for row in trace.read_text().strip().splitlines()[1:]]
        assert min(float(mn) for _, mn, _ in rows[-2:]) == doc["outputs"]["oracle_d2"]


class TestOtherCommands:
    def test_subderiv(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
        h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
        code, doc, _ = run_cli(
            [
                "--command", "SUBDERIV",
                "--matrix", x,
                "--theta", '{"name":"order_stat","i":1}',
                "--direction", h,
            ],
            capsys,
        )
        assert code == 0
        assert doc["outputs"]["dg"] == pytest.approx(0.0, abs=1e-12)

    def test_critcone_rejects_kink_leaving_direction(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", [[1.5, 0.0], [0.0, 0.0]])
        h = write_json_matrix(tmp_path / "h.json", [[0.0, 0.0], [0.0, 1.0]])
        code, doc, _ = run_cli(
            [
                "--command", "CRITCONE",
                "--matrix", x,
                "--theta", '{"name":"mcp","a":2.0,"c":1.0}',
                "--direction", h,
                "--subgradient", "[0.25, 0.0]",
            ],
            capsys,
        )
        assert code == 0
        out = doc["outputs"]
        assert out["in_critical_cone"] is False
        assert out["definitional_member"] is False
        assert out["definitional_gap"] == pytest.approx(1.0, abs=1e-10)

    def test_critcone_accepts_critical_direction(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
        h = write_json_matrix(tmp_path / "h.json", [[1.0, 0.0], [0.0, 0.0]])
        code, doc, _ = run_cli(
            [
                "--command", "CRITCONE",
                "--matrix", x,
                "--theta", '{"name":"order_stat","i":1}',
                "--direction", h,
                "--subgradient", "[1.0, 0.0]",
            ],
            capsys,
        )
        assert code == 0
        out = doc["outputs"]
        assert out["in_critical_cone"] is True
        assert out["definitional_member"] is True

    @pytest.mark.parametrize("g", [3e-9, 5e-9, 9e-9])
    def test_near_tie_joined_at_the_default_width(self, g, tmp_path, capsys):
        # eig joins the pair at its default width; both commands exited 2
        # with "vector is not a subgradient" for the canonical gradient
        x = write_json_matrix(tmp_path / "x.json", np.diag([0.5, 0.5 - g, -0.7]).tolist())
        h = write_json_matrix(tmp_path / "h.json", [[0.3, 1.0, 0.0], [1.0, -0.2, 0.5], [0.0, 0.5, 0.1]])
        outs = {}
        for command in ("SSUB", "CRITCONE"):
            argv = ["--command", command, "--matrix", x, "--direction", h,
                    "--theta", '{"name":"mcp","a":2,"c":1}', "--probe-samples", "8"]
            code, doc, err = run_cli(argv, capsys)
            assert code == 0, err
            assert doc["eigen"]["blocks"] == [[0, 2], [2, 3]]
            outs[command] = doc["outputs"]
        assert outs["CRITCONE"]["in_critical_cone"] is outs["CRITCONE"]["definitional_member"] is True
        assert outs["SSUB"]["in_critical_cone"] is True and outs["SSUB"]["y"][0] == outs["SSUB"]["y"][1]

    def test_semideriv(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", [[1.0, 0.3], [0.3, -0.7]])
        h = [[0.4, -0.2], [-0.2, 1.1]]
        hp = write_json_matrix(tmp_path / "h.json", h)
        code, doc, _ = run_cli(
            [
                "--command", "SEMIDERIV",
                "--matrix", x,
                "--theta", '{"name":"smooth_sep","coeff":1.0}',
                "--direction", hp,
            ],
            capsys,
        )
        assert code == 0
        want = float(np.vdot(np.asarray(h), np.asarray(h)))
        assert doc["outputs"]["second_semiderivative"] == pytest.approx(want, rel=1e-9)

    def test_prox_with_direction(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", [[3.0, 0.0], [0.0, 0.8]])
        d = write_json_matrix(tmp_path / "d.json", [[1.0, 0.0], [0.0, 1.0]])
        code, doc, _ = run_cli(
            [
                "--command", "PROX",
                "--matrix", x,
                "--theta", '{"name":"mcp","a":2.0,"c":1.0}',
                "--gamma", "0.5",
                "--direction", d,
            ],
            capsys,
        )
        assert code == 0
        out = doc["outputs"]
        assert out["prox_eigenvalues"] == pytest.approx([3.0, 0.4], abs=1e-12)
        assert out["closed_form"] is True
        assert out["directional_converged"] is True
        got = np.asarray(out["directional_derivative"]).reshape(2, 2)
        np.testing.assert_allclose(got, np.diag([1.0, 4.0 / 3.0]), atol=1e-9)

    def test_prox_three_branches(self, tmp_path, capsys):
        x = write_json_matrix(
            tmp_path / "x.json", [[3.0, 0.0, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 0.4]]
        )
        code, doc, _ = run_cli(
            [
                "--command", "PROX",
                "--matrix", x,
                "--theta", '{"name":"mcp","a":2.0,"c":1.0}',
                "--gamma", "0.5",
            ],
            capsys,
        )
        assert code == 0
        assert doc["outputs"]["prox_eigenvalues"] == pytest.approx([3.0, 0.4, 0.0], abs=1e-12)

    def test_verify_passes(self, capsys):
        code, doc, _ = run_cli(["--command", "VERIFY", "--seed", "42"], capsys)
        assert code == 0
        out = doc["outputs"]
        assert out["failed"] == 0
        assert out["passed"] == len(out["checks"]) >= 5
        assert all(c["passed"] for c in out["checks"])


class TestExitCodes:
    def test_parse_errors_exit_two(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
        h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
        base = ["--command", "SSUB", "--matrix", x, "--theta", '{"name":"order_stat","i":1}']
        # malformed penalty JSON
        code, _, err = run_cli(
            ["--command", "SSUB", "--matrix", x, "--theta", "{oops", "--direction", h],
            capsys,
        )
        assert code == 2 and "error" in err
        # missing required flag
        code, _, err = run_cli(base, capsys)
        assert code == 2 and "--direction" in err
        # subgradient outside the subdifferential
        code, _, _ = run_cli(base + ["--direction", h, "--subgradient", "[0.0, 1.0]"], capsys)
        assert code == 2
        # unknown penalty name
        code, _, _ = run_cli(
            ["--command", "SSUB", "--matrix", x, "--theta", '{"name":"scad"}', "--direction", h],
            capsys,
        )
        assert code == 2

    def test_unsupported_point_exits_three(self, tmp_path, capsys):
        tied = write_json_matrix(
            tmp_path / "x.json", [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
        )
        h = write_json_matrix(
            tmp_path / "h.json", [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        code, _, err = run_cli(
            [
                "--command", "SSUB",
                "--matrix", tied,
                "--theta", '{"name":"order_stat","i":2}',
                "--direction", h,
            ],
            capsys,
        )
        assert code == 3 and "unsupported point" in err

        # a gap inside the default clustering width is a tie to the penalty
        # too (it exited 2, as bad input, when the two widths disagreed)
        small = write_json_matrix(
            tmp_path / "s.json", [[3e-9, 0.0, 0.0], [0.0, 1e-9, 0.0], [0.0, 0.0, -2e-9]]
        )
        code, _, err = run_cli(
            [
                "--command", "SSUB",
                "--matrix", small,
                "--theta", '{"name":"order_stat","i":2}',
                "--direction", h,
            ],
            capsys,
        )
        assert code == 3 and "unsupported point" in err

        kink = write_json_matrix(tmp_path / "k.json", [[1.2, 0.0], [0.0, 0.0]])
        h2 = write_json_matrix(tmp_path / "h2.json", [[1.0, 0.0], [0.0, 1.0]])
        code, _, _ = run_cli(
            [
                "--command", "SEMIDERIV",
                "--matrix", kink,
                "--theta", '{"name":"mcp","a":2.0,"c":1.0}',
                "--direction", h2,
            ],
            capsys,
        )
        assert code == 3

    def test_io_error_exits_four(self, flagship_args, capsys):
        code, _, err = run_cli(
            flagship_args + ["--out", "/nonexistent-dir/report.json"], capsys
        )
        assert code == 4 and "i/o error" in err


class TestInputs:
    def test_csv_and_flat_json_agree(self, tmp_path, capsys):
        rows = [[2.0, 0.5], [0.5, 1.0]]
        h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
        docs = []
        for path in (
            write_csv_matrix(tmp_path / "x.csv", rows),
            write_json_matrix(tmp_path / "x.json", rows, flat_n=2),
        ):
            code, doc, _ = run_cli(
                [
                    "--command", "SUBDERIV",
                    "--matrix", path,
                    "--theta", '{"name":"smooth_sep","coeff":1.0}',
                    "--direction", h,
                ],
                capsys,
            )
            assert code == 0
            docs.append(doc)
        assert docs[0]["eigen"] == docs[1]["eigen"]
        assert docs[0]["outputs"] == docs[1]["outputs"]

    def test_bad_matrix_files_exit_two(self, tmp_path, capsys):
        h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
        bad_shape = tmp_path / "bad.json"
        bad_shape.write_text(json.dumps({"entries": [[1.0, 0.0]]}))
        txt = tmp_path / "m.txt"
        txt.write_text("1 0\n0 1\n")
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("1.0,xyz\n0.0,1.0\n")
        for path in (str(bad_shape), str(txt), str(bad_csv)):
            code, _, _ = run_cli(
                [
                    "--command", "SUBDERIV",
                    "--matrix", path,
                    "--theta", '{"name":"order_stat","i":1}',
                    "--direction", h,
                ],
                capsys,
            )
            assert code == 2

    def test_asymmetric_input_warns_and_symmetrizes(self, tmp_path, capsys):
        x = write_json_matrix(tmp_path / "x.json", [[0.0, 1.0], [0.0, 0.0]])
        h = write_json_matrix(tmp_path / "h.json", OFFDIAG)
        code, doc, err = run_cli(
            [
                "--command", "SUBDERIV",
                "--matrix", x,
                "--theta", '{"name":"smooth_sep","coeff":1.0}',
                "--direction", h,
            ],
            capsys,
        )
        assert code == 0
        assert "asymmetry" in err
        assert doc["inputs"]["asymmetry"] == pytest.approx(1.0)
        assert doc["eigen"]["lambda"] == pytest.approx([0.5, -0.5])
        x = write_json_matrix(tmp_path / "x.json", [[0.0, 1.0], [1.0, 0.0]])
        code, doc, err = run_cli(
            ["--command", "SUBDERIV", "--matrix", x, "--theta", '{"name":"smooth_sep","coeff":1.0}',
             "--direction", h],
            capsys,
        )
        assert code == 0 and "asymmetry" not in err and doc["inputs"]["asymmetry"] == 0.0

    def test_seed_env_fallback(self, flagship_args, capsys, monkeypatch):
        argv = [a for a in flagship_args]
        i = argv.index("--seed")
        del argv[i : i + 2]
        monkeypatch.setenv("SPECVAR_SEED", "17")
        code, doc, _ = run_cli(argv, capsys)
        assert code == 0 and doc["seed"] == 17
        monkeypatch.setenv("SPECVAR_SEED", "not-an-int")
        code, _, _ = run_cli(argv, capsys)
        assert code == 2


class TestDeterminism:
    def test_hash_stable_across_runs(self, flagship_args, capsys):
        _, doc1, _ = run_cli(flagship_args, capsys)
        _, doc2, _ = run_cli(flagship_args, capsys)
        assert doc1["determinism_hash"] == doc2["determinism_hash"]

    def test_hash_tracks_inputs_not_timestamp(self, flagship_args, capsys):
        _, doc1, _ = run_cli(flagship_args, capsys)
        argv = [a.replace("1e-3,1e-4", "1e-2,1e-3") for a in flagship_args]
        _, doc2, _ = run_cli(argv, capsys)
        assert doc1["determinism_hash"] != doc2["determinism_hash"]

    def test_trace_csv_leaves_the_hash(self, flagship_args, tmp_path, capsys):
        # SSUB --trace-csv finalizes the report once before it writes the
        # trace; the hash printed after must not read that call's hash
        _, plain, _ = run_cli(flagship_args, capsys)
        _, traced, _ = run_cli(flagship_args + ["--trace-csv", str(tmp_path / "t.csv")], capsys)
        assert traced["determinism_hash"] == plain["determinism_hash"]

    def test_environment_is_recorded_outside_the_hash(self, flagship_args, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        _, doc, _ = run_cli(flagship_args, capsys)
        env = doc["environment"]
        assert env["numpy"] == np.__version__ and isinstance(env["blas"], (str, type(None)))
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None and "OMP_NUM_THREADS" in env["threads"]
        unhashed = ("timestamp", "environment", "determinism_hash")
        rest = {k: v for k, v in doc.items() if k not in unhashed}
        payload = json.dumps(rest, sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert doc["determinism_hash"] == hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def test_blas_threads_keep_decisions_and_numbers(self, tmp_path):
        # from n = 128 some products (U^T H U, U diag(y) U^T) differ in the
        # last bits between one and two OpenBLAS threads, so the hash may
        # differ; the decisions may not, and every number agrees to 1e-12
        # relative.  The oracle's quotients cancel terms of size 2 |<Y, W>| / t,
        # so its two numbers are relative to 2 ||Y|| ||H|| / t_min.
        rng = key_rng(24, 11)
        n = 200
        lam = np.sort(rng.uniform(0.5, 1.8, size=n) * rng.choice([-1.0, 1.0], size=n))[::-1]
        lam[10:13] = lam[10]  # one tied cluster of three
        x, _ = matrix_with_spectrum(rng, lam)
        h = random_symmetric(rng, n)
        xp = write_json_matrix(tmp_path / "x.json", x, flat_n=n)
        hp = write_json_matrix(tmp_path / "h.json", h, flat_n=n)
        jobs = {
            command: ["--command", command, "--matrix", xp, "--direction", hp,
                      "--theta", '{"name":"mcp","a":2,"c":1}', "--gamma", "0.5",
                      "--probe-samples", "16"]
            for command in ("SSUB", "PROX")
        }
        for command, argv in jobs.items():
            runs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                code, doc, err = run_strict(argv, env)
                assert code == 0, (command, threads, err)
                runs.append(doc)
            a, b = runs
            if a["eigen"]["blocks"] != b["eigen"]["blocks"]:
                assert a["eigen"]["ambiguous"] or b["eigen"]["ambiguous"], command
                continue
            assert len(a["eigen"]["blocks"]) == n - 2, command  # the tied cluster is found
            y = np.asarray(a["outputs"].get("y", 0.0))  # PROX has no oracle
            oracle_scale = 2.0 * np.linalg.norm(y) * np.linalg.norm(h) / 1e-4
            pairs = zip(json_leaves({k: a[k] for k in ("eigen", "outputs")}),
                        json_leaves({k: b[k] for k in ("eigen", "outputs")}))
            for (path, u), (other, w) in pairs:
                assert path == other and type(u) is type(w), (command, path, u, w)
                if not isinstance(u, float):  # decisions, "+inf" and nulls
                    assert u == w, (command, path, u, w)
                    continue
                scale = oracle_scale if path.startswith(".outputs.oracle_") else max(abs(u), abs(w))
                assert abs(u - w) <= 1e-12 * scale, (command, path, u, w)

    def test_out_file_round_trips(self, flagship_args, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, doc, _ = run_cli(flagship_args + ["--out", str(out)], capsys)
        assert code == 0 and doc is None  # written to the file, not stdout
        saved = json.loads(out.read_text())
        assert saved["outputs"]["d2"] == pytest.approx(2.0, abs=1e-12)


def test_console_entry_point(tmp_path):
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"entries": FLAGSHIP}))
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"entries": OFFDIAG}))
    proc = subprocess.run(
        [
            sys.executable, "-m", "specvar.cli",
            "--command", "SUBDERIV",
            "--matrix", str(x),
            "--theta", '{"name":"order_stat","i":1}',
            "--direction", str(h),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["outputs"]["dg"] == pytest.approx(0.0, abs=1e-12)


def test_closed_form_commands_leave_scipy_optimize_unimported(tmp_path):
    # no command needs scipy: the closed forms, an EigGapMax subdifferential
    # with two tied maximal gaps included, and the numeric prox's own Powell
    files = {
        "x": FLAGSHIP,
        "h": OFFDIAG,
        "g": [[4.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
        "k": [[0.3, 1.0, 0.0], [1.0, -0.2, 0.5], [0.0, 0.5, 0.1]],
    }
    for name, rows in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"entries": rows}))
    order, gap = '{"name":"order_stat","i":1}', '{"name":"eig_gap"}'
    jobs = [
        ("SSUB", "x", "h", order),
        ("CRITCONE", "x", "h", order),
        ("SUBDERIV", "x", "h", order),
        ("SEMIDERIV", "x", "h", '{"name":"smooth_sep","coeff":1.0}'),
        ("SSUB", "g", "k", gap),
        ("CRITCONE", "g", "k", gap),
    ]
    argvs = [
        ["--command", c, "--matrix", str(tmp_path / f"{m}.json"),
         "--direction", str(tmp_path / f"{d}.json"), "--theta", t]
        for c, m, d, t in jobs
    ] + [["--command", "VERIFY", "--seed", "0"]]
    # the prox of the largest eigenvalue, with and without its derivative
    prox = ["--command", "PROX", "--matrix", str(tmp_path / "g.json"),
            "--theta", order, "--gamma", "0.5"]
    argvs += [prox, prox + ["--direction", str(tmp_path / "k.json")]]
    # the numeric prox of OrderStat(2) and of EigGapMax
    for t in ('{"name":"order_stat","i":2}', gap):
        argvs.append(["--command", "PROX", "--matrix", str(tmp_path / "g.json"),
                      "--theta", t, "--gamma", "0.5"])
    code = (
        "import json, sys\n"
        "from specvar.cli import main\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    if main(argv + ['--out', f'{sys.argv[2]}/{i}.json']) != 0:\n"
        "        sys.exit(f'{argv} failed')\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "sys.exit(f'scipy imported: {loaded}' if loaded else 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    tied = json.loads((tmp_path / "4.json").read_text())
    assert tied["eigen"]["lambda"] == [4.0, 2.0, 0.0]
    assert tied["outputs"]["y"] == [0.0, 1.0, -1.0]
    for i in (len(argvs) - 4, len(argvs) - 3):
        out = json.loads((tmp_path / f"{i}.json").read_text())["outputs"]
        assert out["closed_form"] is True and out["prox_eigenvalues"] == [3.5, 2.0, 0.0]
    assert out["directional_converged"] is True
    for i in (len(argvs) - 2, len(argvs) - 1):
        assert json.loads((tmp_path / f"{i}.json").read_text())["outputs"]["closed_form"] is False


@pytest.mark.parametrize(
    "theta, gamma",
    [
        ('{"name":"order_stat","i":1}', "nan"),
        ('{"name":"order_stat","i":1}', "inf"),
        ('{"name":"smooth_sep","coeff":1.0}', "nan"),
        ('{"name":"smooth_sep","coeff":1.0}', "inf"),
        ('{"name":"eig_gap"}', "-inf"),
        ('{"name":"mcp","a":2.0,"c":1.0}', "nan"),
        ('{"name":"eig_gap"}', "-nan"),
        ('{"name":"order_stat","i":1}', "-1e-3"),
    ],
)
def test_non_finite_gamma_exits_two(theta, gamma, tmp_path):
    # rejected before any search starts: no optimizer warnings, no zero
    # matrix; a separate value such as -inf reaches the same check
    x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
    for form in ([f"--gamma={gamma}"], ["--gamma", gamma]):
        proc = subprocess.run(
            [sys.executable, "-m", "specvar.cli", "--command", "PROX",
             "--matrix", x, "--theta", theta, *form],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, (form, proc.stderr)
        assert "gamma" in proc.stderr
        assert re.search("finite|positive|0 < gamma < a", proc.stderr), (form, proc.stderr)
        assert "Warning" not in proc.stderr
        assert proc.stdout == ""


WITHOUT_SCIPY = (
    "import sys\n"
    "sys.modules['scipy'] = None\n"
    "from specvar.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "theta", ['{"name":"order_stat","i":2}', '{"name":"eig_gap"}'], ids=["order_stat-2", "eig_gap"]
)
def test_numeric_prox_without_scipy_runs(theta, tmp_path):
    # numeric_prox's Powell search is specvar's own: with scipy blocked the
    # numeric PROX runs and hashes as it does where scipy is installed
    x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
    argv = ["--command", "PROX", "--matrix", x, "--theta", theta, "--gamma", "0.5"]
    docs = []
    for launch in ([sys.executable, "-c", WITHOUT_SCIPY], [sys.executable, "-m", "specvar.cli"]):
        proc = subprocess.run(launch + argv, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(proc.stdout))
    assert docs[0]["outputs"]["closed_form"] is False
    assert docs[0]["determinism_hash"] == docs[1]["determinism_hash"]


def test_largest_eigenvalue_prox_without_scipy_runs(tmp_path):
    x = write_json_matrix(tmp_path / "x.json", FLAGSHIP)
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, "--command", "PROX", "--matrix", x,
         "--theta", '{"name":"order_stat","i":1}', "--gamma", "0.5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)["outputs"]
    assert out["closed_form"] is True and out["prox_eigenvalues"] == [1.5, 1.0]


# Bad input files, each loaded once as the base matrix and once as the direction.
FUZZ_FILES = {
    "nan-token": ("json", '{"entries": [[NaN, 0.0], [0.0, 1.0]]}'),
    "infinity-token": ("json", '{"entries": [[Infinity, 0.0], [0.0, 1.0]]}'),
    "flat-minus-infinity": ("json", '{"n": 2, "entries": [-Infinity, 0.0, 0.0, 1.0]}'),
    "empty-json": ("json", ""),
    "empty-csv": ("csv", ""),
    "ragged-json": ("json", '{"entries": [[1.0, 2.0], [3.0]]}'),
    "ragged-csv": ("csv", "1.0,2.0\n3.0\n"),
    "non-square-json": ("json", '{"entries": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}'),
    "non-square-csv": ("csv", "1.0,2.0,3.0\n4.0,5.0,6.0\n"),
    "zero-by-zero": ("json", '{"n": 0, "entries": []}'),
    "empty-rows": ("json", '{"entries": [[]]}'),
    "fractional-n": ("json", '{"n": 2.5, "entries": [2.0, 0.0, 0.0, 1.0]}'),
    "infinite-n": ("json", '{"n": Infinity, "entries": [1.0]}'),
    "object-entries": ("json", '{"entries": {"a": 1.0}}'),
    "boolean-entries": ("json", '{"entries": [[true, false], [false, true]]}'),
    "comment-only-csv": ("csv", "# no rows\n"),
}
# Bad flags, appended to a valid SSUB job (argparse keeps the last value).
FUZZ_FLAGS = {
    "subgradient-short": ["--subgradient", "[1.0]"],
    "subgradient-long": ["--subgradient", "[1.0, 0.0, 0.0]"],
    "subgradient-nested": ["--subgradient", "[[1.0, 0.0]]"],
    "subgradient-object": ["--subgradient", '{"a": 1.0}'],
    "subgradient-nan": ["--subgradient", "[NaN, 0.0]"],
    "subgradient-booleans": ["--subgradient", "[true, false]"],
    "t-grid-text": ["--probe-t-grid", "abc"],
    "t-grid-one-level": ["--probe-t-grid", "1e-3"],
    "t-grid-increasing": ["--probe-t-grid", "1e-4,1e-3"],
    "t-grid-nan": ["--probe-t-grid", "nan,1e-3"],
    "t-grid-infinite": ["--probe-t-grid", "inf,1e-3"],
    "probe-samples-zero": ["--probe-samples", "0"],
    "probe-samples-negative": ["--probe-samples", "-5"],
    "probe-samples-text": ["--probe-samples", "abc"],
    "theta-missing-rank": ["--theta", '{"name":"order_stat"}'],
    "theta-fractional-rank": ["--theta", '{"name":"order_stat","i":1.5}'],
}

# Bad penalty parameters: each loaded, as McpSum(2, 1) or with an infinite
# parameter that PROX ran with and SSUB blamed on the matrix, except the
# 401-digit integer, which was an OverflowError traceback with exit 1.
FUZZ_THETAS = {
    "mcp-infinite-c": '{"name":"mcp","a":2,"c":1e309}',
    "mcp-infinite-a": '{"name":"mcp","a":1e309,"c":1}',
    "mcp-huge-integer-a": '{"name":"mcp","a":1%s,"c":1}' % ("0" * 400),
    "mcp-string-and-boolean": '{"name":"mcp","a":"2","c":true}',
    "smooth-sep-string-coeffs": '{"name":"smooth_sep","coeffs":["1", 1]}',
}


def fuzz_job(tmp_path, matrix=FLAGSHIP, direction=OFFDIAG):
    def path(name, value):
        if isinstance(value, tuple):
            ext, body = value
            (tmp_path / f"{name}.{ext}").write_text(body)
            return str(tmp_path / f"{name}.{ext}")
        return write_json_matrix(tmp_path / f"{name}.json", value)

    return [
        "--command", "SSUB",
        "--matrix", path("x", matrix),
        "--direction", path("h", direction),
        "--theta", '{"name":"order_stat","i":1}',
        "--seed", "0",
        "--probe-samples", "4",
    ]


def run_fuzz(argv, capsys):
    """Exit code and stderr of one CLI run.  Warnings are appended to
    stderr as a terminal would print them; pytest would hide them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects before run()
            code = exc.code
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, capsys.readouterr().err + shown


class TestFuzz:
    @pytest.mark.parametrize("role", ["matrix", "direction"])
    @pytest.mark.parametrize("name", sorted(FUZZ_FILES))
    def test_bad_file_exits_cleanly(self, name, role, tmp_path, capsys):
        argv = fuzz_job(tmp_path, **{role: FUZZ_FILES[name]})
        code, err = run_fuzz(argv, capsys)
        assert code in (2, 3, 4)
        assert "Traceback" not in err
        assert "Warning" not in err

    @pytest.mark.parametrize("name", sorted(FUZZ_FLAGS))
    def test_bad_flag_exits_cleanly(self, name, tmp_path, capsys):
        code, err = run_fuzz(fuzz_job(tmp_path) + FUZZ_FLAGS[name], capsys)
        assert code in (2, 3, 4)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["SSUB", "PROX"])
    @pytest.mark.parametrize("name", sorted(FUZZ_THETAS))
    def test_bad_theta_exits_two(self, name, command, tmp_path, capsys):
        argv = fuzz_job(tmp_path) + ["--theta", FUZZ_THETAS[name], "--gamma", "0.5"]
        argv[1] = command
        code, err = run_fuzz(argv, capsys)
        assert code == 2, err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, theta",
        [
            ("SSUB", '{"name":"mcp","a":2,"c":1}'),
            ("SSUB", '{"name":"order_stat","i":1}'),
            ("CRITCONE", '{"name":"order_stat","i":1}'),
            ("CRITCONE", '{"name":"mcp","a":2,"c":1}'),
            ("SEMIDERIV", '{"name":"order_stat","i":1}'),
        ],
    )
    def test_huge_direction_exits_two(self, command, theta, tmp_path):
        # the squares of 1e200 overflow: SSUB ended in "ExtReal does not
        # admit -infinity", CRITCONE read in_critical_cone true off an
        # overflowed norm, SEMIDERIV printed NaN with exit 0; 1e100 still runs
        x = write_json_matrix(tmp_path / "x.json", [[1.0, 0.0], [0.0, 0.0]])
        for scale, want in ((1e200, 2), (1e100, 0)):
            h = write_json_matrix(tmp_path / "h.json", (scale * np.eye(2)).tolist())
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "specvar.cli",
                 "--command", command, "--matrix", x, "--direction", h, "--theta", theta],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == want, (scale, proc.stderr)
            assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
            if want == 2:
                assert "ExtReal" not in proc.stderr and "1e+200" in proc.stderr
                assert proc.stdout == ""

    @pytest.mark.parametrize(
        "command, theta, rows",
        [
            ("PROX", '{"name":"order_stat","i":1}', np.diag([1.7e308, 1.7e308, 1.6e308])),
            ("PROX", '{"name":"mcp","a":2,"c":1}', np.diag([1.7e308, 1.7e308, 1.6e308])),
            ("SUBDERIV", '{"name":"order_stat","i":1}', np.diag([1.7e308, 1.7e308, 1.6e308])),
            ("SUBDERIV", '{"name":"mcp","a":2,"c":1}', np.diag([1.7e308, 1.7e308, 1.6e308])),
            ("SSUB", '{"name":"mcp","a":2,"c":1}', 1e200 * np.eye(2)),
        ],
    )
    def test_huge_spectra_run_clean(self, command, theta, rows, tmp_path):
        # the tied pair's mean overflowed (PROX, SUBDERIV), and so did the
        # discarded branches of McpSum's value and prox: numpy warned, and
        # -W error ended in a traceback
        n = len(rows)
        x = write_json_matrix(tmp_path / "x.json", rows.tolist())
        h = write_json_matrix(tmp_path / "h.json", np.ones((n, n)).tolist())
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "specvar.cli",
             "--command", command, "--matrix", x, "--direction", h, "--theta", theta,
             "--gamma", "0.5", "--probe-samples", "8"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_point_support_past_the_float_maximum(self, tmp_path):
        # smooth_sep's dg = y . dd passes the float maximum in its partial
        # sums: numpy warned in matmul and the CLI exited 2 naming dg as
        # non-finite, though dg = 1.7e308 (dd_0 + dd_1) + 1.6e308 dd_2 = 3.3e307
        x = write_json_matrix(tmp_path / "x.json", np.diag([1.7e308, 1.7e308, 1.6e308]).tolist())
        h = write_json_matrix(tmp_path / "h.json", SPAN_H)
        code, doc, err = run_strict(["--command", "SUBDERIV", "--matrix", x, "--direction", h,
                                     "--theta", '{"name":"smooth_sep","coeff":1}'])
        assert code == 0 and err == "", err
        assert doc["outputs"]["dg"] == pytest.approx(3.3e307, rel=1e-14)

    @pytest.mark.parametrize("command", ["SUBDERIV", "CRITCONE", "SSUB"])
    def test_spectrum_spanning_past_the_float_maximum(self, command, tmp_path):
        # eigenvalues 3.4e308 apart: their difference overflowed in
        # OrderStat's active set and in the rotation's gaps, and -W error
        # ended in a traceback; an infinite gap is no tie and a zero
        # divided difference, so the top eigenvalue's calculus is unchanged.
        # SSUB's quotient oracle cannot resolve its steps there (f(X + tW)
        # rounds to f(X)), so it exits 2 naming the oracle, where it printed
        # an estimate of -6000; the closed form is checked without a probe
        rows = np.diag([1.7e308, 0.0, -1.7e308])
        x = write_json_matrix(tmp_path / "x.json", rows.tolist())
        h = write_json_matrix(tmp_path / "h.json", SPAN_H)
        code, doc, err = run_strict(["--command", command, "--matrix", x, "--direction", h,
                                     "--theta", '{"name":"order_stat","i":1}',
                                     "--probe-samples", "8"])
        if command == "SSUB":
            assert code == 2 and doc is None, err
            assert "quotient oracle cannot resolve" in err
            assert "Traceback" not in err and "Warning" not in err
            theta = OrderStat(rank=1)
            triple = spectral_subgradient(theta, rows)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rep = spectral_second_subderivative(theta, rows, triple, np.array(SPAN_H))
            assert rep.dg == 0.3 and rep.in_critical_cone is True
            assert float(rep.theta_d2) == 0.0
            assert float(rep.d2) == pytest.approx(2.0 / 1.7e308, rel=1e-9, abs=0.0)
            return
        assert code == 0 and err == "", err
        out = doc["outputs"]
        if command == "SUBDERIV":
            assert out["dg"] == 0.3
        else:
            assert out["in_critical_cone"] is out["definitional_member"] is True

    def test_quotient_rounding_noise_exits_two(self, tmp_path):
        # f(X) = 8.1e17 has a float spacing of 128, which moves a quotient by
        # 2.6e8 at t = 1e-3 and 2.6e10 at t = 1e-4: SSUB printed oracle_d2
        # -3.04e10 beside d2 = 0.347 with exit 0; now it names the step.
        # The closed form still reads 0.347 (SEMIDERIV, no oracle)
        x = write_json_matrix(tmp_path / "x.json", np.diag([3e8, 1e8, -5e8]).tolist())
        h = write_json_matrix(tmp_path / "h.json", SPAN_H)
        argv = ["--matrix", x, "--direction", h, "--theta", '{"name":"mcp","a":2,"c":1e9}']
        code, doc, err = run_strict(["--command", "SSUB", *argv])
        assert code == 2 and doc is None, err
        assert "quotient oracle cannot resolve the step t=0.001 at f(x)=8.125e+17" in err
        assert "Traceback" not in err and "Warning" not in err
        code, doc, err = run_strict(["--command", "SEMIDERIV", *argv])
        assert code == 0 and err == "", err
        assert doc["outputs"]["second_semiderivative"] == 0.3466666666666673

    def test_numeric_prox_near_the_float_maximum_runs_clean(self, tmp_path):
        # Powell's line search overflowed in scipy at a spectrum of 1e308:
        # numpy warned, and -W error ended in a traceback with exit 1
        x = write_json_matrix(tmp_path / "x.json", np.diag([1e308, 1.0]).tolist())
        code, doc, err = run_strict(["--command", "PROX", "--matrix", x,
                                     "--theta", '{"name":"eig_gap"}', "--gamma", "0.5"])
        assert code == 0 and err == "", err
        assert doc["outputs"]["prox_eigenvalues"] == [1e308, 1.0]

    @pytest.mark.parametrize("role", ["matrix", "direction"])
    def test_overflowing_asymmetry_exits_two(self, role, tmp_path):
        # max|A - A^T| overflowed: numpy warned, then json refused the inf
        # with no field named, or -W error ended in a traceback
        rows = {"matrix": FLAGSHIP, "direction": OFFDIAG}
        rows[role] = [[1e308, 1e308], [-1e308, 0.0]]
        paths = {k: write_json_matrix(tmp_path / f"{k}.json", v) for k, v in rows.items()}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "specvar.cli",
             "--command", "SUBDERIV", "--matrix", paths["matrix"],
             "--direction", paths["direction"], "--theta", '{"name":"order_stat","i":1}'],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "asymmetry" in proc.stderr and paths[role] in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["SSUB", "SEMIDERIV"])
    def test_non_finite_output_exits_two(self, command, tmp_path, capsys):
        # a coefficient of 1e300 overflows dg and pairing (SSUB) and the
        # semiderivative: both printed a bare Infinity, which is not JSON,
        # with exit 0; now nothing is printed or written, not even the trace
        x = write_json_matrix(tmp_path / "x.json", [[1.0, 0.0], [0.0, 0.0]])
        h = write_json_matrix(tmp_path / "h.json", (1e10 * np.eye(2)).tolist())
        argv = ["--command", command, "--matrix", x, "--direction", h,
                "--theta", '{"name":"smooth_sep","coeff":1e300}']
        out_file, trace = tmp_path / "out.json", tmp_path / "trace.csv"
        for extra in ([], ["--out", str(out_file)], ["--trace-csv", str(trace)]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warnings
                code = main(argv + extra)
            out, err = capsys.readouterr()
            assert code == 2, err
            assert out == "" and "Out of range float values" in err and "Traceback" not in err
        assert not out_file.exists() and not trace.exists()

    @pytest.mark.parametrize(
        "command, fields", [("SSUB", "dg, pairing"), ("SEMIDERIV", "second_semiderivative")]
    )
    def test_non_finite_output_names_its_fields(self, command, fields, tmp_path, capsys):
        # json's own message named no field, so nothing said what overflowed
        x = write_json_matrix(tmp_path / "x.json", [[1.0, 0.0], [0.0, 0.0]])
        h = write_json_matrix(tmp_path / "h.json", (1e10 * np.eye(2)).tolist())
        argv = ["--command", command, "--matrix", x, "--direction", h,
                "--theta", '{"name":"smooth_sep","coeff":1e300}']
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.rstrip().endswith(f"non-finite outputs {fields}"), err

    def test_non_finite_paths_reach_list_entries(self):
        doc = {"outputs": {"eig_dir": [1.0, float("inf")], "nested": {"a": float("nan")}, "n": 2}}
        with pytest.raises(ValueError, match=r"eig_dir\[1\], nested\.a$"):
            cli._finalize(doc)

    def test_zero_samples_and_fractional_n_exit_two(self, tmp_path, capsys):
        # --probe-samples 0 used to become the default 256, and n = 2.5 was
        # truncated to 2; both ran to exit 0
        code, err = run_fuzz(fuzz_job(tmp_path) + ["--probe-samples", "0"], capsys)
        assert code == 2 and "samples" in err
        argv = fuzz_job(tmp_path, matrix=FUZZ_FILES["fractional-n"])
        code, err = run_fuzz(argv, capsys)
        assert code == 2 and "'n' must be an integer" in err

    def test_booleans_exit_two(self, tmp_path, capsys):
        # numpy reads true and false as 1.0 and 0.0; both inputs ran to exit 0
        code, err = run_fuzz(fuzz_job(tmp_path) + ["--subgradient", "[true, false]"], capsys)
        assert code == 2 and "booleans" in err
        argv = fuzz_job(tmp_path, matrix=FUZZ_FILES["boolean-entries"])
        code, err = run_fuzz(argv, capsys)
        assert code == 2 and "booleans" in err
