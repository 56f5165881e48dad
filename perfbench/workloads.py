"""The benchmark's workloads: seeded inputs, the timed job, and a check of
every job's output made outside the timed region.

Inputs are built with plain numpy from the workload seed (Haar-QR bases,
spectra and directions), never with ``specvar.rand``, so a change to specvar
cannot change what a workload feeds it. specvar receives only the generated
arrays and files.

The checks are independent of the closed forms they check: the second
subderivative is recomputed from the benchmark's own ``eigh`` and its own
subgradient, and prox points are judged by the proximal objective with the
penalty evaluated here. Every comparison uses a tolerance, so a refactor
that moves the last ulp still passes.
"""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass

import numpy as np

import specvar
from specvar import EigGapMax, McpSum, OrderStat, QuotientProbe, SmoothSep, cli

MCP_A, MCP_C = 2.0, 1.0
PENALTIES = {
    "order_stat1": (OrderStat(1), {"name": "order_stat", "i": 1}),
    "order_stat2": (OrderStat(2), {"name": "order_stat", "i": 2}),
    "mcp": (McpSum(MCP_A, MCP_C), {"name": "mcp", "a": MCP_A, "c": MCP_C}),
    "eig_gap": (EigGapMax(), {"name": "eig_gap"}),
    "smooth": (SmoothSep(1.0), {"name": "smooth_sep", "coeff": 1.0}),
}
# Kinks of the penalties above (MCP at 0 and at +-a*c); spectra keep clear
# of them so every d2 job is at a twice-differentiable point of theta.
KINKS = np.array([0.0, MCP_A * MCP_C, -MCP_A * MCP_C])

D2_RTOL = 1e-9  # closed form against the eigenbasis formula
ORACLE_GAP_TOL = 1e-2  # VERIFY's oracle thresholds
ORACLE_LOWER_SLACK = 5e-3
PROX_RTOL = 1e-9  # no probe may lower the proximal objective by more
PROX_PROBES = 64
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Job:
    kind: str
    x: np.ndarray | None = None
    h: np.ndarray | None = None
    gamma: float | None = None
    seed: int = 0
    argv: tuple[str, ...] = ()
    probe: QuotientProbe | None = None


# ---------------------------------------------------------------- inputs


def haar(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def sym_direction(rng, n, frob=1.0):
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    return a * (frob / np.linalg.norm(a))


def spectrum(rng, n, top, gap_lo, gap_hi, margin):
    """Distinct nonincreasing spectrum with its largest value uniform in
    ``top`` (a pair) and gaps in [gap_lo, gap_hi], at
    least ``margin`` away from every penalty kink and with a unique largest
    gap (the gap penalty's differentiability hypothesis)."""
    while True:
        gaps = rng.uniform(gap_lo, gap_hi, n - 1)
        lam = rng.uniform(*top) - np.concatenate([[0.0], np.cumsum(gaps)])
        top2 = np.sort(gaps)[-2:]
        if (
            np.min(np.abs(lam[:, None] - KINKS[None, :])) >= margin
            and top2[1] - top2[0] >= 1e-3 * gap_lo
        ):
            return lam


def with_spectrum(rng, lam):
    u = haar(rng, lam.size)
    x = (u * lam) @ u.T
    return (x + x.T) / 2.0


# ------------------------------------------------ independent references


def ref_value(kind, lam):
    """Penalty value at a nonincreasing spectrum."""
    if kind == "order_stat1":
        return float(lam[0])
    if kind == "order_stat2":
        return float(lam[1])
    if kind == "eig_gap":
        return float(np.max(lam[:-1] - lam[1:]))
    if kind == "mcp":
        a = np.abs(lam)
        inner = MCP_C * a - lam * lam / (2.0 * MCP_A)
        return float(np.sum(np.where(a <= MCP_A * MCP_C, inner, MCP_A * MCP_C**2 / 2.0)))
    if kind == "smooth":
        return 0.5 * float(lam @ lam)
    raise KeyError(kind)


def ref_gradient(kind, lam):
    """Canonical subgradient and second derivative of the penalty at a
    distinct spectrum clear of the kinks."""
    n = lam.size
    y = np.zeros(n)
    hess = np.zeros(n)
    if kind == "order_stat1":
        y[0] = 1.0
    elif kind == "eig_gap":
        i = int(np.argmax(lam[:-1] - lam[1:]))
        y[i], y[i + 1] = 1.0, -1.0
    elif kind == "mcp":
        inner = np.abs(lam) < MCP_A * MCP_C
        y = np.where(inner, np.sign(lam) * MCP_C - lam / MCP_A, 0.0)
        hess = np.where(inner, -1.0 / MCP_A, 0.0)
    elif kind == "smooth":
        y = lam.copy()
        hess = np.ones(n)
    else:
        raise KeyError(kind)
    return y, hess


def d2_matches(kind, x, h, d2):
    """Second subderivative at a distinct spectrum by the eigenbasis formula

        sum_j theta''_j Ht_jj^2 + 2 sum_j y_j sum_{k != j} Ht_jk^2 / (lam_j - lam_k)

    with Ht = U^T H U, compared to d2 relative to the size of its terms."""
    w, v = np.linalg.eigh(x)
    lam, u = w[::-1], v[:, ::-1]
    ht = u.T @ h @ u
    y, hess = ref_gradient(kind, lam)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, np.inf)
    terms = np.concatenate([hess * np.diag(ht) ** 2, (2.0 * y[:, None] * ht**2 / diff).ravel()])
    d2 = float(d2)
    return bool(np.isfinite(d2) and abs(d2 - terms.sum()) <= D2_RTOL * (1.0 + np.abs(terms).sum()))


def prox_optimal(kind, gamma, x, p, rng):
    """No seeded probe around p, and not x itself, lowers the proximal
    objective g(W) + ||W - X||^2 / (2 gamma) below its value at p."""
    if not np.allclose(p, p.T, rtol=0.0, atol=1e-12):
        return False

    def objective(wm):
        lam = np.linalg.eigvalsh((wm + wm.T) / 2.0)[::-1]
        return ref_value(kind, lam) + float(np.vdot(wm - x, wm - x)) / (2.0 * gamma)

    base = objective(p)
    floor = base - PROX_RTOL * (1.0 + abs(base))
    if objective(x) < floor:
        return False
    for _ in range(PROX_PROBES):
        eps = 10.0 ** rng.uniform(-4.0, -0.5)
        if objective(p + eps * sym_direction(rng, p.shape[0])) < floor:
            return False
    return True


# --------------------------------------------------------------- workloads


class D2Distinct:
    """Closed-form d2 without a probe at n = 64, r = n."""

    kinds = ("order_stat1", "mcp", "eig_gap", "smooth")

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng([seed, 1])
        self.rotations = [
            [
                Job(k, with_spectrum(rng, spectrum(rng, 64, (2.9, 3.1), 0.05, 0.15, 0.01)), sym_direction(rng, 64))
                for k in self.kinds
            ]
            for _ in range(4)
        ]
        self.warm_jobs = self.rotations[0]

    def run(self, job):
        theta = PENALTIES[job.kind][0]
        triple = specvar.spectral_subgradient(theta, job.x)
        return specvar.spectral_second_subderivative(theta, job.x, triple, job.h, probe=job.probe)

    run_traced = run

    def peak_rss_kb(self):
        """Peak RSS of the process running the jobs, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, job, rep):
        y, _ = ref_gradient(job.kind, np.linalg.eigvalsh(job.x)[::-1])
        return np.allclose(rep.y, y, rtol=0.0, atol=1e-12) and d2_matches(job.kind, job.x, job.h, rep.d2)


class D2Oracle(D2Distinct):
    """d2 with the default quotient probe at n in {4, 6, 8}."""

    kinds = ("order_stat1", "mcp", "smooth")

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng([seed, 2])
        self.rotations = [
            [
                Job(
                    k,
                    with_spectrum(rng, spectrum(rng, n, (1.5, 2.5), 1.0, 2.0, 0.1)),
                    sym_direction(rng, n, 0.5),
                    probe=QuotientProbe(seed=int(rng.integers(2**31))),
                )
                for n in (4, 6, 8)
                for k in self.kinds
            ]
            for _ in range(4)
        ]
        self.warm_jobs = self.rotations[0][:3]

    def check(self, job, rep):
        if not super().check(job, rep) or rep.oracle_gap is None:
            return False
        return rep.oracle_gap <= ORACLE_GAP_TOL and float(rep.oracle_d2) >= float(rep.d2) - ORACLE_LOWER_SLACK


class ProxPolyhedral:
    """spectral_prox of polyhedral penalties, which take the Powell path.

    Every gap of the spectrum exceeds gamma, so the proximal point keeps the
    eigenvalues distinct and each job costs about the same (30 to 160 ms).
    Gaps below gamma make eigenvalues merge at the proximal point, and a job
    there takes from 30 ms to over 5 s; ``EigGapMax`` is left out because its
    numeric prox is not optimal on about a quarter of the jobs.

    A job's cost still depends on its spectrum, so there are about as many
    distinct jobs as one run gets through: the tail then samples the
    seed's spread of costs rather than its two or three slowest jobs."""

    kinds = ("order_stat1", "order_stat2")

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng([seed, 3])
        self.rotations = [
            [
                Job(
                    k,
                    with_spectrum(rng, spectrum(rng, n, (0.0, 2.0), 0.6, 1.5, 0.0)),
                    gamma=gamma,
                    seed=int(rng.integers(2**31)),
                )
                for n in (4, 6, 8)
                for gamma in (0.25, 0.5)
                for k in self.kinds
            ]
            for _ in range(40)
        ]
        self.warm_jobs = self.rotations[0][:2]

    def run(self, job):
        return specvar.spectral_prox(PENALTIES[job.kind][0], job.gamma, job.x)

    run_traced = run
    peak_rss_kb = D2Distinct.peak_rss_kb

    def check(self, job, res):
        p = res.matrix.entries
        return prox_optimal(job.kind, job.gamma, job.x, p, np.random.default_rng(job.seed))


class CliMixed:
    """Sequential ``python -m specvar.cli`` subprocesses, one per job.

    The same five jobs repeat in every rotation, so each repeat must return
    the determinism hash of its first run."""

    def __init__(self, seed, work_dir):
        rng = np.random.default_rng([seed, 4])
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.hashes = {}
        self.peak_rss = 0
        jobs = [Job("VERIFY", seed=seed, argv=("--command", "VERIFY", "--seed", str(seed)))]
        for command, kind, extra in (
            ("SSUB", "order_stat1", ()),
            ("CRITCONE", "eig_gap", ()),
            ("SEMIDERIV", "mcp", ()),
            ("PROX", "mcp", ("--gamma", "0.5")),
        ):
            x = with_spectrum(rng, spectrum(rng, 5, (1.5, 2.5), 1.0, 2.0, 0.1))
            h = sym_direction(rng, 5, 0.5)
            paths = [self._write(f"{command}-{name}.json", m) for name, m in (("x", x), ("h", h))]
            argv = (
                "--command", command, "--matrix", paths[0], "--direction", paths[1],
                "--theta", json.dumps(PENALTIES[kind][1]), "--seed", str(seed), *extra,
            )
            gamma = float(extra[1]) if extra else None
            jobs.append(Job(kind, x, h, gamma, seed=int(rng.integers(2**31)), argv=argv))
        self.rotations = [jobs]
        self.warm_jobs = jobs[1:2]

    def _write(self, name, m):
        path = os.path.join(self.work_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": m.shape[0], "entries": m.ravel().tolist()}, fh)
        return path

    def _out(self, job):
        return os.path.join(self.work_dir, f"out-{job.argv[1]}.json")

    def _read(self, job, code):
        with open(self._out(job), encoding="utf-8") as fh:
            return code, json.load(fh)

    def run(self, job):
        """One CLI process. It is reaped with ``wait4``, which gives the peak
        RSS of that process alone; the benchmark's own set-up processes are
        children too, so the children's total would count them."""
        out = self._out(job)
        if os.path.exists(out):
            os.remove(out)
        err_path = os.path.join(self.work_dir, "stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "specvar.cli", *job.argv, "--out", out],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        self.peak_rss = max(self.peak_rss, usage.ru_maxrss)
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read())
        return self._read(job, proc.returncode)

    def peak_rss_kb(self):
        return self.peak_rss

    def run_traced(self, job):
        """The same argv through ``specvar.cli.main`` in this process."""
        return self._read(job, cli.main([*job.argv, "--out", self._out(job)]))

    def check(self, job, result):
        code, doc = result
        command = job.argv[1]
        if code != 0 or self.hashes.setdefault(command, doc["determinism_hash"]) != doc["determinism_hash"]:
            return False
        out = doc["outputs"]
        if command == "VERIFY":
            return out["failed"] == 0
        if command == "SSUB":
            d2, oracle = float(out["d2"]), float(out["oracle_d2"])
            return (
                d2_matches(job.kind, job.x, job.h, d2)
                and out["oracle_gap"] <= ORACLE_GAP_TOL
                and oracle >= d2 - ORACLE_LOWER_SLACK
            )
        if command == "CRITCONE":
            return out["in_critical_cone"] == out["definitional_member"]
        if command == "SEMIDERIV":
            return d2_matches(job.kind, job.x, job.h, out["second_semiderivative"])
        p = np.asarray(out["prox_entries"]).reshape(job.x.shape)
        return prox_optimal(job.kind, job.gamma, job.x, p, np.random.default_rng(job.seed))


WORKLOADS = {
    "d2-distinct": D2Distinct,
    "d2-oracle": D2Oracle,
    "prox-polyhedral": ProxPolyhedral,
    "cli-mixed": CliMixed,
}
