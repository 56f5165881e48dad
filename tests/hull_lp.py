"""LP references for the closed-form hull calculus in ``specvar.symfun``.

``_hull_fit`` is the sup-norm hull fit as a HiGHS LP, and
``lp_gqf_certificate`` the generalized-quadratic certificate built on it
with a second LP and scipy's null space.  Both take HiGHS options:
``TIGHT`` sets the feasibility tolerances to 1e-10, far below the 1e-7
default, which at the package's 1e-9 membership tolerance lets the LP
accept points it should not.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from specvar.symfun import RI_SLACK, SUBGRADIENT_TOL, GqfCertificate

TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _hull_fit(vertices: np.ndarray, y: np.ndarray, options=None) -> tuple[np.ndarray, float]:
    """Best sup-norm approximation of y by a convex combination of the rows
    of ``vertices``; returns (coefficients, residual)."""
    k, n = vertices.shape
    cost = np.zeros(k + 1)
    cost[-1] = 1.0
    vt = vertices.T
    ones = np.ones((n, 1))
    a_ub = np.block([[vt, -ones], [-vt, -ones]])
    b_ub = np.concatenate([y, -y])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * k + [(0.0, None)],
        method="highs",
        options=options,
    )
    if not res.success:
        raise RuntimeError(f"hull membership LP failed: {res.message}")
    return res.x[:k], float(res.x[-1])


def _hull_interior_slack(vertices: np.ndarray, y: np.ndarray, fit_tol: float, options=None) -> float:
    """Largest s such that y is a convex combination (within fit_tol) with
    all coefficients >= s.  Negative when y sits on the hull boundary."""
    k, n = vertices.shape
    cost = np.zeros(k + 1)
    cost[-1] = -1.0
    vt = vertices.T
    zeros = np.zeros((n, 1))
    rows_fit = np.block([[vt, zeros], [-vt, zeros]])
    b_fit = np.concatenate([y + fit_tol, -y + fit_tol])
    rows_slack = np.hstack([-np.eye(k), np.ones((k, 1))])
    a_ub = np.vstack([rows_fit, rows_slack])
    b_ub = np.concatenate([b_fit, np.zeros(k)])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0.0, None)] * k + [(None, None)],
        method="highs",
        options=options,
    )
    if not res.success:
        return -np.inf
    return float(res.x[-1])


def lp_gqf_certificate(verts: np.ndarray, y: np.ndarray, options=None) -> GqfCertificate:
    """The certificate for y over the hull of ``verts``: generalized
    quadratic when the largest least coefficient clears RI_SLACK by the fit
    tolerance, with scipy's null space of the vertex differences."""
    if verts.shape[0] == 1:
        return GqfCertificate(True, np.eye(verts.shape[1]))
    _, resid = _hull_fit(verts, y, options)
    fit_tol = max(resid, SUBGRADIENT_TOL)
    slack = _hull_interior_slack(verts, y, fit_tol, options)
    if slack < RI_SLACK + fit_tol:
        return GqfCertificate(False, None)
    return GqfCertificate(True, null_space(verts[1:] - verts[0]))
