"""The package's records: plain immutable classes, no generated code."""
import copy
import json
import pickle
import subprocess
import sys

import numpy as np
import pytest

from specvar import (
    EigGapMax,
    McpSum,
    OrderStat,
    QuotientProbe,
    SmoothSep,
    eig,
    numeric_second_subderivative,
    spectral_prox,
    spectral_second_subderivative,
    spectral_subgradient,
)
from specvar.cli import LoadedMatrix
from specvar.extreal import POS_INF, ExtReal
from specvar.oracle import AttainmentLevel, AttainmentResult, NumericProxResult
from specvar.perturb import _rotate
from specvar.spectral import ProxDirectional, lifted
from specvar.symfun import GqfCertificate, ProxResult, SubgradientSet
from specvar.symmat import SymMatrix
from specvar.verify import CheckResult

X = np.diag([3.0, 2.0, 2.0])
H = np.array([[0.3, 1.0, 0.0], [1.0, -0.2, 0.5], [0.0, 0.5, 0.1]])


def every_record():
    """One instance of each of the package's 23 record classes."""
    theta = OrderStat(1)
    es = eig(X)
    triple = spectral_subgradient(theta, es)
    probed = numeric_second_subderivative(
        lifted(theta), X, triple.matrix.entries, H, QuotientProbe(samples=2)
    )
    level = AttainmentLevel(t=0.1, point=np.zeros(2), quotient=1.0, distance=0.0)
    return [
        ExtReal(1.5),
        es.matrix,
        es,
        _rotate(es, H),
        QuotientProbe(),
        probed.levels[0],
        probed,
        level,
        AttainmentResult(target=1.0, levels=(level,), success=True),
        NumericProxResult(point=np.zeros(2), objective=0.0),
        SubgradientSet(kind="point", point=np.zeros(2)),
        GqfCertificate(True, np.eye(2)),
        ProxResult(point=np.zeros(2), closed_form=True),
        theta,
        EigGapMax(),
        McpSum(a=2.0, c=1.0),
        SmoothSep(),
        triple,
        spectral_second_subderivative(theta, es, triple, H),
        spectral_prox(theta, 0.5, es),
        ProxDirectional(np.zeros((2, 2)), True, (), ()),
        CheckResult("name", True, "detail"),
        LoadedMatrix(raw=[1.0], matrix=SymMatrix([[1.0]]), asymmetry=0.0),
    ]


def test_no_generated_code_at_import_or_in_a_job(tmp_path):
    # dataclass decoration compiled generated methods for 23 records at
    # every import, about 15 ms of each CLI job's start-up
    for name, rows in (("x", X), ("h", H)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"entries": rows.tolist()}))
    code = (
        "import sys\n"
        "import specvar.cli\n"
        "code = specvar.cli.main(sys.argv[1:])\n"
        "sys.exit(code or ('dataclasses imported' if 'dataclasses' in sys.modules else 0))\n"
    )
    argv = ["--command", "SSUB", "--matrix", str(tmp_path / "x.json"),
            "--direction", str(tmp_path / "h.json"), "--theta", '{"name":"order_stat","i":1}',
            "--probe-samples", "4", "--out", str(tmp_path / "out.json")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_records_are_immutable():
    records = every_record()
    assert len({type(r) for r in records}) == 23
    for r in records:
        fields = type(r)._fields
        assert fields or isinstance(r, EigGapMax), type(r)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = None
    # records without a cached property keep no instance dict
    with_dict = {"EigenSystem", "SubgradientTriple", "ProbeResult"}
    assert {type(r).__name__ for r in records if hasattr(r, "__dict__")} == with_dict


def test_penalties_and_probes_compare_by_value():
    assert OrderStat(2) == OrderStat(rank=2) and hash(OrderStat(2)) == hash(OrderStat(rank=2))
    assert OrderStat(2) != OrderStat(1) and OrderStat(1) != McpSum(a=2.0, c=1.0)
    assert McpSum(2, 1) == McpSum(a=2.0, c=1.0) and SmoothSep() == SmoothSep(coeff=1)
    assert EigGapMax() == EigGapMax() and len({EigGapMax(), EigGapMax()}) == 1
    assert QuotientProbe() == QuotientProbe(seed=0) and QuotientProbe() != QuotientProbe(seed=1)
    assert hash(QuotientProbe()) == hash(QuotientProbe(seed=0))
    assert repr(OrderStat(2)) == "OrderStat(rank=2)" and repr(EigGapMax()) == "EigGapMax()"
    # the reports' frozen hash reads ExtReal's repr
    assert repr(ExtReal(1.5)) == "ExtReal(1.5)" and repr(POS_INF) == "ExtReal(+inf)"
    # records holding arrays compare by identity
    es = eig(X)
    assert es == es and es != eig(X)


def test_records_survive_copy_and_pickle():
    for r in every_record():  # the ProbeResult's levels are read, so it holds no closure
        for twin in (copy.copy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r) and repr(twin) == repr(r), type(r)
    assert pickle.loads(pickle.dumps(McpSum(a=2.0, c=1.0))) == McpSum(a=2.0, c=1.0)
