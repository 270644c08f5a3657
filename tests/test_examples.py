"""Smoke tests: every shipped example runs end-to-end at reduced size."""

import sys
from pathlib import Path

import numpy as np
import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
sys.path.insert(0, str(EXAMPLES))


def test_quickstart_runs(capsys):
    import quickstart
    quickstart.run(24)
    out = capsys.readouterr().out
    assert "GCRO-DR(30,10)" in out
    assert "sum" in out


def test_poisson_heat_sequence_runs(capsys):
    import poisson_heat_sequence
    poisson_heat_sequence.run(32)
    out = capsys.readouterr().out
    assert "recycling gain" in out
    assert "FGCRO-DR" in out


def test_elasticity_inclusions_runs(capsys):
    import elasticity_inclusions
    elasticity_inclusions.run(5)
    out = capsys.readouterr().out
    assert "GCRO-DR vs LGMRES" in out
    assert "rejected" in out     # the variable-preconditioner guard fired


def test_service_batching_runs(capsys):
    import service_batching
    service_batching.run(16)
    out = capsys.readouterr().out
    assert "32 requests" in out
    assert "setup built 2x for 2 operators" in out
    assert "solo" in out
    assert "async replay (mode=async, shards=2" in out
    assert "deadline misses 0/32" in out
    assert "makespan" in out


@pytest.mark.slow
def test_maxwell_imaging_runs(capsys):
    import maxwell_imaging
    maxwell_imaging.run(5, 4)
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "BGMRES" in out


def test_ex32_cli_runs(capsys):
    import ex32_cli
    ex32_cli.main("-hpddm_krylov_method gcrodr -hpddm_recycle 5 "
                  "-hpddm_gmres_restart 20 -hpddm_recycle_same_system "
                  "-ksp_rtol 1.0e-6 -da_grid_x 24".split())
    out = capsys.readouterr().out
    assert "Reference (GMRES)" in out
    assert "HPDDM-style (GCRODR)" in out


def test_ex32_cli_pc_types(capsys):
    import ex32_cli
    for pc in ("jacobi", "none"):
        ex32_cli.main(f"-hpddm_krylov_method gcrodr -hpddm_recycle 5 "
                      f"-ksp_rtol 1.0e-5 -da_grid_x 16 -pc_type {pc}".split())
    out = capsys.readouterr().out
    assert out.count("HPDDM-style") == 2


def test_ex32_cli_rejects_unknown_pc():
    import ex32_cli
    with pytest.raises(SystemExit):
        ex32_cli.main(["-pc_type", "ilu"])


def test_frequency_sweep_runs(capsys):
    import frequency_sweep
    frequency_sweep.run(4, 4)
    out = capsys.readouterr().out
    assert "Maxwell frequency sweep" in out
    assert "speedup (family vs sequential)" in out
    assert "converged True" in out
    assert "converged False" not in out


def test_cost_model_scaling_runs(capsys):
    import cost_model_scaling
    events = cost_model_scaling.run(300)
    out = capsys.readouterr().out
    assert "reductions" in out
    assert "modeled time" in out
    # the counts a row-partitioned operator charges at n = 300 over 8
    # virtual ranks: reductions, halo messages / bytes, total flops and
    # operator-apply columns, exactly (each product is charged once)
    counts = {label: (led.reductions, led.p2p_messages, led.p2p_bytes,
                      led.total_flops(), led.calls["operator_apply"])
              for label, (_, led) in events.items()}
    assert counts == {"GMRES(30)": (176, 1232, 9856, 1728873.0, 88),
                      "GCRO-DR(30,10)": (188, 1204, 9632,
                                         7259394.666666667, 86)}
