import csv

import numpy as np
import pytest

from fusionpose.errors import ContractError
from fusionpose.geometry import ROOT_INDEX, interpolation_matrix
from fusionpose.metrics import (MetricAccumulator, cd_metric, joint_errors_mm,
                                mpjpe, pck)

K = 21


def test_perfect_prediction():
    gt = np.random.default_rng(0).normal(size=(K, 3))
    assert pck(gt, gt) == 100.0
    assert mpjpe(gt, gt) == 0.0


def test_single_joint_200mm_error():
    gt = np.random.default_rng(1).normal(size=(K, 3))
    pred = gt.copy()
    joint = 5
    assert joint != ROOT_INDEX
    pred[joint, 0] += 0.200
    assert pck(pred, gt) == pytest.approx(100.0 * 20 / 21)
    assert mpjpe(pred, gt) == pytest.approx(200.0 / 21)


def test_uniform_offset_scores_perfectly():
    gt = np.random.default_rng(2).normal(size=(K, 3))
    pred = gt + np.array([0.1, 0.1, 0.1])
    assert pck(pred, gt) == 100.0
    assert mpjpe(pred, gt) == pytest.approx(0.0, abs=1e-9)


def test_metrics_invariant_under_joint_rigid_translation():
    rng = np.random.default_rng(3)
    gt = rng.normal(size=(K, 3))
    pred = gt + rng.normal(0, 0.05, size=(K, 3))
    shift = np.array([2.0, -1.0, 0.5])
    assert pck(pred, gt) == pck(pred + shift, gt + shift)
    assert mpjpe(pred, gt) == pytest.approx(
        mpjpe(pred + shift, gt + shift), rel=1e-12)


def test_shape_mismatch_raises_contract_error():
    with pytest.raises(ContractError):
        joint_errors_mm(np.zeros((K, 3)), np.zeros((K - 1, 3)))


def test_cd_metric_zero_on_skeleton_cloud():
    rng = np.random.default_rng(4)
    pose = rng.normal(size=(K, 3))
    cloud = interpolation_matrix(3) @ pose
    assert cd_metric(pose, cloud, 3) == pytest.approx(0.0, abs=1e-9)


def test_cd_metric_known_offset():
    pose = np.zeros((K, 3))
    # a cloud at constant distance d from its nearest augmented point
    cloud = np.full((10, 3), 0.0)
    cloud[:, 0] = 0.05
    # every joint at origin: nearest distance is 0.05 m both ways
    got = cd_metric(pose, cloud, 0)
    assert got == pytest.approx(50.0)  # mm


def test_cd_metric_squared_variant():
    pose = np.zeros((K, 3))
    cloud = np.full((4, 3), 0.0)
    cloud[:, 0] = 0.1
    unsq = cd_metric(pose, cloud, 0, squared=False)
    sq = cd_metric(pose, cloud, 0, squared=True)
    assert unsq == pytest.approx(100.0)
    assert sq == pytest.approx(1e4)  # mm^2


def test_accumulator_report_and_csv(tmp_path):
    rng = np.random.default_rng(5)
    acc = MetricAccumulator()
    for _ in range(6):
        gt = rng.normal(size=(K, 3))
        pred = gt + rng.normal(0, 0.03, size=(K, 3))
        acc.add(pred, gt, cloud=rng.normal(size=(40, 3)))
    report = acc.report("val")
    assert report.n_samples == 6
    assert 0.0 <= report.pck <= 100.0
    assert report.mpjpe_mm >= 0.0 and report.cd_mm >= 0.0
    assert len(report.per_joint_pck) == K

    out = tmp_path / "metrics.csv"
    report.write_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["split", "pck", "mpjpe_mm", "cd_mm", "n_samples"]
    assert rows[1][0] == "val"
    assert len(rows) == 2 + K  # aggregate + per-joint rows
    assert rows[2][0] == "val/joint/nose"
    assert float(rows[1][1]) == pytest.approx(report.pck)
