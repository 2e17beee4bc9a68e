import numpy as np
import pytest

from iotfed.detect import (
    DEFAULT_KS,
    DetectionReport,
    EmptyValidation,
    Threshold,
    calibrate_threshold,
    classify_window,
    f1_score,
    score,
    select_optimal_k,
)
from iotfed.harness import report_csv
from iotfed.nodes import R1


class TestCalibration:
    def test_reference_row_recovered_from_mean_and_std(self):
        # mean/std implied by the row 0.0342, 0.0429, 0.0516, 0.0603
        mean, std = 0.0255, 0.0087
        losses = [mean - std, mean + std]  # population stats hit exactly
        for k, expected in zip((1, 2, 3, 4), (0.0342, 0.0429, 0.0516, 0.0603)):
            t = calibrate_threshold(losses, k)
            assert t.value == pytest.approx(expected, abs=1e-12)

    def test_constant_losses(self):
        for k in DEFAULT_KS:
            assert calibrate_threshold([0.7, 0.7, 0.7], k).value == pytest.approx(0.7)

    def test_two_point_oracle(self):
        t = calibrate_threshold([0.01, 0.03], 2.0)
        assert t.mean == pytest.approx(0.02)
        assert t.std == pytest.approx(0.01)  # population std
        assert t.value == pytest.approx(0.04)

    def test_linearity_in_k(self):
        losses = np.random.default_rng(0).uniform(0.0, 0.2, size=50)
        t1 = calibrate_threshold(losses, 1.0)
        t3 = calibrate_threshold(losses, 3.0)
        assert t3.value - t1.value == pytest.approx(2.0 * t1.std)

    def test_empty_and_negative_rejected(self):
        with pytest.raises(EmptyValidation):
            calibrate_threshold([], 1.0)
        with pytest.raises(ValueError):
            calibrate_threshold([0.1, -0.2], 1.0)


class TestClassification:
    def test_strict_inequality(self):
        t = Threshold(mean=0.1, std=0.05, k=2.0)
        assert not classify_window(t.value, t)        # equality is normal
        assert classify_window(t.value + 1e-9, t)     # any excess is anomalous
        assert not classify_window(0.0, t)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            classify_window(-0.1, Threshold(0.1, 0.05, 1.0))


class TestScore:
    def test_confusion_counts_and_metrics(self):
        verdicts = [True, True, False, False, True]
        truths = [True, False, True, False, True]
        rep = score(verdicts, truths)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 1, 1, 1)
        assert rep.accuracy == pytest.approx(3 / 5)
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(2 / 3)
        assert rep.f1 == pytest.approx(2 / 3)
        assert rep.false_positive_rate == pytest.approx(1 / 2)

    def test_f1_identity(self):
        rep = score([True, False, True], [True, True, False])
        assert rep.f1 == pytest.approx(f1_score(rep.precision, rep.recall))

    def test_degenerate_precision(self):
        rep = score([False, False], [True, False])
        assert rep.degenerate_precision
        assert rep.precision == 0.0

    def test_degenerate_recall(self):
        rep = score([True, False], [False, False])
        assert rep.degenerate_recall
        assert rep.recall == 0.0
        assert rep.false_positive_rate == pytest.approx(0.5)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            score([True], [True, False])


class TestOptimalK:
    def _reports(self, f1_by_k):
        out = {}
        for k, f1 in f1_by_k.items():
            out[k] = DetectionReport(1, 1, 0, 0, 1.0, 1.0, 1.0, f1)
        return out

    def test_reference_f1_column_selects_k4(self):
        reports = self._reports({1: 0.6069, 2: 0.7875, 3: 0.8740, 4: 0.8963})
        assert select_optimal_k(reports) == 4

    def test_ties_break_toward_larger_k(self):
        reports = self._reports({1: 0.8, 2: 0.8, 3: 0.5})
        assert select_optimal_k(reports) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_optimal_k({})


class TestReportCsv:
    def test_layout(self):
        rep = score([True, False], [True, False])
        text = report_csv([(R1, 2.0, rep)])
        lines = text.strip().split("\n")
        assert lines[0] == "device,k,accuracy,precision,recall,f1"
        assert lines[1].startswith("R1,2,1.0000,")


class TestNonFiniteLosses:
    # A diverged model's NaN loss would make every threshold NaN, and no loss
    # exceeds NaN: detection would report no attack on any window.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_calibration_refuses_and_names_them(self, bad):
        with pytest.raises(ValueError, match=rf"must be finite: 1 of 3 are not, "
                                             rf"the first {bad} at index 1"):
            calibrate_threshold([0.1, bad, 0.2], 2.0)

    def test_calibration_counts_every_one(self):
        with pytest.raises(ValueError, match="2 of 3 are not, the first nan at index 0"):
            calibrate_threshold(np.array([np.nan, 0.1, np.inf], dtype=np.float32), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float32("nan")])
    def test_classification_refuses_and_names_it(self, bad):
        with pytest.raises(ValueError, match=f"loss must be finite, not {float(bad)}"):
            classify_window(bad, Threshold(0.1, 0.05, 2.0))
