"""Threshold calibration, per-window verdicts and classification metrics.

Thresholds are mean + k * std of validation reconstruction losses
(population std); a window is anomalous iff its loss strictly exceeds
the threshold value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

DEFAULT_KS = (1.0, 2.0, 3.0, 4.0)


class EmptyValidation(ValueError):
    """Threshold calibration over an empty loss sequence."""


@dataclass(frozen=True)
class Threshold:
    mean: float
    std: float
    k: float

    @property
    def value(self) -> float:
        return self.mean + self.k * self.std


def calibrate_threshold(validation_losses: Sequence[float], k: float) -> Threshold:
    """Threshold from validation losses: arithmetic mean + k * population std."""
    losses = np.asarray(validation_losses, dtype=float)
    if losses.size == 0:
        raise EmptyValidation("no validation losses")
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        # A diverged model's NaN would make every threshold NaN, and no window
        # exceeds NaN: detection would silently switch off.
        raise ValueError(f"reconstruction losses must be finite: {bad.size} of {losses.size} "
                         f"are not, the first {losses[bad[0]]} at index {bad[0]}")
    if np.any(losses < 0):
        raise ValueError("reconstruction losses must be nonnegative")
    return Threshold(float(losses.mean()), float(losses.std()), k)


def classify_window(loss: float, threshold: Threshold) -> bool:
    """True (anomaly) iff the loss strictly exceeds the threshold value."""
    if not math.isfinite(loss):
        raise ValueError(f"loss must be finite, not {float(loss)}")
    if loss < 0:
        raise ValueError("loss must be nonnegative")
    return loss > threshold.value


@dataclass(frozen=True)
class DetectionReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate_precision: bool = False
    degenerate_recall: bool = False

    @property
    def false_positive_rate(self) -> float:
        negatives = self.fp + self.tn
        return self.fp / negatives if negatives else 0.0


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score(verdicts: Sequence[bool], truths: Sequence[bool]) -> DetectionReport:
    """Confusion counts and the four metrics for aligned verdict/truth series.

    Zero-denominator precision or recall is reported as 0 with the
    matching degeneracy flag set, so every metric is a finite number.
    """
    if len(verdicts) != len(truths):
        raise ValueError("verdicts and truths must align window-for-window")
    tp = sum(1 for v, t in zip(verdicts, truths) if v and t)
    tn = sum(1 for v, t in zip(verdicts, truths) if not v and not t)
    fp = sum(1 for v, t in zip(verdicts, truths) if v and not t)
    fn = sum(1 for v, t in zip(verdicts, truths) if not v and t)
    total = tp + tn + fp + fn
    accuracy = (tp + tn) / total if total else 0.0
    degenerate_p = (tp + fp) == 0
    degenerate_r = (tp + fn) == 0
    precision = 0.0 if degenerate_p else tp / (tp + fp)
    recall = 0.0 if degenerate_r else tp / (tp + fn)
    return DetectionReport(tp, tn, fp, fn, accuracy, precision, recall,
                           f1_score(precision, recall),
                           degenerate_precision=degenerate_p,
                           degenerate_recall=degenerate_r)


def select_optimal_k(reports: Mapping[float, DetectionReport]) -> float:
    """The k maximizing F1; ties break toward larger k (fewer false positives)."""
    if not reports:
        raise ValueError("no reports to select from")
    return max(sorted(reports), key=lambda k: (reports[k].f1, k))

