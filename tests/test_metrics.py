from typing import NamedTuple

import numpy as np
import pytest

from wcnn import metrics as X


class Outcome(NamedTuple):
    """Predicted and true label sets of one image."""

    predicted: set
    truth: set


def matrices(outcomes, num_classes):
    """The boolean [images, classes] (predicted, truth) matrices of the outcomes."""
    predicted = np.zeros((len(outcomes), num_classes), dtype=bool)
    truth = np.zeros((len(outcomes), num_classes), dtype=bool)
    for i, o in enumerate(outcomes):
        predicted[i, list(o.predicted)] = True
        truth[i, list(o.truth)] = True
    return predicted, truth


def brute_force_bundle(outcomes, num_classes):
    """Independent TP/FP/FN counter; averages written out longhand."""
    per_class = []
    tp_all = fp_all = fn_all = 0
    for c in range(num_classes):
        tp = fp = fn = 0
        for o in outcomes:
            in_pred, in_true = c in o.predicted, c in o.truth
            if in_pred and in_true:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_true:
                fn += 1
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        if tp + fp + fn > 0:
            p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
            r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
            per_class.append((p, r))
    if per_class:
        cp = sum(p for p, _ in per_class) / len(per_class)
        cr = sum(r for _, r in per_class) / len(per_class)
    else:
        cp = cr = 0.0
    op = 100.0 * tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    orr = 100.0 * tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    f1 = lambda p, r: 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return {"C-P": cp, "C-R": cr, "C-F1": f1(cp, cr),
            "O-P": op, "O-R": orr, "O-F1": f1(op, orr)}


def test_accuracy():
    assert X.accuracy([1, 2, 3], [1, 2, 3]) == 100.0
    assert X.accuracy([1, 2, 3], [3, 1, 2]) == 0.0
    assert X.accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 75.0
    with pytest.raises(ValueError):
        X.accuracy([], [])
    with pytest.raises(ValueError):
        X.accuracy([1], [1, 2])


def test_bundle_perfect():
    outcomes = [Outcome({0, 2}, {0, 2}), Outcome({1}, {1})]
    bundle = X.multilabel_bundle(*matrices(outcomes, 3))
    assert all(v == 100.0 for v in bundle.values())


def test_bundle_hand_example():
    # one image, predicted {0}, truth {0, 1}: TP=1 FP=0 FN=1
    bundle = X.multilabel_bundle(*matrices([Outcome({0}, {0, 1})], 2))
    assert round(bundle["O-P"], 2) == 100.0
    assert round(bundle["O-R"], 2) == 50.0
    assert round(bundle["O-F1"], 2) == 66.67


def test_bundle_empty_predictions():
    outcomes = [Outcome(set(), {0}), Outcome(set(), {1})]
    bundle = X.multilabel_bundle(*matrices(outcomes, 2))
    assert bundle["O-P"] == 0.0
    assert bundle["O-R"] == 0.0
    assert bundle["O-F1"] == 0.0


def test_bundle_shape_mismatch():
    predicted, truth = matrices([Outcome({1}, {0})], 2)
    with pytest.raises(ValueError):
        X.multilabel_bundle(predicted, truth[:, :1])
    with pytest.raises(ValueError):
        X.multilabel_bundle(predicted[0], truth[0])


def random_outcomes(rng, n, num_classes):
    out = []
    for _ in range(n):
        pred = {int(c) for c in rng.integers(0, num_classes, size=rng.integers(0, 4))}
        true = {int(c) for c in rng.integers(0, num_classes, size=rng.integers(0, 4))}
        out.append(Outcome(pred, true))
    return out


def test_bundle_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(50):
        num_classes = int(rng.integers(1, 8))
        outcomes = random_outcomes(rng, int(rng.integers(1, 30)), num_classes)
        got = X.multilabel_bundle(*matrices(outcomes, num_classes))
        want = brute_force_bundle(outcomes, num_classes)
        for key in X.BUNDLE_KEYS:
            assert got[key] == pytest.approx(want[key], abs=1e-9), (trial, key)


def test_bundle_permutation_invariant():
    rng = np.random.default_rng(1)
    outcomes = random_outcomes(rng, 20, 5)
    a = X.multilabel_bundle(*matrices(outcomes, 5))
    b = X.multilabel_bundle(*matrices(outcomes[::-1], 5))
    assert a == b


def test_class_metrics_equal_overall_when_counts_identical():
    # both classes: TP=1, FP=1, FN=1
    outcomes = [
        Outcome({0, 1}, {0, 1}),   # TP for both
        Outcome({0, 1}, set()),    # FP for both
        Outcome(set(), {0, 1}),    # FN for both
    ]
    bundle = X.multilabel_bundle(*matrices(outcomes, 2))
    assert bundle["C-P"] == bundle["O-P"]
    assert bundle["C-R"] == bundle["O-R"]
    assert bundle["C-F1"] == bundle["O-F1"]


def test_overall_f1_is_harmonic_mean():
    rng = np.random.default_rng(2)
    outcomes = random_outcomes(rng, 40, 6)
    bundle = X.multilabel_bundle(*matrices(outcomes, 6))
    p, r = bundle["O-P"], bundle["O-R"]
    expect = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    assert bundle["O-F1"] == expect


def test_bundle_tsv_format():
    text = X.bundle_to_tsv(X.multilabel_bundle(*matrices([Outcome({0}, {0, 1})], 2)))
    lines = text.strip().splitlines()
    assert lines[1] == "C-P\tC-R\tC-F1\tO-P\tO-R\tO-F1"
    assert lines[2].split("\t")[3:] == ["100.00", "50.00", "66.67"]


def test_split_aggregate():
    assert X.split_aggregate([60, 64]) == (62.0, 2.0)
    mean, sd = X.split_aggregate([61.5])
    assert mean == 61.5 and sd is None
    # four-split fixture, checked longhand
    vals = [59.0, 62.0, 61.0, 58.0]
    mean, sd = X.split_aggregate(vals)
    assert mean == 60.0
    assert sd == pytest.approx(np.sqrt((1 + 4 + 1 + 4) / 4))
    assert X.format_mean_sd(mean, sd) == "60.0 ± 1.6"
    assert X.format_mean_sd(61.5, None) == "61.5 ± n/a"
    with pytest.raises(ValueError):
        X.split_aggregate([])
