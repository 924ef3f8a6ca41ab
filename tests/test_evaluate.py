import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aistrack.errors import UnknownObjectId
from aistrack.evaluate import (
    ConfusionMatrix,
    confusion,
    macro_averages,
    metrics,
    report_dict,
    report_text,
    write_report,
)
from aistrack.ingest import NEW_TRACK


def _assignments(pairs):
    return [(oid, pred) for oid, pred in pairs]


class TestConfusion:
    def test_all_correct_is_diagonal(self):
        truth = {1: "a", 2: "b", 3: "c"}
        cm = confusion(_assignments([(1, "a"), (2, "b"), (3, "c")]), truth)
        np.testing.assert_array_equal(cm.counts, np.eye(3, dtype=int))

    def test_single_wrong_decision(self):
        cm = confusion([(1, "b")], {1: "a", 2: "b"})
        assert cm.total == 1
        i, j = cm.labels.index("a"), cm.labels.index("b")
        assert cm.counts[i, j] == 1

    def test_total_matches_decision_count(self):
        truth = {i: f"v{i % 5}" for i in range(540)}
        decisions = [(i, f"v{(i + 1) % 5}") for i in range(540)]
        cm = confusion(decisions, truth)
        assert cm.total == 540

    def test_unknown_object_id(self):
        with pytest.raises(UnknownObjectId):
            confusion([(99, "a")], {1: "a"})

    def test_new_track_gets_own_column(self):
        cm = confusion([(1, "NEW"), (2, "a")], {1: "a", 2: "a"})
        assert "NEW" in cm.labels
        row_a = cm.labels.index("a")
        assert cm.counts[row_a, cm.labels.index("NEW")] == 1


def _scalar_metrics(cm):
    """The reference: one label at a time, in Python ints and floats."""

    def safe_div(num, den):
        return num / den if den else 0.0

    total = cm.total
    out = []
    for i, label in enumerate(cm.labels):
        tp = int(cm.counts[i, i])
        fp = int(cm.counts[:, i].sum()) - tp
        fn = int(cm.counts[i, :].sum()) - tp
        tn = total - tp - fp - fn
        precision = safe_div(tp, tp + fp)
        recall = safe_div(tp, tp + fn)
        accuracy = safe_div(tp + tn, total)
        f1 = safe_div(2 * precision * recall, precision + recall)
        out.append({"vessel_id": label, "tp": tp, "fp": fp, "fn": fn, "tn": tn,
                    "precision": precision, "recall": recall, "accuracy": accuracy, "f1": f1})
    return out


@st.composite
def confusion_matrices(draw):
    """Square count matrices with some rows and columns left empty; the
    last label may be a predicted-only NEW column, whose row is empty."""
    n = draw(st.integers(0, 6))
    counts = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 2, 7, 1000]) | st.integers(0, 2**20),
                                    min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
    counts[[i for i in draw(st.sets(st.integers(0, 5))) if i < n], :] = 0
    counts[:, [i for i in draw(st.sets(st.integers(0, 5))) if i < n]] = 0
    labels = [f"v{i}" for i in range(n)]
    if n and draw(st.booleans()):
        labels[-1] = NEW_TRACK
        counts[-1, :] = 0
    return ConfusionMatrix(labels=labels, counts=counts)


@given(confusion_matrices())
@example(ConfusionMatrix(labels=[], counts=np.zeros((0, 0), dtype=np.int64)))
@example(ConfusionMatrix(labels=["a", "b", "c"], counts=np.zeros((3, 3), dtype=np.int64)))
@example(ConfusionMatrix(labels=["a", "b", NEW_TRACK], counts=np.array([[3, 1, 2], [0, 0, 0], [0, 0, 0]])))
@example(ConfusionMatrix(labels=["a", "b", "c"], counts=np.array([[89, 0, 11], [0, 0, 0], [7, 0, 100]])))
@settings(max_examples=300, deadline=None)
def test_metrics_equal_scalar_reference(cm):
    got, want = metrics(cm), _scalar_metrics(cm)
    assert got == want
    # as report.json writes them: ints stay ints, and -0.0 or a NaN would show
    assert json.dumps(got) == json.dumps(want)


class TestMetrics:
    def test_perfect_class(self):
        cm = ConfusionMatrix(labels=["a", "b"], counts=np.array([[5, 0], [0, 10]]))
        m = {v["vessel_id"]: v for v in metrics(cm)}
        assert (m["a"]["tp"], m["a"]["fp"], m["a"]["fn"], m["a"]["tn"]) == (5, 0, 0, 10)
        assert m["a"]["precision"] == m["a"]["recall"] == m["a"]["f1"] == m["a"]["accuracy"] == 1.0

    def test_f1_from_precision_and_recall(self):
        # precision 1.000, recall 0.890 -> f1 = 2*0.89/1.89 = 0.941799
        counts = np.array([[89, 11], [0, 100]])
        m = metrics(ConfusionMatrix(labels=["a", "b"], counts=counts))[0]
        assert m["precision"] == 1.0
        assert m["recall"] == pytest.approx(0.89)
        assert m["f1"] == pytest.approx(2 * 1.0 * 0.89 / 1.89, abs=1e-9)
        assert m["f1"] == pytest.approx(0.9418, abs=5e-5)

    def test_empty_matrix(self):
        cm = ConfusionMatrix(labels=[], counts=np.zeros((0, 0), dtype=int))
        assert metrics(cm) == []

    def test_zero_over_zero_is_zero(self):
        cm = ConfusionMatrix(labels=["a", "b"], counts=np.array([[0, 0], [0, 5]]))
        m = metrics(cm)[0]
        assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0

    def test_tp_sum_equals_trace(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 20, size=(4, 4))
        cm = ConfusionMatrix(labels=list("abcd"), counts=counts)
        assert sum(m["tp"] for m in metrics(cm)) == np.trace(counts)

    def test_accuracy_definition(self):
        counts = np.array([[3, 2], [1, 4]])
        cm = ConfusionMatrix(labels=["a", "b"], counts=counts)
        m = metrics(cm)[0]
        assert m["accuracy"] == (m["tp"] + m["tn"]) / cm.total

    def test_label_permutation_invariance(self):
        counts = np.array([[3, 2, 0], [1, 4, 1], [0, 0, 9]])
        cm1 = ConfusionMatrix(labels=["a", "b", "c"], counts=counts)
        perm = [2, 0, 1]
        cm2 = ConfusionMatrix(
            labels=[cm1.labels[i] for i in perm], counts=counts[np.ix_(perm, perm)]
        )
        m1 = {m["vessel_id"]: m for m in metrics(cm1)}
        m2 = {m["vessel_id"]: m for m in metrics(cm2)}
        for label in "abc":
            assert m1[label] == m2[label]


class TestReport:
    def test_macro_f1_is_unweighted_mean(self):
        cm = ConfusionMatrix(labels=["a", "b"], counts=np.array([[5, 0], [2, 3]]))
        per_vessel = metrics(cm)
        macro = macro_averages(per_vessel)
        assert macro["f1"] == pytest.approx(np.mean([m["f1"] for m in per_vessel]))

    def test_write_then_reread_identical(self, tmp_path):
        cm = confusion([(1, "a"), (2, "b"), (3, "a")], {1: "a", 2: "b", 3: "b"})
        per_vessel = metrics(cm)
        path = tmp_path / "report.json"
        write_report(cm, per_vessel, path, meta={"seed": 1})
        doc = json.loads(path.read_text())
        assert doc == report_dict(cm, per_vessel, {"seed": 1})
        assert path.with_suffix(".txt").read_text() == report_text(cm, per_vessel)

    def test_five_vessel_report_has_five_rows(self):
        truth = {i: f"v{i % 5}" for i in range(25)}
        cm = confusion([(i, truth[i]) for i in range(25)], truth)
        assert len(metrics(cm)) == 5
        assert len(report_text(cm, metrics(cm)).splitlines()) == 7  # header + 5 + macro
