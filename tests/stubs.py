"""Stub models for tests that need fixed, hand-set confidences."""

import numpy as np


class FixedProbaModel:
    """Stub model returning a fixed confidence for one (point, label) pair
    and spreading the remainder uniformly."""

    def __init__(self, table, num_classes):
        # table: {feature-bytes: {label: confidence}}
        self.table = table
        self.num_classes = num_classes

    def _probs(self, x):
        key = np.ascontiguousarray(x, dtype=np.float64).tobytes()
        probs = np.full(self.num_classes, 1.0 / self.num_classes)
        for label, conf in self.table.get(key, {}).items():
            rest = (1.0 - conf) / (self.num_classes - 1)
            probs = np.full(self.num_classes, rest)
            probs[label] = conf
        return probs

    def predict_proba(self, x):
        return self._probs(x)

    def predict_proba_batch(self, X):
        return np.stack([self._probs(row) for row in np.atleast_2d(X)])


def proba_key(x):
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()
