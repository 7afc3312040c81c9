import logging

import numpy as np
import pytest

from milab.datagen import Dataset

# Below-resolution FPR warnings are expected behavior at test scale; the
# corresponding report.notes fields are asserted directly where relevant.
logging.getLogger("milab.metrics").setLevel(logging.ERROR)


@pytest.fixture
def xor_dataset():
    return Dataset(
        np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
        np.array([0, 1, 1, 0]),
        num_classes=2,
    )
