import numpy as np
import pytest

from boostlab.model import ClassifierModel


@pytest.fixture
def toy_model():
    """Fixed 1-feature, 1-hidden, 2-class net with hand-checkable weights."""
    # weights_hidden [[2.0]], bias_hidden [0.5], weights_out [[1.5], [-0.5]], bias_out [0.1, -0.2]
    return ClassifierModel(np.array([2.0, 0.5, 1.5, -0.5, 0.1, -0.2]), 1, 1, 2)


@pytest.fixture
def zero_model():
    """All parameters zero: constant logits regardless of input."""
    return ClassifierModel(np.zeros(3 * 2 + 3 + 2 * 3 + 2), 2, 3, 2)
