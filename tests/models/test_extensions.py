"""Extension features: graph-free baseline, scheduled sampling."""

import numpy as np
import pytest

from repro.models import create_model
from repro.nn import Tensor, no_grad


@pytest.fixture(scope="module")
def data(ci_dataset):
    x = Tensor(ci_dataset.supervised.train.x[:3])
    y_scaled = Tensor(ci_dataset.supervised.scaler.transform(
        ci_dataset.supervised.train.y[:3]))
    return ci_dataset, x, y_scaled


class TestGRUSeq2Seq:
    def test_no_cross_node_information_flow(self, data):
        """The defining property: perturbing node j never changes node i."""
        ds, x, _ = data
        model = create_model("gru-seq2seq", ds.num_nodes, ds.adjacency, seed=0)
        with no_grad():
            model.eval()
            base = model(x).data
            bumped = Tensor(np.array(x.data))
            bumped.data[:, :, 0, 0] += 5.0        # perturb node 0 only
            out = model(bumped).data
        assert np.abs(out[:, :, 0] - base[:, :, 0]).max() > 1e-6
        np.testing.assert_allclose(out[:, :, 1:], base[:, :, 1:], atol=1e-12)

    def test_graph_models_do_flow_information(self, data):
        """Contrast: a graph model propagates the same perturbation."""
        ds, x, _ = data
        model = create_model("dcrnn", ds.num_nodes, ds.adjacency, seed=0)
        # pick a node connected to node 0
        neighbours = np.where(
            (ds.adjacency[0] > 0) & (np.arange(ds.num_nodes) != 0))[0]
        if len(neighbours) == 0:
            pytest.skip("node 0 has no neighbours in this world")
        with no_grad():
            model.eval()
            base = model(x).data
            bumped = Tensor(np.array(x.data))
            bumped.data[:, :, 0, 0] += 5.0
            out = model(bumped).data
        assert np.abs(out[:, :, neighbours[0]] - base[:, :, neighbours[0]]).max() > 1e-9


class TestScheduledSampling:
    @pytest.mark.parametrize("decay", [0.0, -1.0])
    def test_nonpositive_decay_rejected(self, decay, small_adjacency):
        with pytest.raises(ValueError, match="scheduled_sampling_decay"):
            create_model("dcrnn", small_adjacency.shape[0], small_adjacency,
                         scheduled_sampling_decay=decay)

    def test_probability_decays(self, data):
        ds, x, y = data
        model = create_model("dcrnn", ds.num_nodes, ds.adjacency, seed=0,
                             scheduled_sampling_decay=10.0)
        initial = model._teacher_probability()
        assert initial > 0.4
        for _ in range(5):
            model.training_loss(x, y)
        later = model._teacher_probability()
        assert later < initial

    def test_probability_goes_to_zero(self, data):
        ds, _, _ = data
        model = create_model("dcrnn", ds.num_nodes, ds.adjacency, seed=0,
                             scheduled_sampling_decay=5.0)
        model._global_step = 10_000
        assert model._teacher_probability() < 1e-3

    def test_fixed_ratio_when_disabled(self, data):
        ds, x, y = data
        model = create_model("dcrnn", ds.num_nodes, ds.adjacency, seed=0,
                             tf_ratio=0.3)
        model.training_loss(x, y)
        assert model._teacher_probability() == 0.3

    def test_no_overflow_at_huge_step(self, data):
        ds, _, _ = data
        model = create_model("dcrnn", ds.num_nodes, ds.adjacency, seed=0,
                             scheduled_sampling_decay=1.0)
        model._global_step = 10 ** 9
        probability = model._teacher_probability()
        assert 0.0 <= probability < 1e-6
