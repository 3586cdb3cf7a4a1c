"""Contract tests shared by all registered models."""

import numpy as np
import pytest

from repro.models import (MODEL_REGISTRY, PAPER_MODELS, create_model,
                          model_names)
from repro.nn import Tensor, no_grad
from repro.nn.losses import masked_mae

ALL_MODELS = sorted(MODEL_REGISTRY)
TRAINABLE = [name for name in ALL_MODELS
             if name not in ("last-value", "historical-average")]
SEQ2SEQ = ["dcrnn", "st-metanet", "fc-lstm", "gru-seq2seq"]


@pytest.fixture(scope="module")
def setup(ci_dataset):
    x = Tensor(ci_dataset.supervised.train.x[:3])
    y_scaled = Tensor(ci_dataset.supervised.scaler.transform(
        ci_dataset.supervised.train.y[:3]))
    return ci_dataset, x, y_scaled


class TestRegistry:
    def test_all_paper_models_registered(self):
        for name in PAPER_MODELS:
            assert name in MODEL_REGISTRY

    def test_create_unknown_raises(self, small_adjacency):
        with pytest.raises(KeyError, match="unknown model"):
            create_model("transformer-xl", small_adjacency.shape[0],
                         small_adjacency)

    def test_name_normalisation(self, small_adjacency):
        model = create_model("Graph_WaveNet", small_adjacency.shape[0],
                             small_adjacency)
        assert model.name == "graph-wavenet"

    def test_duplicate_registration_rejected(self):
        from repro.models.base import register_model, TrafficModel
        with pytest.raises(ValueError):
            @register_model("stgcn")
            class Duplicate(TrafficModel):
                pass

    def test_model_names_lists_registry(self):
        assert set(model_names()) == set(MODEL_REGISTRY)


class TestConstruction:
    def test_adjacency_shape_checked(self, small_adjacency):
        with pytest.raises(ValueError, match="adjacency"):
            create_model("stgcn", 99, small_adjacency)

    @pytest.mark.parametrize("name", SEQ2SEQ)
    def test_tf_ratio_validated(self, name, small_adjacency):
        n = small_adjacency.shape[0]
        for bad in (2.5, -0.2, float("nan")):
            with pytest.raises(ValueError, match="tf_ratio"):
                create_model(name, n, small_adjacency, tf_ratio=bad)
        for edge in (0.0, 1.0):
            assert create_model(name, n, small_adjacency,
                                tf_ratio=edge).tf_ratio == edge

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_instantiation(self, name, setup):
        ds, _, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=1)
        assert model.num_nodes == ds.num_nodes

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_seed_determinism(self, name, setup):
        ds, x, _ = setup
        a = create_model(name, ds.num_nodes, ds.adjacency, seed=7)
        b = create_model(name, ds.num_nodes, ds.adjacency, seed=7)
        with no_grad():
            a.eval(), b.eval()
            np.testing.assert_array_equal(a(x).data, b(x).data)

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_different_seeds_differ(self, name, setup):
        ds, x, _ = setup
        a = create_model(name, ds.num_nodes, ds.adjacency, seed=1)
        b = create_model(name, ds.num_nodes, ds.adjacency, seed=2)
        with no_grad():
            a.eval(), b.eval()
            assert not np.array_equal(a(x).data, b(x).data)


class TestForwardContract:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_output_shape(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        with no_grad():
            model.eval()
            out = model(x)
        assert out.shape == (3, 12, ds.num_nodes)

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_output_finite(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        with no_grad():
            model.eval()
            assert np.isfinite(model(x).data).all()

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_input_validation(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 5, ds.num_nodes, 2))))   # wrong history
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 12, ds.num_nodes + 1, 2))))  # wrong N
        with pytest.raises(ValueError):
            model(Tensor(np.zeros((2, 12, ds.num_nodes))))     # wrong ndim

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_training_loss_validates_input(self, name, setup):
        """Both entry points reject a window the model was not built for."""
        ds, _, _ = setup
        n = ds.num_nodes
        model = create_model(name, n, ds.adjacency, seed=0)
        cases = [((2, 6, n, 2), (2, 12, n), "history mismatch"),
                 ((2, 12, n - 1, 2), (2, 12, n - 1), "node mismatch")]
        for x_shape, y_shape, message in cases:
            x, y = Tensor(np.zeros(x_shape)), Tensor(np.zeros(y_shape))
            with pytest.raises(ValueError, match=message):
                model(x)
            with pytest.raises(ValueError, match=message):
                model.training_loss(x, y)


class TestTrainingContract:
    @pytest.mark.parametrize("name", TRAINABLE)
    def test_all_parameters_receive_gradients(self, name, setup):
        ds, x, y_scaled = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        loss = model.training_loss(x, y_scaled)
        loss.backward()
        missing = [pname for pname, p in model.named_parameters()
                   if p.grad is None]
        assert missing == [], f"{name}: no gradient for {missing}"

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_loss_is_finite_scalar(self, name, setup):
        ds, x, y_scaled = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        loss = model.training_loss(x, y_scaled)
        assert loss.shape == ()
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_one_sgd_step_reduces_loss(self, name, setup):
        """A gradient step on the same batch should not increase the loss."""
        from repro.nn.optim import SGD
        ds, x, y_scaled = setup
        # Disable teacher forcing so both loss evaluations see the same
        # computation (otherwise the comparison is stochastic).
        hparams = {"tf_ratio": 0.0} if name in SEQ2SEQ else {}
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0,
                             **hparams)
        optimizer = SGD(model.parameters(), lr=1e-3)
        loss_before = model.training_loss(x, y_scaled)
        loss_before.backward()
        optimizer.step()
        model.zero_grad()
        loss_after = model.training_loss(x, y_scaled)
        assert loss_after.item() <= loss_before.item() + 1e-6

    @pytest.mark.parametrize("name", TRAINABLE)
    def test_num_parameters_positive(self, name, setup):
        ds, _, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        assert model.num_parameters() > 0


class TestSeq2SeqRollout:
    """The four seq2seq models share one teacher-forced rollout."""

    @pytest.mark.parametrize("name", SEQ2SEQ)
    def test_free_running_loss_matches_forward(self, name, setup):
        ds, x, y_scaled = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0,
                             tf_ratio=0.0)
        model.train()
        loss = model.training_loss(x, y_scaled).data
        expected = masked_mae(model(x), y_scaled, null_value=None).data
        np.testing.assert_array_equal(loss, expected)

    @pytest.mark.parametrize("name", SEQ2SEQ)
    def test_teacher_forcing_changes_loss(self, name, setup):
        ds, x, y_scaled = setup
        losses = [create_model(name, ds.num_nodes, ds.adjacency, seed=0,
                               tf_ratio=ratio).training_loss(x, y_scaled).item()
                  for ratio in (1.0, 0.0)]
        assert losses[0] != pytest.approx(losses[1])

    @pytest.mark.parametrize("name", SEQ2SEQ)
    def test_eval_forward_ignores_teacher_ratio(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0,
                             tf_ratio=1.0)
        with no_grad():
            model.eval()
            np.testing.assert_array_equal(model(x).data, model(x).data)


class TestStatePersistence:
    @pytest.mark.parametrize("name", TRAINABLE)
    def test_state_dict_roundtrip_preserves_predictions(self, name, setup):
        ds, x, _ = setup
        model = create_model(name, ds.num_nodes, ds.adjacency, seed=0)
        clone = create_model(name, ds.num_nodes, ds.adjacency, seed=99)
        clone.load_state_dict(model.state_dict())
        with no_grad():
            model.eval(), clone.eval()
            np.testing.assert_allclose(model(x).data, clone(x).data,
                                       atol=1e-12)
