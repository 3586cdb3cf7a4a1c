"""The one reference switch: nesting, several areas, restore, typos."""

import pytest

from repro.reference import AREAS, reference_active, reference_mode


def active():
    return {area for area in AREAS if reference_active(area)}


class TestReferenceMode:
    def test_off_by_default(self):
        assert active() == set()

    def test_nesting_restores_outer_areas(self):
        with reference_mode("kernels"):
            assert active() == {"kernels"}
            with reference_mode("optim"):
                assert active() == {"kernels", "optim"}
                with reference_mode("kernels"):
                    assert active() == {"kernels", "optim"}
                assert active() == {"kernels", "optim"}
            assert active() == {"kernels"}
        assert active() == set()

    def test_several_areas_at_once(self):
        with reference_mode("kernels", "optim", "pipeline"):
            assert active() == set(AREAS)
        assert active() == set()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with reference_mode("pipeline"):
                with reference_mode("optim"):
                    raise RuntimeError("boom")
        assert active() == set()

    @pytest.mark.parametrize("areas", [("kernel",), ("optim", "optimizer"),
                                       ("",)])
    def test_unknown_area_raises(self, areas):
        with pytest.raises(ValueError, match="unknown reference area"):
            with reference_mode(*areas):
                pass                              # pragma: no cover
        assert active() == set()

    def test_no_area_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            with reference_mode():
                pass                              # pragma: no cover

    def test_reference_active_rejects_unknown_area(self):
        with pytest.raises(ValueError, match="unknown reference area"):
            reference_active("kernal")

