"""Runtime shape/dtype contracts: gating, binding, violations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.contracts import (
    CONTRACTS_ENV_VAR,
    arr,
    contracts_enabled,
    shaped,
)
from repro.errors import ConfigurationError, ContractViolation


class TestGating:
    def test_suite_runs_with_contracts_enabled(self):
        # conftest.py sets REPRO_CONTRACTS=1 before any repro import.
        assert contracts_enabled()

    def test_disabled_returns_function_unchanged(self, monkeypatch):
        monkeypatch.delenv(CONTRACTS_ENV_VAR, raising=False)

        def f(x):
            return x

        assert shaped(x=("N",))(f) is f

    def test_falsy_values_disable(self, monkeypatch):
        for value in ("0", "off", "", "no"):
            monkeypatch.setenv(CONTRACTS_ENV_VAR, value)

            def f(x):
                return x

            assert shaped(x=("N",))(f) is f

    def test_enabled_wraps_and_exposes_specs(self):
        @shaped(x=("N",))
        def f(x):
            return x

        assert hasattr(f, "__repro_contracts__")
        assert f.__repro_contracts__["x"].shape == ("N",)

    def test_hot_path_functions_are_decorated(self):
        from repro.core.correction import linear_phase_residual
        from repro.core.engine import build_steering_entry
        from repro.core.peaks import find_peaks

        for fn in (linear_phase_residual, build_steering_entry, find_peaks):
            assert hasattr(fn, "__repro_contracts__"), fn


class TestShapeChecks:
    def test_matching_call_passes_through(self):
        @shaped(a=("N", 2), b=("N",))
        def f(a, b):
            return a.shape[0]

        assert f(np.zeros((5, 2)), np.zeros(5)) == 5

    def test_wrong_ndim(self):
        @shaped(a=("N", 2))
        def f(a):
            return a

        with pytest.raises(ContractViolation, match="2-D"):
            f(np.zeros(5))

    def test_exact_axis_size(self):
        @shaped(a=("N", 2))
        def f(a):
            return a

        with pytest.raises(ContractViolation, match="axis 1"):
            f(np.zeros((5, 3)))

    def test_dim_variable_bound_across_params(self):
        @shaped(a=("N",), b=("N",))
        def f(a, b):
            return a

        f(np.zeros(4), np.zeros(4))
        with pytest.raises(ContractViolation, match="already 4"):
            f(np.zeros(4), np.zeros(5))

    def test_independent_dim_tokens_allow_different_sizes(self):
        @shaped(a=("M",), b=("L",))
        def f(a, b):
            return a

        f(np.zeros(4), np.zeros(9))  # must not raise

    def test_none_axis_matches_anything(self):
        @shaped(a=(None, 2))
        def f(a):
            return a

        f(np.zeros((1, 2)))
        f(np.zeros((99, 2)))


class TestDtypeChecks:
    def test_shared_dtype_kind(self):
        @shaped(dtype=np.complexfloating, alpha=("I", "J", "K"))
        def f(alpha):
            return alpha

        f(np.zeros((2, 3, 4), dtype=np.complex128))
        f(np.zeros((2, 3, 4), dtype=np.complex64))
        with pytest.raises(ContractViolation, match="dtype"):
            f(np.zeros((2, 3, 4)))

    def test_arr_spec_overrides_shared_dtype(self):
        @shaped(dtype=np.complexfloating, x=arr(("N",), np.floating))
        def f(x):
            return x

        f(np.zeros(3))  # float accepted via the override
        with pytest.raises(ContractViolation):
            f(np.zeros(3, dtype=np.complex128))


class TestCallMechanics:
    def test_none_and_omitted_args_skipped(self):
        @shaped(a=("N",), b=("N",))
        def f(a, b=None):
            return a

        f(np.zeros(3))
        f(np.zeros(3), None)

    def test_kwargs_checked_too(self):
        @shaped(a=("N", 2))
        def f(a):
            return a

        with pytest.raises(ContractViolation):
            f(a=np.zeros(3))

    def test_signature_errors_stay_native(self):
        @shaped(a=("N",))
        def f(a):
            return a

        with pytest.raises(TypeError):
            f(np.zeros(3), np.zeros(3), np.zeros(3))

    def test_unknown_parameter_rejected_at_decoration(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):

            @shaped(nope=("N",))
            def f(a):
                return a

    def test_method_contract(self):
        class Holder:
            @shaped(alpha=arr(("J", "K"), np.complexfloating))
            def use(self, alpha):
                return alpha.shape

        h = Holder()
        assert h.use(np.zeros((2, 3), complex)) == (2, 3)
        with pytest.raises(ContractViolation):
            h.use(np.zeros((2, 3)))

    def test_violation_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(ContractViolation, ReproError)


class TestPipelineContractsLive:
    """The decorated pipeline functions actually reject bad inputs."""

    def test_linear_phase_residual_rejects_real_alpha(self):
        from repro.core.correction import linear_phase_residual

        with pytest.raises(ContractViolation):
            linear_phase_residual(np.zeros((2, 3, 4)))

    def test_anchor_likelihood_flat_rejects_mismatched_points(self):
        # The direct Eq. 17 oracle keeps its @shaped contract.
        from eq17_oracle import anchor_likelihood_flat

        with pytest.raises(ContractViolation):
            anchor_likelihood_flat(
                None, 0, np.zeros((10, 3)), np.zeros(10)
            )

    def test_find_peaks_rejects_flat_vector(self):
        from repro.core.peaks import find_peaks
        from repro.utils.gridmap import Grid2D

        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ContractViolation):
            find_peaks(np.zeros(9), grid)
