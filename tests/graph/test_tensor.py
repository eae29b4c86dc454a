"""Unit tests for tensors and symbolic shapes."""

import pytest

from repro.graph import Tensor, TensorKind, shape_elements
from repro.symbolic import symbols

b, h = symbols("b h")


class TestTensorGeometry:
    def test_num_elements_symbolic(self):
        t = Tensor("x", (b, h))
        assert t.num_elements() == b * h

    def test_scalar_shape(self):
        t = Tensor("s", ())
        assert t.rank == 0
        assert t.num_elements() == 1
        assert t.size_bytes() == 4

    def test_size_bytes_uses_dtype(self):
        t = Tensor("x", (b, h), dtype_bytes=2)
        assert t.size_bytes() == 2 * b * h

    def test_shape_elements_helper(self):
        assert shape_elements((b, 4, h)) == 4 * b * h
        assert shape_elements(()) == 1

    def test_size_caching_returns_same_expr(self):
        t = Tensor("x", (b, h))
        assert t.num_elements() is t.num_elements()
        assert t.size_bytes() is t.size_bytes()

    def test_num_elements_memoized_on_shape(self, monkeypatch):
        from repro.graph import tensor as tensor_module

        calls = []

        def counting(shape):
            calls.append(shape)
            return shape_elements(shape)

        monkeypatch.setattr(tensor_module, "shape_elements", counting)
        shape = (b, 7, h, 13)
        first = Tensor("x", shape).num_elements()
        second = Tensor("y", shape, dtype_bytes=2).num_elements()
        other = Tensor("z", (b, 7, h, 11)).num_elements()
        assert len(calls) == 2
        assert first is second is shape_elements(shape)
        assert other is shape_elements((b, 7, h, 11)) and other is not first


class TestTensorRoles:
    def test_parameter_requires_grad(self):
        t = Tensor("w", (h, h), kind=TensorKind.PARAMETER)
        assert t.is_param
        assert t.requires_grad
        assert t.is_persistent

    def test_activation_defaults(self):
        t = Tensor("a", (b, h))
        assert not t.is_param
        assert not t.requires_grad
        assert not t.is_persistent
        assert t.producer is None
        assert t.consumers == []

    def test_input_kind(self):
        t = Tensor("x", (b, h), kind=TensorKind.INPUT)
        assert t.is_input
        assert not t.is_persistent

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Tensor("x", (b,), kind="weights")

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            Tensor("x", (b,), dtype_bytes=0)

    def test_repr_mentions_shape_and_kind(self):
        t = Tensor("x", (b, h), kind=TensorKind.INPUT)
        text = repr(t)
        assert "x" in text and "input" in text
