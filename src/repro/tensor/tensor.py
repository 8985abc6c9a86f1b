"""A small reverse-mode automatic-differentiation engine on NumPy arrays.

The :class:`Tensor` class wraps a ``numpy.ndarray`` and records the operations
applied to it in a dynamic computation graph.  Calling :meth:`Tensor.backward`
on a scalar result walks the graph in reverse topological order and
accumulates gradients into every tensor created with ``requires_grad=True``.

The engine supports broadcasting for element-wise operations; gradients of
broadcast operands are reduced back to the operand's original shape.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return ``True`` if gradient recording is currently enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Operations executed inside the context produce tensors that do not track
    history, which makes pure inference (e.g. evaluation under device
    variation) cheaper.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    NumPy broadcasting can expand an operand along new leading axes and along
    axes of size one.  The gradient flowing back through a broadcast must be
    summed over those expanded axes so that it has the operand's shape again.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        Whether gradients should be accumulated for this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------ #
    # Basic protocol / construction helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op or 'leaf'}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        out = Tensor(self.data, requires_grad=False)
        return out

    def copy(self) -> "Tensor":
        """Return a new leaf tensor with copied data."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    @staticmethod
    def zeros(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Sequence[int], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(
        shape: Sequence[int],
        requires_grad: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> "Tensor":
        generator = rng if rng is not None else np.random.default_rng()
        return Tensor(generator.standard_normal(shape), requires_grad=requires_grad)

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires_grad)
        if requires_grad:
            out._parents = parents
            out._backward = backward
            out._op = op
        return out

    # ------------------------------------------------------------------ #
    # Element-wise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward, "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward, "mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward, "pow")

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product ``self @ other`` for 2-D operands (and 1-D vectors)."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(data, (self, other), backward, "matmul")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(data, (self,), backward, "reshape")

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        data = self.data.transpose(axes) if axes is not None else self.data.T
        inverse_axes = None
        if axes is not None:
            inverse_axes = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if axes is None:
                    self._accumulate(grad.T)
                else:
                    self._accumulate(grad.transpose(inverse_axes))

        return Tensor._make(data, (self,), backward, "transpose")

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten all dimensions from ``start_dim`` onwards."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward, "getitem")

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions of a 4-D tensor."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.ndim - 2) + [(padding, padding), (padding, padding)]
        data = np.pad(self.data, pad_width)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                slices = tuple(
                    slice(None) for _ in range(self.ndim - 2)
                ) + (slice(padding, -padding), slice(padding, -padding))
                self._accumulate(grad[slices])

        return Tensor._make(data, (self,), backward, "pad2d")

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient support."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(index)])

        return Tensor._make(data, tuple(tensors), backward, "concatenate")

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                expanded = grad
                if axis is not None and not keepdims:
                    expanded = np.expand_dims(grad, axis=axis)
                self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, (tuple, list)):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                expanded_out = data
                expanded_grad = grad
                if axis is not None and not keepdims:
                    expanded_out = np.expand_dims(data, axis=axis)
                    expanded_grad = np.expand_dims(grad, axis=axis)
                mask = (self.data == expanded_out).astype(self.data.dtype)
                # Split gradient between ties so the total gradient is conserved.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                self._accumulate(mask * expanded_grad / counts)

        return Tensor._make(data, (self,), backward, "max")

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (``ddof=0``) with gradient support."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Element-wise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(data, (self,), backward, "relu")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward, "sigmoid")

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * inside)

        return Tensor._make(data, (self,), backward, "clip")

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exponentials = shifted.exp()
        return exponentials / exponentials.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate gradients from this tensor through the graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo_order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo_order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo_order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Comparisons (produce plain bool arrays; no gradients)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (gradients flow to each input)."""
    tensor_list = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    expanded = [t.reshape(*t.shape[:axis], 1, *t.shape[axis:]) for t in tensor_list]
    return Tensor.concatenate(expanded, axis=axis)
