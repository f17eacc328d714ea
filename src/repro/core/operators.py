"""Relation operators ``g(x, θr)`` with closed-form gradients.

The paper's scoring function is ``f(θs, θr, θd) = sim(g(θs, θr),
g(θd, θr))`` where ``g`` is a per-relation transform. Following the PBG
implementation we apply the operator to the destination side only (the
source side uses the identity); the table in Section 3.1 then yields:

========  ==================  ==========
Model     operator            comparator
========  ==================  ==========
RESCAL    ``linear``          dot
TransE    ``translation``     cos (or l2)
DistMult  ``diagonal``        dot
ComplEx   ``complex_diagonal``  dot
========  ==================  ==========

Each operator implements ``forward`` and ``backward``; ``backward``
consumes the upstream gradient with respect to the operator *output* and
returns gradients with respect to the input embeddings and the relation
parameters. All operators act row-wise on the ``(w, d)`` rows of a chunk
that shares one relation (Section 4.3: ``linear`` is a single matmul)
and broadcast over a leading chunk axis — ``(n, w, d)`` rows under
``(n, *param_shape)`` parameters, one batched matmul for ``linear``.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "Operator",
    "IdentityOperator",
    "TranslationOperator",
    "DiagonalOperator",
    "LinearOperator",
    "ComplexDiagonalOperator",
    "AffineOperator",
    "OPERATORS",
    "make_operator",
]


class Operator(abc.ABC):
    """A per-relation embedding transform.

    Parameters are owned by the caller (the model) and passed to every
    call, so one stateless operator instance serves all relations that
    share the operator type.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim

    @abc.abstractmethod
    def param_shape(self) -> tuple[int, ...]:
        """Shape of one relation's parameter tensor (``()`` if none)."""

    @abc.abstractmethod
    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Initial parameter values (near-identity so early training is
        stable, matching PBG's initialisation)."""

    @abc.abstractmethod
    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        """Apply the transform to ``(w, d)`` rows, or ``(n, w, d)``."""

    @abc.abstractmethod
    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(grad_x, grad_params)`` given ``dL/d forward(x)``."""

    def check_shapes(self, x: np.ndarray, params: np.ndarray) -> None:
        if x.ndim < 2 or x.shape[-1] != self.dim:
            raise ValueError(f"expected (..., {self.dim}) input, got {x.shape}")
        want = x.shape[:-2] + self.param_shape()
        if params.shape != want:
            raise ValueError(f"expected params of shape {want}, got {params.shape}")


class IdentityOperator(Operator):
    """``g(x) = x`` — untransformed embeddings predict the edge."""

    def param_shape(self) -> tuple[int, ...]:
        return (0,)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        return np.zeros((0,), dtype=np.float32)

    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        self.check_shapes(x, params)
        return x

    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.check_shapes(x, params)
        return grad_out, np.zeros_like(params)


class TranslationOperator(Operator):
    """``g(x, θ) = x + θ`` — the TransE transform."""

    def param_shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        return np.zeros((self.dim,), dtype=np.float32)

    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        self.check_shapes(x, params)
        return x + params[..., None, :]

    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.check_shapes(x, params)
        return grad_out, grad_out.sum(axis=-2)


class DiagonalOperator(Operator):
    """``g(x, θ) = x ⊙ θ`` — the DistMult transform."""

    def param_shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        return np.ones((self.dim,), dtype=np.float32)

    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        self.check_shapes(x, params)
        return x * params[..., None, :]

    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.check_shapes(x, params)
        return grad_out * params[..., None, :], (grad_out * x).sum(axis=-2)


class LinearOperator(Operator):
    """``g(x, A) = A x`` — the RESCAL transform (full d x d matrix).

    With same-relation chunks this is one ``(w, d) @ (d, d)`` matmul,
    the optimisation called out in Section 4.3.
    """

    def param_shape(self) -> tuple[int, ...]:
        return (self.dim, self.dim)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        return np.eye(self.dim, dtype=np.float32)

    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        self.check_shapes(x, params)
        return x @ params.swapaxes(-1, -2)

    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.check_shapes(x, params)
        return grad_out @ params, grad_out.swapaxes(-1, -2) @ x


class ComplexDiagonalOperator(Operator):
    """Complex Hadamard product — the ComplEx transform.

    An even-dimensional real vector ``x`` is read as a complex vector of
    dimension ``d/2``: first half real parts, second half imaginary
    parts. ``g(x, θ) = θ ⊙ x`` in ℂ. Combined with the ``dot``
    comparator the score is the trilinear ``Re⟨conj(s), θr, d⟩`` —
    equivalent to the standard ComplEx form ``Re⟨s, θr, conj(d)⟩`` up to
    a global conjugation of all embeddings (negate imaginary halves),
    so the model class is identical.
    """

    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        if dim % 2:
            raise ValueError(
                f"complex_diagonal requires an even dimension, got {dim}"
            )
        self.half = dim // 2

    def param_shape(self) -> tuple[int, ...]:
        return (self.dim,)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        # Identity in C^{d/2}: real part one, imaginary part zero.
        params = np.zeros((self.dim,), dtype=np.float32)
        params[: self.half] = 1.0
        return params

    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        self.check_shapes(x, params)
        h = self.half
        p, q = params[..., None, :h], params[..., None, h:]
        x_re, x_im = x[..., :h], x[..., h:]
        out = np.empty_like(x)
        out[..., :h] = p * x_re - q * x_im
        out[..., h:] = q * x_re + p * x_im
        return out

    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.check_shapes(x, params)
        h = self.half
        p, q = params[..., None, :h], params[..., None, h:]
        x_re, x_im = x[..., :h], x[..., h:]
        g_re, g_im = grad_out[..., :h], grad_out[..., h:]

        grad_x = np.empty_like(x)
        # Adjoint of multiplication by (p + qi) is multiplication by (p - qi).
        grad_x[..., :h] = p * g_re + q * g_im
        grad_x[..., h:] = -q * g_re + p * g_im

        grad_params = np.empty_like(params)
        grad_params[..., :h] = (g_re * x_re + g_im * x_im).sum(axis=-2)
        grad_params[..., h:] = (g_im * x_re - g_re * x_im).sum(axis=-2)
        return grad_x, grad_params


class AffineOperator(Operator):
    """``g(x, [A; b]) = A x + b`` — linear map plus translation.

    Present in the original PBG release as a generalisation of
    ``linear``; parameters are stored as a ``(d+1, d)`` tensor whose
    first ``d`` rows are ``A`` and last row is ``b``.
    """

    def param_shape(self) -> tuple[int, ...]:
        return (self.dim + 1, self.dim)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng
        params = np.zeros((self.dim + 1, self.dim), dtype=np.float32)
        params[: self.dim] = np.eye(self.dim, dtype=np.float32)
        return params

    def forward(self, x: np.ndarray, params: np.ndarray) -> np.ndarray:
        self.check_shapes(x, params)
        a_t = params[..., : self.dim, :].swapaxes(-1, -2)
        return x @ a_t + params[..., self.dim, None, :]

    def backward(
        self, x: np.ndarray, params: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        self.check_shapes(x, params)
        grad_x = grad_out @ params[..., : self.dim, :]
        grad_params = np.empty_like(params)
        grad_params[..., : self.dim, :] = grad_out.swapaxes(-1, -2) @ x
        grad_params[..., self.dim, :] = grad_out.sum(axis=-2)
        return grad_x, grad_params


OPERATORS: "dict[str, type[Operator]]" = {
    "identity": IdentityOperator,
    "translation": TranslationOperator,
    "diagonal": DiagonalOperator,
    "linear": LinearOperator,
    "complex_diagonal": ComplexDiagonalOperator,
    "affine": AffineOperator,
}


def make_operator(name: str, dim: int) -> Operator:
    """Instantiate the operator registered under ``name``."""
    try:
        cls = OPERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; expected one of {sorted(OPERATORS)}"
        ) from None
    return cls(dim)
