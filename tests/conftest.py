"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.synthetic import SyntheticImageTask, make_classification_images
from repro.data.dataset import train_test_split


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator shared by tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_mnist():
    """A very small MNIST-like dataset pair (train, test) for fast training tests."""
    task = SyntheticImageTask(
        num_classes=4,
        image_size=12,
        channels=1,
        samples_per_class=30,
        noise_std=0.2,
        jitter=1,
        seed=3,
        name="tiny-mnist",
    )
    dataset = make_classification_images(task)
    return train_test_split(dataset, 0.25, rng=np.random.default_rng(4))


@pytest.fixture(scope="session")
def tiny_cifar():
    """A very small CIFAR-like dataset pair (train, test) for fast training tests."""
    task = SyntheticImageTask(
        num_classes=4,
        image_size=12,
        channels=3,
        samples_per_class=30,
        noise_std=0.5,
        jitter=1,
        seed=5,
        name="tiny-cifar",
    )
    dataset = make_classification_images(task)
    return train_test_split(dataset, 0.25, rng=np.random.default_rng(6))


@pytest.fixture
def record_edge(monkeypatch):
    """Record what an ``EdgeCore`` receives and answers.

    ``record_edge(core)`` wraps ``core.handle`` for the test and returns a
    list that gains one entry per exchange: ``path``, the request's
    ``request_type`` (its Content-Type header) and the response's
    ``response_type`` and ``status``.
    """
    def install(core):
        seen = []
        handle = core.handle

        def recording(method, path, headers, body=None, body_error=None):
            response = handle(method, path, headers, body, body_error)
            seen.append(SimpleNamespace(
                path=path, request_type=headers.get("content-type"),
                response_type=response.content_type, status=response.status,
            ))
            return response

        monkeypatch.setattr(core, "handle", recording)
        return seen

    return install
