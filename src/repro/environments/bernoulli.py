"""The paper's canonical environment: independent Bernoulli option qualities."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.environments.base import RewardEnvironment
from repro.utils.precision import PrecisionLike, resolve_precision
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_in_range, check_positive_int, check_quality_vector


class BernoulliEnvironment(RewardEnvironment):
    """Options with fixed qualities ``eta_j``; ``R^t_j ~ Bernoulli(eta_j)`` i.i.d. over ``t``.

    This is exactly the learning environment of Section 2.1: the quality of
    each option is an independent random variable whose parameter is unknown
    to the individuals and fixed over time.

    Parameters
    ----------
    qualities:
        The vector ``(eta_1, ..., eta_m)``; each entry in ``[0, 1]``.  The
        paper's convention ``eta_1 >= eta_2 >= ... >= eta_m`` is *not*
        required — the environment works with any ordering and reports
        :attr:`~RewardEnvironment.best_option` accordingly.
    rng:
        Seed or generator.
    """

    def __init__(self, qualities: Sequence[float], rng: RngLike = None) -> None:
        qualities = check_quality_vector(qualities, "qualities")
        super().__init__(num_options=qualities.size, rng=rng)
        self._qualities = qualities.copy()

    @property
    def qualities(self) -> np.ndarray:
        return self._qualities.copy()

    def _draw(self) -> np.ndarray:
        return (self._rng.random(self._num_options) < self._qualities).astype(np.int8)

    def _draw_batch(self, num_replicates: int) -> np.ndarray:
        uniforms = self._rng.random((num_replicates, self._num_options))
        return (uniforms < self._qualities).astype(np.int8)

    @classmethod
    def with_gap(
        cls,
        num_options: int,
        *,
        best_quality: float = 0.7,
        gap: float = 0.2,
        rng: RngLike = None,
    ) -> "BernoulliEnvironment":
        """Convenience constructor: one option at ``best_quality``, rest at ``best_quality - gap``.

        This is the structure used throughout the paper's discussion (a unique
        best option separated from the field by a gap ``eta_1 - eta_2``) and in
        the simplest worked example (Krafft et al.), where
        ``eta_1 > 1/2 = eta_2 = ... = eta_m``.
        """
        num_options = check_positive_int(num_options, "num_options")
        best_quality = check_in_range(best_quality, "best_quality", 0.0, 1.0)
        gap = check_in_range(gap, "gap", 0.0, best_quality)
        qualities = np.full(num_options, best_quality - gap)
        qualities[0] = best_quality
        return cls(qualities, rng=rng)

    @classmethod
    def random_instance(
        cls,
        num_options: int,
        *,
        min_gap: float = 0.05,
        rng: RngLike = None,
    ) -> "BernoulliEnvironment":
        """Draw a random quality vector whose top-two gap is at least ``min_gap``."""
        num_options = check_positive_int(num_options, "num_options")
        min_gap = check_in_range(min_gap, "min_gap", 0.0, 1.0)
        generator = ensure_rng(rng)
        while True:
            qualities = np.sort(generator.random(num_options))[::-1]
            if num_options == 1 or qualities[0] - qualities[1] >= min_gap:
                return cls(qualities, rng=generator)


class RowwiseBernoulliEnvironment(RewardEnvironment):
    """Bernoulli rewards with a *different* quality vector per batch row.

    Row ``r`` of every :meth:`~RewardEnvironment.sample_batch` draw is
    ``R^t_{r,j} ~ Bernoulli(eta_{r,j})``, i.i.d. across time and rows.  This
    is the environment half of sweep-axis batching: when ``run_sweep``
    flattens ``G`` grid points times ``R`` replicates into one ``(G·R, m)``
    batch, each flattened row carries the quality vector of its grid point.

    The single-replicate interface (:meth:`sample` / :meth:`sample_many`) is
    deliberately unavailable — there is no single quality vector to draw from
    — and ``sample_batch`` must be called with exactly ``num_rows``
    replicates.

    Parameters
    ----------
    qualities:
        Matrix of shape ``(R, m)``; row ``r`` holds the success
        probabilities ``eta_{r,j}`` of batch row ``r``.
    rng:
        Seed or generator.
    precision:
        Storage precision (default float64).  With ``float32`` the quality
        matrix — the environment's only per-row state — is stored at half
        width; the reward draws then threshold float64 uniforms against the
        float32-rounded qualities, so float32 reward streams agree with
        float64 ones *statistically* (to within one ulp of each quality),
        not bit-for-bit.  The default path is unchanged.
    """

    def __init__(
        self,
        qualities: np.ndarray,
        rng: RngLike = None,
        precision: PrecisionLike = None,
    ) -> None:
        qualities = np.asarray(qualities, dtype=float)
        if qualities.ndim != 2 or qualities.shape[0] == 0 or qualities.shape[1] == 0:
            raise ValueError(
                f"qualities must be a non-empty 2-D (R, m) matrix, got shape "
                f"{qualities.shape}"
            )
        if not np.all(np.isfinite(qualities)):
            raise ValueError("every quality must be finite")
        if np.any(qualities < 0) or np.any(qualities > 1):
            raise ValueError("every quality must lie in [0, 1]")
        super().__init__(num_options=qualities.shape[1], rng=rng)
        self._precision = resolve_precision(precision)
        self._qualities = qualities.astype(self._precision.float_dtype)
        self._qualities.setflags(write=False)

    @classmethod
    def from_points(
        cls,
        quality_vectors: Sequence[Sequence[float]],
        replications: int,
        rng: RngLike = None,
        precision: PrecisionLike = None,
    ) -> "RowwiseBernoulliEnvironment":
        """Repeat each grid point's quality vector ``replications`` times.

        The row layout matches the flattening convention of the batched sweep:
        rows ``g * replications .. (g+1) * replications - 1`` belong to grid
        point ``g``.
        """
        check_positive_int(replications, "replications")
        matrix = np.asarray([np.asarray(vector, dtype=float) for vector in quality_vectors])
        if matrix.ndim != 2:
            raise ValueError("all quality vectors must have the same length")
        return cls(np.repeat(matrix, replications, axis=0), rng=rng, precision=precision)

    @property
    def num_rows(self) -> int:
        """Number of batch rows ``R`` this environment serves."""
        return int(self._qualities.shape[0])

    @property
    def qualities(self) -> np.ndarray:
        """The full per-row quality matrix, shape ``(R, m)``."""
        return self._qualities.copy()

    @property
    def best_option(self) -> np.ndarray:
        """Per-row best option indices, shape ``(R,)``."""
        return self._qualities.argmax(axis=1)

    @property
    def best_quality(self) -> np.ndarray:
        """Per-row best qualities, shape ``(R,)``."""
        return self._qualities.max(axis=1)

    def quality_gap(self) -> np.ndarray:
        """Per-row gap between the two best options, shape ``(R,)`` (0 if ``m == 1``)."""
        if self._num_options < 2:
            return np.zeros(self.num_rows)
        ordered = np.sort(self._qualities, axis=1)
        return ordered[:, -1] - ordered[:, -2]

    def _draw(self) -> np.ndarray:
        raise RuntimeError(
            "a per-row environment has no single-replicate reward stream; "
            "use sample_batch(num_rows)"
        )

    def _draw_batch(self, num_replicates: int) -> np.ndarray:
        if num_replicates != self.num_rows:
            raise ValueError(
                f"per-row environment serves exactly {self.num_rows} rows, "
                f"got num_replicates={num_replicates}"
            )
        uniforms = self._rng.random((num_replicates, self._num_options))
        return (uniforms < self._qualities).astype(np.int8)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(rows={self.num_rows}, m={self._num_options})"
        )
