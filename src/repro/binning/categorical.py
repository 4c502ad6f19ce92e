"""Codec for small-domain categorical attributes (proto, label, flags).

Per the paper, categorical attributes with small domains are not binned:
each category is its own bin.
"""

from __future__ import annotations

import numpy as np

from repro.binning.base import AttributeCodec


class CategoricalCodec(AttributeCodec):
    """Identity binning over a closed category set."""

    def __init__(self, name: str, categories) -> None:
        super().__init__(name)
        self.categories = tuple(categories)
        if len(self.categories) != len(set(self.categories)):
            raise ValueError(f"duplicate categories for {name!r}")
        self._lookup = {c: i for i, c in enumerate(self.categories)}

    @property
    def domain_size(self) -> int:
        return len(self.categories)

    def encode(self, values: np.ndarray) -> np.ndarray:
        try:
            return np.fromiter(
                map(self._lookup.__getitem__, values), dtype=np.int32, count=len(values)
            )
        except KeyError as exc:
            raise ValueError(f"unknown category {exc.args[0]!r} for {self.name!r}") from exc

    def decode_bins(self, codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        cats = np.array(self.categories, dtype=object)
        values = cats[np.asarray(codes, dtype=np.int64)]
        if all(isinstance(c, (int, np.integer)) for c in self.categories):
            return values.astype(np.int64)
        if all(isinstance(c, float) for c in self.categories):
            return values.astype(np.float64)
        return values

    def decode_group(self, group_key, members, size, rng) -> np.ndarray:
        # Uniform over the member categories — categories carry no metric
        # structure, so uniform sampling is the only neutral choice.
        chosen = rng.choice(np.asarray(members, dtype=np.int64), size=size)
        return self.decode_bins(chosen, rng)

    def bin_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        if all(isinstance(c, (int, np.integer, float)) for c in self.categories):
            vals = np.array(self.categories, dtype=np.float64)
            return vals, vals + 1.0
        return None

    def code_of(self, category) -> int:
        """Bin id of one category (used by the protocol-rule engine)."""
        return self._lookup[category]
