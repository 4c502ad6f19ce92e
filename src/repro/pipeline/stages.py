"""The five fit stages: Binning → Selection → Combine → Publish → Consistency.

Each stage implements the :class:`FitStage` protocol — a ``name`` and a
``run(ctx)`` that reads its inputs from and writes its outputs to the shared
:class:`~repro.pipeline.context.FitContext`.  Together they are paper
Algorithm 1 steps 1–8; everything after Publish is post-processing.

Budget is spent exactly once per private stage, on entry, through the
context's :class:`~repro.dp.accountant.BudgetLedger` — so the ledger's audit
log doubles as a record of the stage order (0.1 binning / 0.1 selection /
0.8 publication by default).
"""

from __future__ import annotations

from itertools import combinations
from typing import Protocol, runtime_checkable

import numpy as np

from repro.binning.encoder import DatasetEncoder
from repro.consistency.engine import postprocess_marginals
from repro.consistency.rules import build_default_rules
from repro.data.schema import FieldKind
from repro.marginals.combine import combine_attr_sets, cover_all_attributes
from repro.marginals.indif import noisy_indif_scores
from repro.marginals.publish import publish_marginals
from repro.marginals.selection import select_pairs
from repro.pipeline.context import FitContext


@runtime_checkable
class FitStage(Protocol):
    """One step of the private phase: reads and writes a :class:`FitContext`."""

    name: str

    def run(self, ctx: FitContext) -> None: ...


class BinningStage:
    """Steps 1–4: type-dependent codecs, tsdiff, noisy 1-ways, bin merging."""

    name = "binning"

    def run(self, ctx: FitContext) -> None:
        rho = ctx.ledger.spend(
            ctx.stage_budgets["binning"], "frequency-dependent binning"
        )
        ctx.encoder = DatasetEncoder(ctx.config.encoder)
        ctx.encoded = ctx.encoder.fit_encode(ctx.table, rho, ctx.rng)
        ctx.template = ctx.encoded.replace_data(
            np.empty((0, len(ctx.encoded.attrs)), dtype=np.int32)
        )


class SelectionStage:
    """Step 5: noisy InDif over all pairs, then greedy DenseMarg selection."""

    name = "selection"

    def run(self, ctx: FitContext) -> None:
        rho = ctx.ledger.spend(ctx.stage_budgets["selection"], "marginal selection")
        ctx.pairs = list(combinations(ctx.encoded.attrs, 2))
        shared = ctx.exact_payload() if ctx.executor is not None else None
        ctx.indif = noisy_indif_scores(
            ctx.encoded, rho, ctx.rng, pairs=ctx.pairs,
            executor=ctx.executor, shared=shared,
        )
        cells = {pair: ctx.encoded.domain.cells(pair) for pair in ctx.pairs}
        ctx.selection = select_pairs(
            ctx.indif, cells, ctx.stage_budgets["publish"],
            max_pairs=ctx.config.max_pairs,
        )


class CombineStage:
    """Step 6: merge small overlapping marginals; cover every attribute."""

    name = "combine"

    def run(self, ctx: FitContext) -> None:
        attr_sets = combine_attr_sets(
            ctx.selection.pairs,
            ctx.encoded.domain,
            max_cells=ctx.config.max_combined_cells,
        )
        ctx.attr_sets = cover_all_attributes(attr_sets, ctx.encoded.domain)


class PublishStage:
    """Step 7: noisy publication of the combined marginals (0.8·rho)."""

    name = "publish"

    def run(self, ctx: FitContext) -> None:
        rho = ctx.ledger.spend(ctx.stage_budgets["publish"], "marginal publication")
        shared = ctx.exact_payload() if ctx.executor is not None else None
        ctx.raw_published = publish_marginals(
            ctx.encoded,
            ctx.attr_sets,
            rho,
            ctx.rng,
            weighted=ctx.config.weighted_allocation,
            executor=ctx.executor,
            shared=shared,
        )


class ConsistencyStage:
    """Step 8: consistency + protocol rules (free post-processing)."""

    name = "consistency"

    def run(self, ctx: FitContext) -> None:
        cfg = ctx.config
        rules = cfg.rules if cfg.rules is not None else build_default_rules(
            ctx.encoder.schema, tau=cfg.tau
        )
        ctx.rules = rules
        ctx.published = postprocess_marginals(
            ctx.raw_published, ctx.encoder.codecs, rules, rounds=cfg.consistency_rounds
        )
        ctx.key_attr = resolve_key_attr(cfg, ctx.encoder.schema)


def resolve_key_attr(config, schema) -> str:
    """The GUMMI anchor: configured key, else the label, else a category."""
    if config.key_attr is not None:
        return config.key_attr
    label = schema.label_field
    if label is not None:
        return label.name
    for spec in schema:
        if spec.kind is FieldKind.CATEGORICAL:
            return spec.name
    return schema.names[0]


def default_stages() -> tuple:
    """The paper's stage order; ``FitPipeline`` runs these unless overridden."""
    return (
        BinningStage(),
        SelectionStage(),
        CombineStage(),
        PublishStage(),
        ConsistencyStage(),
    )
