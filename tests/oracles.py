"""Slow reference forms of vectorised package code, kept as test oracles.

`fuse` is the per-token form of the fusion layer inside
`summarizer.encode`; `positional_encoding` is the scalar form of
`summarizer.positional_matrix`.
"""

import math

import basts.autodiff as ad
from basts.autodiff import Tensor
from basts.summarizer import TransformerParams


def fuse(pooled: Tensor, token_embedding: Tensor, params: TransformerParams) -> Tensor:
    """ReLU projection of one token embedding joined with the pooled syntax."""
    joint = ad.concat([pooled, token_embedding], axis=0)
    return ad.relu(ad.add(ad.matmul(params.fuse_w, joint), params.fuse_b))


def positional_encoding(d: int, l: int, size: int) -> float:
    """Sinusoidal position value for token index d and coordinate l."""
    angle = d / (10000.0 ** (l / size))
    return math.sin(angle) if l % 2 == 0 else math.cos(angle)
