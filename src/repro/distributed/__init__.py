"""Distributed data-centric programs over the simulated cluster (§4)."""

from . import comm_api, frontend_ext  # noqa: F401  (registers replacements)
from .block import block_bounds, block_shape, gather_blocks, local_block, scatter_blocks
from .context import DistContext, current
from .pblas_rt import pgemm, pgemr2d, pgemv, ptran
from .runner import DistributedResult, run_distributed

__all__ = [
    "comm_api", "run_distributed", "DistributedResult",
    "DistContext", "current",
    "block_bounds", "block_shape", "local_block", "scatter_blocks",
    "gather_blocks", "pgemm", "pgemv", "ptran", "pgemr2d",
]
