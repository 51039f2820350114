"""The benchmark's workloads: sweep specs generated from the workload seed.

Every workload runs through sweep::run_plan exactly as `archgraph_sweep run`
does with the same specs, so its record digest equals the sha256 of that
command's --out file.
"""

from dataclasses import dataclass
from typing import Callable, List

# The seed whose records are pinned below. Any other seed is checked against
# the sequential oracles only; it is the held-out seed later claims must also
# hold on.
DEFAULT_SEED = 1

# Seeds above this would overflow the short_cells seed blocks.
MAX_SEED = 1 << 40


@dataclass(frozen=True)
class Workload:
    jobs: int
    why: str
    specs: Callable[[int], List[str]]


def _listrank(seed: int) -> List[str]:
    # Figure 1's shape. The two GPU cells are small (sim.gpu does almost
    # nothing here) and keep every machine present in every workload.
    return [
        f"kernel=lr_walk machine=mta:procs={{1,8}} layout={{ordered,random}} "
        f"n={{262144,524288}} seed={seed}",
        f"kernel=lr_hj machine=smp:procs={{1,8}},l2_kb=512 "
        f"layout={{ordered,random}} n={{262144,524288}} seed={seed}",
        f"kernel=lr_walk machine=gpu:procs=8 layout={{ordered,random}} "
        f"n=65536 seed={seed}",
    ]


def _components(seed: int) -> List[str]:
    # Figure 2's shape; each graph input is shared by six cells.
    return [
        f"kernel=cc_sv_mta machine=mta:procs={{1,8}} n=32768 "
        f"m={{131072,524288}} seed={seed}",
        f"kernel=cc_sv_smp machine=smp:procs={{1,8}} n=32768 "
        f"m={{131072,524288}} seed={seed}",
        f"kernel=cc_sv_mta machine=gpu:procs={{1,8}} n=32768 "
        f"m={{131072,524288}} seed={seed}",
    ]


SHORT_SEEDS_PER_PAIR = 20
_SHORT_GRAPH = ["cc_sv", "color_greedy", "color_greedy_ba", "bfs_tree"]
_SHORT_LIST = ["lr_walk", "lr_wyllie", "lr_hj"]
_SHORT_MACHINES = ["mta:procs=2", "gpu:procs=2", "smp:procs=2,l2_kb=64"]


def _graph_kernel(family: str, machine: str) -> str:
    # The registry names graph kernels by style; the GPU runs the MTA-style
    # (fine-grained) code, as in the committed gpu and fig2 grids.
    style = "smp" if machine.startswith("smp") else "mta"
    if family.endswith("_ba"):
        return f"{family[:-3]}_{style}_ba"
    return f"{family}_{style}"


def _short_cells(seed: int) -> List[str]:
    # Each (kernel, machine) pair gets its own block of seeds, so no two
    # cells share an input: per-cell fixed costs are paid on every cell.
    pairs = [(_graph_kernel(f, m), m, "n=1024 m=4096")
             for f in _SHORT_GRAPH for m in _SHORT_MACHINES]
    pairs += [(k, m, "layout=random n=4096")
              for k in _SHORT_LIST for m in _SHORT_MACHINES]
    base = seed * SHORT_SEEDS_PER_PAIR * len(pairs) + 1
    specs = []
    for i, (kernel, machine, size) in enumerate(pairs):
        first = base + i * SHORT_SEEDS_PER_PAIR
        seeds = ",".join(str(first + j) for j in range(SHORT_SEEDS_PER_PAIR))
        specs.append(f"kernel={kernel} machine={machine} {size} "
                     f"seed={{{seeds}}}")
    return specs


WORKLOADS = {
    "listrank": Workload(
        jobs=1,
        why="Fig. 1 list ranking, serial: sim.mta and sim.smp event loops on "
            "ordered vs random lists; the steadiest per-core simulator speed",
        specs=_listrank),
    "components": Workload(
        jobs=4,
        why="Fig. 2 Shiloach-Vishkin CC at jobs 4: the only large sim.gpu "
            "share, shared graph inputs, and one long cell that shows rt "
            "load balance",
        specs=_components),
    "short_cells": Workload(
        jobs=4,
        why="hundreds of 3-90 ms cells of every kernel family with unshared "
            "inputs: per-cell costs (input, machine, verify, emit, dispatch)",
        specs=_short_cells),
}

# sha256 of each workload's record_json lines (one per line, newline
# terminated) at DEFAULT_SEED: the bytes `archgraph_sweep run <specs> --out F`
# writes to F.
PINNED_DIGESTS = {
    "listrank":
        "55ac66547e1c378e3685b820fd60c8cde2bfa7c7a407a6d384afe414eea3af8d",
    "components":
        "b709ad561f9cf4a65eba4f362f8493015b0054f87da85b8342c7074fe1c4959c",
    "short_cells":
        "f6678a14dce2c51532f15cb9a91fb478b117e1305f775b0e3d3eee8686ad46b2",
}
