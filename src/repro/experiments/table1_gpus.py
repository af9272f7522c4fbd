"""Table I: GPUs used in this experiment (hardware parameters)."""

from __future__ import annotations

from repro.arch.specs import ALL_GPUS
from repro.util.tables import ascii_table

_ROWS = [
    ("cc", "CUDA capability", lambda g: g.compute_capability),
    ("", "Global mem (MB)", lambda g: g.global_mem_mb),
    ("mp", "Multiprocessors", lambda g: g.multiprocessors),
    ("", "CUDA cores / mp", lambda g: g.cores_per_mp),
    ("", "CUDA cores", lambda g: g.cuda_cores),
    ("", "GPU clock (MHz)", lambda g: g.gpu_clock_mhz),
    ("", "Mem clock (MHz)", lambda g: g.mem_clock_mhz),
    ("", "L2 cache (MB)", lambda g: g.l2_cache_mb),
    ("", "Constant mem (B)", lambda g: g.constant_mem_bytes),
    ("SccB", "Sh mem block (B)", lambda g: g.smem_per_block_bytes),
    ("Rccfs", "Regs per block", lambda g: g.regfile_per_block),
    ("WB", "Warp size", lambda g: g.warp_size),
    ("Tccmp", "Threads per mp", lambda g: g.max_threads_per_mp),
    ("TccB", "Threads per block", lambda g: g.max_threads_per_block),
    ("Bccmp", "Thread blocks / mp", lambda g: g.max_blocks_per_mp),
    ("TccW", "Threads per warp", lambda g: g.warp_size),
    ("Wccmp", "Warps per mp", lambda g: g.max_warps_per_mp),
    ("RccB", "Reg alloc size", lambda g: g.reg_alloc_unit),
    ("RccT", "Regs per thread", lambda g: g.max_regs_per_thread),
    ("", "Family", lambda g: g.family),
]


def run() -> dict:
    return {
        "gpus": [g.name for g in ALL_GPUS],
        "rows": [
            [sym, label] + [fn(g) for g in ALL_GPUS]
            for sym, label, fn in _ROWS
        ],
    }


def render(result: dict) -> str:
    headers = ["Sym", "Parameter"] + result["gpus"]
    return ascii_table(headers, result["rows"],
                       title="Table I: GPUs used in this experiment")
