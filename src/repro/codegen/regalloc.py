"""Linear-scan register allocation.

Maps the virtual registers produced by lowering onto physical register
classes (``%r`` s32/u32, ``%f`` f32, ``%rd`` s64, ``%fd`` f64, ``%p``
predicates) and counts the 32-bit register slots the allocation takes.
The compiler turns that total into the per-thread register count that
``ptxas -v`` would report and the occupancy model consumes
(:func:`repro.codegen.compiler.register_report`).

Modelling notes:

- live intervals are extended across loop back edges, so loop-carried
  values (accumulators, loop counters) hold their register for the whole
  loop, as real allocators must;
- 64-bit values occupy two 32-bit slots (register pairs);
- predicates live in their own bank and do not count toward the slot total
  (as on real hardware, which has a small separate predicate file).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.ptx.instruction import Instruction, Label, Reg
from repro.ptx.isa import DType
from repro.ptx.module import KernelIR


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of register allocation for one kernel."""

    kernel: KernelIR
    slots: int
    """32-bit register slots the allocation takes (64-bit registers are
    pairs, predicates take none)."""
    slots_by_class: dict
    mapping: dict


_CLASS_PREFIX = {
    DType.S32: "%r",
    DType.U32: "%r",
    DType.F32: "%f",
    DType.S64: "%rd",
    DType.F64: "%fd",
    DType.PRED: "%p",
}


def _live_intervals(body: list) -> dict[str, tuple[int, int, DType]]:
    """[first_def, last_use] per virtual register, extended over loops."""
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    dtype: dict[str, DType] = {}
    label_pos: dict[str, int] = {}
    instrs: list[tuple[int, Instruction]] = []

    pos = 0
    for item in body:
        if isinstance(item, Label):
            label_pos[item.name] = pos
        else:
            instrs.append((pos, item))
            pos += 1

    # positions only grow, so each occurrence is the last use so far; a
    # register's dtype is its last write's, or its first read's if it is
    # never written
    for p, ins in instrs:
        dst = ins.dst
        if dst is not None:
            if dst.name not in first:
                first[dst.name] = p
            last[dst.name] = p
            dtype[dst.name] = dst.dtype
        for r in ins.registers_read():
            if r.name not in first:
                first[r.name] = p  # reads of undefined regs: verifier's job
                dtype[r.name] = r.dtype
            last[r.name] = p

    # loop extension: for every backward branch target..branch range, any
    # interval entering the loop live must survive to the loop end.  An
    # extension only lengthens an interval, which can only bring more
    # loops into play, so each interval grows to the same fixed point
    # whatever order the loops are applied in.
    loops: list[tuple[int, int]] = []
    for p, ins in instrs:
        tgt = ins.branch_target
        if tgt is not None and tgt in label_pos and label_pos[tgt] <= p:
            loops.append((label_pos[tgt], p))
    out = {}
    for name, begin in first.items():
        end = last[name]
        grown = bool(loops)
        while grown:
            grown = False
            for loop_start, loop_end in loops:
                if begin < loop_start <= end < loop_end:
                    end = loop_end
                    grown = True
        out[name] = (begin, end, dtype[name])
    return out


class _Pool:
    """A free-list pool for one physical register class."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.free: list[int] = []
        self.high_water = 0

    def take(self) -> int:
        if self.free:
            return self.free.pop()
        self.high_water += 1
        return self.high_water

    def release(self, idx: int) -> None:
        self.free.append(idx)


def allocate_registers(ir: KernelIR) -> AllocationResult:
    """Run linear scan over ``ir`` and return the renamed kernel with the
    register slots it takes.  Allocation reads no architecture: the
    slots depend only on the lowered code."""
    intervals = _live_intervals(ir.body)
    order = sorted(intervals.items(), key=lambda kv: (kv[1][0], kv[1][1]))

    pools: dict[str, _Pool] = {}
    # (end, allocation seq, prefix, idx): the heap yields every interval
    # that has ended; they are released in allocation order, the order a
    # scan of the active list in allocation order would release them in,
    # so each free list (LIFO) hands out the same indices.
    active: list[tuple[int, int, str, int]] = []
    mapping: dict[str, Reg] = {}
    physical: dict[tuple, Reg] = {}  # one Reg per (prefix, idx, dtype)

    for seq, (vname, (start, end, dt)) in enumerate(order):
        expired = []
        while active and active[0][0] < start:
            expired.append(heapq.heappop(active))
        for _, _, a_prefix, a_idx in sorted(expired, key=lambda a: a[1]):
            pools[a_prefix].release(a_idx)

        prefix = _CLASS_PREFIX[dt]
        pool = pools.get(prefix)
        if pool is None:
            pool = pools[prefix] = _Pool(prefix)
        idx = pool.take()
        reg = physical.get((prefix, idx, dt))
        if reg is None:
            reg = physical[prefix, idx, dt] = Reg(f"{prefix}{idx}", dt)
        mapping[vname] = reg
        heapq.heappush(active, (end, seq, prefix, idx))

    new_body = [
        item if isinstance(item, Label) else item.rename_registers(mapping)
        for item in ir.body
    ]

    slots_by_class = {}
    slot_total = 0
    for prefix, pool in pools.items():
        per = 2 if prefix in ("%rd", "%fd") else (0 if prefix == "%p" else 1)
        slots_by_class[prefix] = pool.high_water
        slot_total += pool.high_water * per

    out = KernelIR(
        name=ir.name,
        params=ir.params,
        body=new_body,
        regs_per_thread=ir.regs_per_thread,
        static_smem_bytes=ir.static_smem_bytes,
        target_sm=ir.target_sm,
        meta=dict(ir.meta),
    )
    return AllocationResult(
        kernel=out,
        slots=slot_total,
        slots_by_class=slots_by_class,
        mapping=mapping,
    )
