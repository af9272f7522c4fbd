"""Kernel and module containers for the PTX-like IR.

:class:`KernelIR` is what the static analyzer consumes: the instruction
stream (the "disassembly") together with the resource usage the compiler
reports (registers per thread, static shared memory), i.e. the union of the
paper's two extraction steps (``--ptxas-options=-v`` + ``nvdisasm``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ptx.instruction import BodyItem, Instruction, Label, Reg
from repro.ptx.isa import DType


@dataclass(frozen=True)
class KernelParam:
    """A kernel parameter: scalars (``s32``/``f32``/...) or pointers.

    Pointers are typed by their element dtype and always 64-bit.
    """

    name: str
    dtype: DType
    is_pointer: bool = False

    def __str__(self) -> str:
        star = "*" if self.is_pointer else ""
        return f"{self.dtype.value}{star} {self.name}"


@dataclass
class KernelIR:
    """One compiled kernel: code, parameters, and resource usage."""

    name: str
    params: tuple[KernelParam, ...]
    body: list[BodyItem]
    regs_per_thread: int = 0
    """Registers per thread as reported by the (simulated) ptxas."""

    static_smem_bytes: int = 0
    """Static shared memory (``__shared__`` declarations)."""

    target_sm: int = 0
    """SM version this kernel was compiled for (0 = generic)."""

    meta: dict = field(default_factory=dict)
    """Free-form annotations from the compiler (trip-count model, options)."""

    # -- structure --------------------------------------------------------

    def instructions(self) -> list[Instruction]:
        """The instruction stream without label markers."""
        return [it for it in self.body if isinstance(it, Instruction)]

    def labels(self) -> list[str]:
        return [it.name for it in self.body if isinstance(it, Label)]

    def param(self, name: str) -> KernelParam:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"kernel {self.name} has no parameter {name!r}")

    # -- static counting (input to the instruction-mix analysis) ----------

    def static_category_counts(self) -> Counter:
        """Static instruction count per Table II category.

        This is the raw "disassembler" view: each instruction counts once,
        regardless of loop structure.  The analyzer scales these with a
        trip-count estimate to form static mixes.
        """
        counts: Counter = Counter()
        for ins in self.instructions():
            counts[ins.category] += 1
        return counts

    def static_register_operand_count(self) -> int:
        """Total register operands across the static instruction stream
        (the ``Regs`` row of Table II)."""
        return sum(ins.register_operand_count() for ins in self.instructions())

    def registers_used(self) -> set[Reg]:
        """The set of distinct registers appearing in the code."""
        regs: set[Reg] = set()
        for ins in self.instructions():
            regs.update(ins.registers_read())
            regs.update(ins.registers_written())
        return regs

    def __len__(self) -> int:
        return len(self.instructions())

    def __str__(self) -> str:
        from repro.ptx.printer import print_kernel

        return print_kernel(self)


@dataclass
class PTXModule:
    """A compilation unit holding one or more kernels."""

    name: str
    kernels: dict[str, KernelIR] = field(default_factory=dict)
    target_sm: int = 0

    def add(self, kernel: KernelIR) -> None:
        if kernel.name in self.kernels:
            raise ValueError(f"duplicate kernel {kernel.name!r} in module")
        self.kernels[kernel.name] = kernel

    def kernel(self, name: str) -> KernelIR:
        try:
            return self.kernels[name]
        except KeyError:
            raise KeyError(
                f"module {self.name!r} has no kernel {name!r}; "
                f"available: {sorted(self.kernels)}"
            ) from None

    def __iter__(self):
        return iter(self.kernels.values())

    def __len__(self) -> int:
        return len(self.kernels)
