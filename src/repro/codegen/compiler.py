"""The compile driver: kernel specs -> compiled kernels, per architecture.

This is the reproduction's ``nvcc``.  A :class:`CompileOptions` bundle maps
one-to-one onto the tuning parameters the paper's Orio specification varies
at compile time (``UIF`` unroll factor, ``CFLAGS`` fast-math) plus the
target GPU (``-arch=sm_xx``).  The result carries everything the paper's
static analyzer step extracts:

1. the resource report (registers/thread, shared memory) that
   ``nvcc --ptxas-options=-v`` prints, available as :attr:`CompiledKernel.log`;
2. the disassembled instruction stream (``nvdisasm``), available as
   :meth:`CompiledKernel.disassembly`;
3. the region tree connecting static code to trip counts, which the dynamic
   substrate uses for exact counts.

Measurement needs only the third and the resource numbers, so it keeps a
:class:`MeasuredKernel` view of each kernel instead of the whole compile.
Of those, only the register count depends on the GPU beyond its address
width (:func:`register_report`), so GPUs of one width can share one
compile's view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.codegen.ast_nodes import KernelSpec
from repro.codegen.lowering import lower_kernel
from repro.codegen.regalloc import allocate_registers
from repro.codegen.regions import Region
from repro.codegen.transforms.unroll import unroll_innermost
from repro.ptx.module import KernelIR
from repro.ptx.printer import print_kernel
from repro.ptx.verifier import verify_kernel

#: Registers reserved by the ABI / system per architecture generation.
#: Fermi's 32-bit addressing needs fewer; Kepler+ reserve more for the
#: wider ABI.  These reservations (together with 64-bit pointer pairs) are
#: why the same kernel reports different register counts per architecture,
#: as in the paper's Table VII [R_u] column.
_RESERVED_REGS = {20: 2, 35: 4, 52: 6, 60: 6}


def address_64bit(gpu: GPUSpec) -> bool:
    """Whether code for ``gpu`` uses 64-bit addresses (sm_35 onwards).

    Lowering reads only the spec, fast-math and this, and register
    allocation reads only the lowered code, so kernels compiled for GPUs
    of one address width get equal code, region trees and register slots.
    They differ only in :func:`register_report`.
    """
    return gpu.sm_version >= 35


def register_report(slots: int, gpu: GPUSpec) -> tuple[int, int]:
    """What ptxas reports on ``gpu`` for a kernel whose allocation takes
    ``slots`` 32-bit register slots: ``(registers per thread, registers
    spilled)``.  The count is the slots plus the architecture's ABI
    reservation, clamped to the GPU's per-thread limit (mirroring
    ``ptxas --maxrregcount``); what the clamp cuts is spilled.  The
    benchmark kernels never spill.
    """
    demanded = slots + _RESERVED_REGS[gpu.sm_version]
    regs = min(demanded, gpu.max_regs_per_thread)
    return regs, demanded - regs


@dataclass(frozen=True)
class CompileOptions:
    """Compile-time tuning knobs (the compile-side slice of Table III:
    ``UIF`` and ``CFLAGS``).  The L1 preference ``PL`` is applied at
    launch, so it lives on :class:`~repro.sim.timing.LaunchConfig`."""

    gpu: GPUSpec
    unroll_factor: int = 1
    fast_math: bool = False

    def __post_init__(self):
        if self.unroll_factor < 1:
            raise ValueError("unroll_factor must be >= 1")


@dataclass(eq=False)
class CompiledKernel:
    """One kernel compiled for one architecture and option set.

    Identity-hashable (``eq=False``) so analysis layers can memoize
    per-kernel results.
    """

    spec: KernelSpec
    """The post-transform spec actually lowered (unrolled form)."""

    source_spec: KernelSpec
    """The original spec before transformations."""

    ir: KernelIR
    root_region: Region
    parallel_extent: object
    options: CompileOptions
    log: str = ""
    register_slots: int = 0
    """The 32-bit register slots the allocator took, before
    :func:`register_report` adds the reservation and clamps."""

    @property
    def name(self) -> str:
        return self.ir.name

    @property
    def regs_per_thread(self) -> int:
        return self.ir.regs_per_thread

    @property
    def static_smem_bytes(self) -> int:
        return self.ir.static_smem_bytes

    def disassembly(self) -> str:
        """The nvdisasm-equivalent textual instruction stream."""
        return print_kernel(self.ir)


@dataclass(frozen=True, eq=False)
class MeasuredKernel:
    """The measurement view of a :class:`CompiledKernel`.

    Holds only what measurement reads (:mod:`repro.sim.timing`,
    :mod:`repro.sim.counting` and ``Measurer.measure``): the resource
    numbers, the region tree and the parallel extent.  The static
    search's inputs are among them: ``T*`` and the static mix read
    nothing else.  It has no instructions, specs or log, so the analyses
    that need them -- disassembly, divergence, the raw static mix --
    fail on a view rather than read the wrong thing.  Compared by
    identity (``eq=False``) like the kernel it projects.
    """

    name: str
    regs_per_thread: int
    static_smem_bytes: int
    root_region: Region
    parallel_extent: object
    options: CompileOptions


@dataclass(eq=False)
class CompiledModule:
    """A benchmark compiled as one or more kernels launched in sequence.

    Multi-kernel benchmarks (atax, BiCG run two dependent passes) measure
    and tune the kernels together, as the paper's per-benchmark timings do.
    Its kernels are :class:`CompiledKernel` objects, or
    :class:`MeasuredKernel` views in a module a measurer holds.
    """

    name: str
    kernels: list
    options: CompileOptions

    def __iter__(self):
        return iter(self.kernels)

    def __len__(self):
        return len(self.kernels)

    @property
    def regs_per_thread(self) -> int:
        """The occupancy-relevant register count: the max across kernels."""
        return max(k.regs_per_thread for k in self.kernels)

    @property
    def static_smem_bytes(self) -> int:
        return max(k.static_smem_bytes for k in self.kernels)

    def log(self) -> str:
        return "\n".join(k.log for k in self.kernels)


def compile_kernel(spec: KernelSpec, options: CompileOptions) -> CompiledKernel:
    """Compile one kernel spec for the given options.

    Pipeline: AST transforms (unroll) -> lowering (fast-math instruction
    selection, addressing width by architecture) -> linear scan register
    allocation -> resource report (:func:`register_report`) ->
    verification.
    """
    gpu = options.gpu
    transformed = unroll_innermost(spec, options.unroll_factor)
    lowered = lower_kernel(
        transformed,
        fast_math=options.fast_math,
        address_64bit=address_64bit(gpu),
    )
    alloc = allocate_registers(lowered.ir)
    ir = alloc.kernel
    ir.regs_per_thread, spilled = register_report(alloc.slots, gpu)
    ir.target_sm = gpu.sm_version
    ir.meta["options"] = options
    ir.meta["spilled"] = spilled
    verify_kernel(ir)

    log = (
        f"ptxas info    : Compiling entry function '{spec.name}' "
        f"for 'sm_{gpu.sm_version}'\n"
        f"ptxas info    : Function properties for {spec.name}\n"
        f"ptxas info    : Used {ir.regs_per_thread} registers, "
        f"{ir.static_smem_bytes} bytes smem"
        + (f", {spilled} registers spilled" if spilled else "")
    )
    return CompiledKernel(
        spec=transformed,
        source_spec=spec,
        ir=ir,
        root_region=lowered.root_region,
        parallel_extent=lowered.parallel_extent,
        options=options,
        log=log,
        register_slots=alloc.slots,
    )


def compile_module(
    name: str, specs: list, options: CompileOptions
) -> CompiledModule:
    """Compile a multi-kernel benchmark."""
    if not specs:
        raise ValueError("compile_module needs at least one kernel spec")
    return CompiledModule(
        name=name,
        kernels=[compile_kernel(s, options) for s in specs],
        options=options,
    )
