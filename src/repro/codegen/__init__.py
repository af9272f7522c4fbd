"""The compiler substrate standing in for ``nvcc``.

Kernels are written as loop-nest specifications (the Orio input form: "we
use the term kernels to refer to deeply nested loops"), lowered to the
PTX-like IR of :mod:`repro.ptx`, register-allocated, and packaged as
:class:`repro.codegen.compiler.CompiledKernel` objects that carry
everything the paper's static analyzer extracts from the real toolchain:
the instruction stream, registers per thread, static shared memory, and
a compile log.

Tuning-relevant compiler behaviour is modelled faithfully:

- ``unroll_factor`` (the Orio ``UIF`` parameter) unrolls innermost
  sequential loops at the AST level, with a remainder loop;
- ``fast_math`` (the ``-use_fast_math`` flag) selects cheap SFU sequences
  for ``exp``/``div``/``sqrt`` instead of precise software expansions;
- the target architecture changes addressing width (32-bit on sm_20, 64-bit
  on sm_35+), and its ABI reservation and per-thread limit turn the
  allocator's register slots into the reported register count.
"""

from repro.codegen.ast_nodes import (
    ArrayParam,
    Assign,
    AtomicAdd,
    BinOp,
    Call,
    Cast,
    Cmp,
    Expr,
    FloatConst,
    For,
    If,
    IntConst,
    KernelSpec,
    Load,
    ScalarParam,
    Stmt,
    Store,
    Sync,
    UnaryOp,
    VarRef,
    evaluate_expr,
    evaluate_expr_numpy,
)
from repro.codegen import dsl
from repro.codegen.compiler import (
    CompiledKernel,
    CompiledModule,
    CompileOptions,
    compile_kernel,
    compile_module,
)
from repro.codegen.regions import Region, RegionKind, DynamicCounts
from repro.codegen.transforms.unroll import unroll_innermost

__all__ = [
    "ArrayParam",
    "Assign",
    "AtomicAdd",
    "BinOp",
    "Call",
    "Cast",
    "Cmp",
    "Expr",
    "FloatConst",
    "For",
    "If",
    "IntConst",
    "KernelSpec",
    "Load",
    "ScalarParam",
    "Stmt",
    "Store",
    "Sync",
    "UnaryOp",
    "VarRef",
    "evaluate_expr",
    "evaluate_expr_numpy",
    "dsl",
    "CompiledKernel",
    "CompiledModule",
    "CompileOptions",
    "compile_kernel",
    "compile_module",
    "Region",
    "RegionKind",
    "DynamicCounts",
    "unroll_innermost",
]
