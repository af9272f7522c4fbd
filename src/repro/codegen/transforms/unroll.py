"""Loop unrolling (the Orio ``UIF`` parameter).

``unroll_innermost(spec, k)`` rewrites every innermost *sequential* loop

.. code-block:: c

    for (j = lo; j < hi; j++) BODY(j)

into a main loop advancing by ``k`` with ``k`` replicated bodies plus a
remainder loop:

.. code-block:: c

    for (j = lo; j < lo + ((hi-lo)/k)*k; j += k) { BODY(j); ... BODY(j+k-1); }
    for (j = lo + ((hi-lo)/k)*k; j < hi; j++)    { BODY(j); }

Unrolling reduces per-iteration loop overhead (the latch add/compare/branch
triple), which is exactly the effect the tuner trades against code size and
register pressure.
"""

from __future__ import annotations

from repro.codegen.ast_nodes import (
    BinOp,
    For,
    If,
    IntConst,
    KernelSpec,
    Stmt,
    VarRef,
    substitute_stmt,
)


def _has_inner_loop(body) -> bool:
    for s in body:
        if isinstance(s, For):
            return True
        if isinstance(s, If) and (
            _has_inner_loop(s.then_body) or _has_inner_loop(s.else_body)
        ):
            return True
    return False


def unroll_loop(loop: For, factor: int) -> list[Stmt]:
    """Unroll one sequential loop; returns replacement statements."""
    if factor < 1:
        raise ValueError(f"unroll factor must be >= 1, got {factor}")
    if loop.parallel:
        raise ValueError("cannot unroll the parallel loop")
    if loop.step != 1:
        raise ValueError("can only unroll unit-stride loops")
    if factor == 1:
        return [loop]

    span = BinOp("-", loop.upper, loop.lower)
    main_trips = BinOp("//", span, IntConst(factor))
    main_extent = BinOp("*", main_trips, IntConst(factor))
    main_upper = BinOp("+", loop.lower, main_extent)

    v = VarRef(loop.var)
    main_body: list[Stmt] = []
    for j in range(factor):
        env = {} if j == 0 else {loop.var: BinOp("+", v, IntConst(j))}
        for s in loop.body:
            main_body.append(substitute_stmt(s, env) if env else s)

    main = For(
        var=loop.var,
        lower=loop.lower,
        upper=main_upper,
        body=tuple(main_body),
        step=factor,
        parallel=False,
        loop_id=f"{loop.loop_id}_u{factor}",
    )
    remainder = For(
        var=loop.var,
        lower=main_upper,
        upper=loop.upper,
        body=loop.body,
        step=1,
        parallel=False,
        loop_id=f"{loop.loop_id}_rem",
    )
    return [main, remainder]


def _rewrite(body, factor: int):
    out = []
    for s in body:
        if isinstance(s, For):
            if not s.parallel and not _has_inner_loop(s.body):
                out.extend(unroll_loop(s, factor))
            else:
                out.append(
                    For(
                        var=s.var,
                        lower=s.lower,
                        upper=s.upper,
                        body=tuple(_rewrite(s.body, factor)),
                        step=s.step,
                        parallel=s.parallel,
                        loop_id=s.loop_id,
                    )
                )
        elif isinstance(s, If):
            out.append(
                If(
                    cond=s.cond,
                    then_body=tuple(_rewrite(s.then_body, factor)),
                    else_body=tuple(_rewrite(s.else_body, factor)),
                )
            )
        else:
            out.append(s)
    return out


def unroll_innermost(spec: KernelSpec, factor: int) -> KernelSpec:
    """Return ``spec`` with every innermost sequential loop unrolled."""
    if factor == 1:
        return spec
    return KernelSpec(
        name=spec.name,
        params=spec.params,
        body=tuple(_rewrite(spec.body, factor)),
        smem_arrays=spec.smem_arrays,
    )
