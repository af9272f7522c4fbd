"""Tests for CFG construction, dominators, loops, divergence detection."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyze import analyze_kernel
from repro.analyze.values import LaunchContext
from repro.arch import ALL_GPUS, K20
from repro.codegen.compiler import CompileOptions, compile_kernel, compile_module
from repro.kernels import get_benchmark, list_benchmarks
from repro.ptx.cfg import CFG, ENTRY, EXIT, BasicBlock, build_cfg
from repro.ptx.parser import parse_kernel
from repro.ptx.verifier import verify_kernel

LOOP_KERNEL = """
.kernel loopk(.param .s32 N, .param .f32* x)
.reg 8
.shared 0
.target sm_35
{
  ld.param.s32 %r1, [N];
  ld.param.s64 %rd1, [x];
  mov.s32 %r2, 0;
  setp.ge.s32 %p1, %r2, %r1;
  @%p1 bra $L_exit;
$L_loop:
  add.s32 %r2, %r2, 1;
  setp.lt.s32 %p1, %r2, %r1;
  @%p1 bra $L_loop;
$L_exit:
  exit;
}
"""

DIVERGE_KERNEL = """
.kernel divk(.param .f32* x)
.reg 8
.shared 0
.target sm_35
{
  ld.param.s64 %rd1, [x];
  mov.s32 %r1, %tid.x;
  and.s32 %r2, %r1, 1;
  setp.eq.s32 %p1, %r2, 0;
  @!%p1 bra $L_else;
  mov.f32 %f1, 1.0;
  bra $L_end;
$L_else:
  mov.f32 %f1, 2.0;
$L_end:
  mul.wide.s32 %rd2, %r1, 4;
  add.s64 %rd3, %rd1, %rd2;
  st.global.f32 [%rd3], %f1;
  exit;
}
"""

UNIFORM_BRANCH_KERNEL = """
.kernel unik(.param .s32 N, .param .f32* x)
.reg 8
.shared 0
.target sm_35
{
  ld.param.s32 %r1, [N];
  ld.param.s64 %rd1, [x];
  setp.gt.s32 %p1, %r1, 10;
  @!%p1 bra $L_end;
  mov.f32 %f1, 1.0;
  st.global.f32 [%rd1], %f1;
$L_end:
  exit;
}
"""


class TestBlockStructure:
    def test_loop_kernel_blocks(self):
        cfg = build_cfg(parse_kernel(LOOP_KERNEL))
        assert len(cfg.blocks) == 3  # preamble, loop, exit
        assert "$L_loop" in cfg.blocks
        assert "$L_exit" in cfg.blocks

    def test_entry_and_exit_wiring(self):
        cfg = build_cfg(parse_kernel(LOOP_KERNEL))
        assert cfg.entry_block not in (ENTRY, EXIT)
        assert (ENTRY, cfg.entry_block) in cfg.edges()

    def test_successors_of_conditional(self):
        cfg = build_cfg(parse_kernel(DIVERGE_KERNEL))
        entry = cfg.entry_block
        succ = set(cfg.successors(entry))
        assert "$L_else" in succ
        assert len(succ) == 2

    def test_empty_body_rejected(self):
        from repro.ptx.module import KernelIR

        with pytest.raises(ValueError, match="empty body"):
            build_cfg(KernelIR("k", (), []))


class TestDominators:
    def test_loop_header_dominates_latch(self):
        cfg = build_cfg(parse_kernel(LOOP_KERNEL))
        assert cfg.dominates(cfg.entry_block, "$L_loop")
        assert cfg.dominates("$L_loop", "$L_loop")
        assert not cfg.dominates("$L_exit", "$L_loop")

    def test_back_edge_detection(self):
        cfg = build_cfg(parse_kernel(LOOP_KERNEL))
        assert cfg.back_edges() == [("$L_loop", "$L_loop")]

    def test_natural_loops(self):
        cfg = build_cfg(parse_kernel(LOOP_KERNEL))
        loops = cfg.natural_loops()
        assert len(loops) == 1
        assert loops[0].header == "$L_loop"
        assert loops[0].depth == 1
        assert "$L_loop" in loops[0]

    def test_nested_loop_depth(self, matvec_spec):
        ck = compile_kernel(matvec_spec, CompileOptions(gpu=K20))
        cfg = build_cfg(ck.ir)
        loops = cfg.natural_loops()
        assert len(loops) == 2  # grid-stride loop + inner j loop
        assert sorted(lp.depth for lp in loops) == [1, 2]

    def test_reconvergence_point_of_if(self):
        cfg = build_cfg(parse_kernel(DIVERGE_KERNEL))
        entry = cfg.entry_block
        assert cfg.reconvergence_point(entry) == "$L_end"


class TestDivergence:
    def test_tid_dependent_branch_flagged(self):
        cfg = build_cfg(parse_kernel(DIVERGE_KERNEL))
        assert cfg.divergent_branch_blocks() == [cfg.entry_block]

    def test_uniform_branch_not_flagged(self):
        cfg = build_cfg(parse_kernel(UNIFORM_BRANCH_KERNEL))
        assert cfg.conditional_branch_blocks()  # it IS conditional
        assert cfg.divergent_branch_blocks() == []  # but not divergent

    def test_ex14fj_boundary_branch_divergent(self):
        bm = get_benchmark("ex14fj")
        ck = compile_kernel(bm.specs[0], CompileOptions(gpu=K20))
        cfg = build_cfg(ck.ir)
        # grid-stride guard + boundary check are both thread-dependent
        assert len(cfg.divergent_branch_blocks()) >= 2


def deep_kernel(steps: int) -> str:
    """A chain of ``steps`` forward branches, each skipping one add:
    ``2 * steps + 1`` blocks."""
    body = "\n".join(
        f"  @%p1 bra $L{i};\n  add.s32 %r2, %r2, 1;\n$L{i}:"
        for i in range(1, steps + 1)
    )
    return f"""
.kernel deep(.param .s32 N)
.reg 8
.shared 0
.target sm_35
{{
  ld.param.s32 %r1, [N];
  mov.s32 %r2, 0;
  setp.gt.s32 %p1, %r1, 0;
{body}
  exit;
}}
"""


class TestDeepCFG:
    def test_verify_and_lint_a_2401_block_kernel(self):
        # deeper than the interpreter's recursion limit: every walk
        # (reverse postorder, dominators, reachability) must be iterative
        kernel = parse_kernel(deep_kernel(1200))
        assert len(build_cfg(kernel).blocks) == 2401
        verify_kernel(kernel)
        report = analyze_kernel(kernel, LaunchContext(tc=32, bc=1,
                                                      params={"N": 1}))
        assert report.diagnostics == []


# -- graph code against its definitions ---------------------------------


def _reachable(adj: dict, root, removed=None) -> set:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node == removed or node in seen:
            continue
        seen.add(node)
        stack.extend(adj[node])
    return seen


def brute_force_idom(adj: dict, root) -> dict:
    """``d`` dominates ``n`` when ``n`` cannot be reached from the root
    once ``d`` is removed; the immediate dominator is the strict
    dominator that every other strict dominator dominates."""
    live = _reachable(adj, root)
    strict = {
        n: {d for d in live
            if d != n and n not in _reachable(adj, root, removed=d)}
        for n in live
    }
    return {
        n: next(d for d in doms
                if all(o == d or o in strict[d] for o in doms))
        for n, doms in strict.items() if doms
    }


def recursive_reverse_postorder(cfg: CFG) -> list[str]:
    seen: set[str] = set()
    order: list[str] = []

    def visit(name: str) -> None:
        seen.add(name)
        for succ in cfg.successors(name):
            if succ not in seen:
                visit(succ)
        order.append(name)

    visit(cfg.entry_block)
    for name in cfg.blocks:
        if name not in seen:
            visit(name)
    order.reverse()
    return order


def corpus_cfgs():
    """Every registered benchmark x GPU x UIF {1, 3} x fast-math."""
    for bm in list_benchmarks():
        for gpu in ALL_GPUS:
            for uif in (1, 3):
                for fast_math in (False, True):
                    options = CompileOptions(gpu=gpu, unroll_factor=uif,
                                             fast_math=fast_math)
                    for ck in compile_module(bm.name, list(bm.specs),
                                             options):
                        yield build_cfg(ck.ir)


def assert_dominators_match(cfg: CFG) -> None:
    assert cfg.immediate_dominators() == brute_force_idom(cfg.succ, ENTRY)
    assert cfg.immediate_post_dominators() == brute_force_idom(cfg.pred,
                                                               EXIT)


class TestGraphAgainstDefinitions:
    def test_corpus_dominators_and_reverse_postorder(self):
        count = 0
        for cfg in corpus_cfgs():
            assert_dominators_match(cfg)
            assert cfg.reverse_postorder() == recursive_reverse_postorder(cfg)
            count += 1
        assert count >= 15 * 4 * 2 * 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=3 * n),
        st.sets(st.integers(0, n - 1)),
    )))
    def test_random_digraphs(self, graph):
        # unreachable nodes, self-loops, duplicate edges and cycles with
        # no way out all occur: nothing wires the graph the way
        # build_cfg does
        n, edges, exits = graph
        cfg = CFG("random")
        for i in range(n):
            cfg.add_block(BasicBlock(f"b{i}"))
        cfg.add_edge(ENTRY, "b0")
        for a, b in edges + edges[:2]:
            cfg.add_edge(f"b{a}", f"b{b}")
        for i in sorted(exits):
            cfg.add_edge(f"b{i}", EXIT)
        expected = list(dict.fromkeys(
            [(ENTRY, "b0")]
            + [(f"b{a}", f"b{b}") for a, b in edges]
            + [(f"b{i}", EXIT) for i in sorted(exits)]
        ))
        assert sorted(cfg.edges()) == sorted(expected)
        for node, succs in cfg.succ.items():
            assert succs == [b for a, b in expected if a == node]
            assert cfg.pred[node] == [a for a, b in expected if b == node]
        assert_dominators_match(cfg)


_NETWORKX_PROBE = """
import sys
if {blocked}:
    sys.modules["networkx"] = None  # any import of networkx now fails

import repro.analyze
import repro.api
import repro.experiments.runner
import repro.service.server
from repro.analyze import lint_benchmark, unexpected_diagnostics
from repro.arch import K20
from repro.codegen.compiler import CompileOptions, compile_module
from repro.kernels import get_benchmark
from repro.ptx.verifier import verify_kernel

bench = get_benchmark("atax")
for ck in compile_module(bench.name, list(bench.specs),
                         CompileOptions(gpu=K20)):
    verify_kernel(ck.ir)
assert not unexpected_diagnostics(bench, lint_benchmark(bench))
if not {blocked}:
    assert "networkx" not in sys.modules, "networkx was imported"
print("ok")
"""


@pytest.mark.parametrize("blocked", [True, False],
                         ids=["networkx-blocked", "networkx-unused"])
def test_runs_without_networkx(blocked):
    """The declared runtime dependencies are enough: with networkx
    unimportable the package imports, compiles, verifies and lints, and
    where networkx is installed nothing imports it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NETWORKX_PROBE.format(blocked=blocked)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
