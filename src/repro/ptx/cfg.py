"""Control-flow graph construction and analysis.

The paper's analyzer "builds a CFG to help understand flow divergence".
This module recovers basic blocks from the flat instruction stream, builds a
:class:`networkx.DiGraph` over them, and provides the structural analyses the
rest of the system needs:

- dominators and post-dominators (for SIMT reconvergence points in the
  emulator: a divergent warp reconverges at the immediate post-dominator of
  the branch block);
- natural-loop detection via back edges (for trip-count attribution and the
  static divergence estimate);
- identification of *divergence-relevant* branches: conditional branches
  whose predicate depends on the thread index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.ptx.instruction import Instruction, Label, Reg, SReg
from repro.ptx.isa import Opcode, SRegKind
from repro.ptx.module import KernelIR

ENTRY = "__entry__"
EXIT = "__exit__"


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"BasicBlock({self.name}, {len(self)} instrs)"


@dataclass
class Loop:
    """A natural loop: a back edge ``latch -> header`` plus its body."""

    header: str
    latch: str
    body: frozenset[str]
    depth: int = 1

    def __contains__(self, block: str) -> bool:
        return block in self.body


class CFG:
    """Control-flow graph over :class:`BasicBlock`.

    Nodes are block names; synthetic :data:`ENTRY` and :data:`EXIT` nodes
    bound the graph so dominator queries are total.
    """

    def __init__(self, kernel_name: str):
        self.kernel_name = kernel_name
        self.blocks: dict[str, BasicBlock] = {}
        self.block_of_label: dict[str, str] = {}
        """Label name -> owning block name.  Consecutive labels collapse
        into one block, so a branch target may be an *alias* of the block
        that carries the instructions; executors resolve through
        :meth:`resolve_label`."""
        self.graph = nx.DiGraph()
        self.graph.add_node(ENTRY)
        self.graph.add_node(EXIT)
        self._idom: dict[str, str] | None = None
        self._ipdom: dict[str, str] | None = None

    # -- construction ------------------------------------------------------

    def add_block(self, block: BasicBlock) -> None:
        if block.name in self.blocks:
            raise ValueError(f"duplicate block {block.name!r}")
        self.blocks[block.name] = block
        self.graph.add_node(block.name)
        self._idom = self._ipdom = None

    def add_edge(self, src: str, dst: str) -> None:
        self.graph.add_edge(src, dst)
        self._idom = self._ipdom = None

    # -- queries -----------------------------------------------------------

    @property
    def entry_block(self) -> str:
        succs = list(self.graph.successors(ENTRY))
        if len(succs) != 1:
            raise ValueError("CFG entry must have exactly one successor")
        return succs[0]

    def resolve_label(self, label: str) -> str:
        """The block a branch label lands in (labels collapsed into
        another block resolve to that block; block names map to
        themselves)."""
        return self.block_of_label.get(label, label)

    def successors(self, name: str) -> list[str]:
        return [s for s in self.graph.successors(name) if s != EXIT]

    def predecessors(self, name: str) -> list[str]:
        return [p for p in self.graph.predecessors(name) if p != ENTRY]

    def immediate_dominators(self) -> dict[str, str]:
        if self._idom is None:
            self._idom = nx.immediate_dominators(self.graph, ENTRY)
        return self._idom

    def immediate_post_dominators(self) -> dict[str, str]:
        """Immediate post-dominators, computed on the reversed graph."""
        if self._ipdom is None:
            rev = self.graph.reverse(copy=False)
            self._ipdom = nx.immediate_dominators(rev, EXIT)
        return self._ipdom

    def reconvergence_point(self, block: str) -> str:
        """The SIMT reconvergence point for a branch in ``block``: its
        immediate post-dominator (EXIT if control never rejoins)."""
        return self.immediate_post_dominators().get(block, EXIT)

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b``."""
        idom = self.immediate_dominators()
        node = b
        while node != ENTRY:
            if node == a:
                return True
            node = idom.get(node, ENTRY)
            if node == idom.get(node):  # reached root
                return node == a
        return a == ENTRY

    def back_edges(self) -> list[tuple[str, str]]:
        """Edges ``latch -> header`` where the header dominates the latch."""
        out = []
        for src, dst in self.graph.edges():
            if src in (ENTRY, EXIT) or dst in (ENTRY, EXIT):
                continue
            if self.dominates(dst, src):
                out.append((src, dst))
        return out

    def natural_loops(self) -> list[Loop]:
        """All natural loops, with nesting depth computed by containment."""
        loops: list[Loop] = []
        for latch, header in self.back_edges():
            body = {header, latch}
            stack = [latch]
            while stack:
                node = stack.pop()
                if node == header:
                    continue
                for pred in self.predecessors(node):
                    if pred not in body:
                        body.add(pred)
                        stack.append(pred)
            loops.append(Loop(header=header, latch=latch, body=frozenset(body)))
        for loop in loops:
            loop.depth = sum(
                1
                for other in loops
                if other is not loop and loop.body < other.body
            ) + 1
        return loops

    def conditional_branch_blocks(self) -> list[str]:
        """Blocks ending in a conditional branch (two CFG successors)."""
        return [
            name
            for name, blk in self.blocks.items()
            if blk.terminator is not None and blk.terminator.is_conditional_branch
        ]

    def divergent_branch_blocks(self) -> list[str]:
        """Conditional-branch blocks whose predicate is (transitively)
        derived from a per-thread special register.

        This is the static divergence test: a branch on a value that differs
        across lanes of a warp can serialize execution (paper Fig. 1), while
        a branch on block-uniform values cannot.
        """
        tainted = self._thread_dependent_registers()
        out = []
        for name in self.conditional_branch_blocks():
            pred = self.blocks[name].terminator.pred
            if pred is not None and pred.name in tainted:
                out.append(name)
        return out

    def _thread_dependent_registers(self) -> set[str]:
        """Fixed-point taint from ``%tid``/``%laneid`` through dataflow."""
        tainted: set[str] = set()
        instrs = [
            ins for blk in self.blocks.values() for ins in blk.instructions
        ]
        changed = True
        while changed:
            changed = False
            for ins in instrs:
                if ins.dst is None:
                    continue
                src_tainted = False
                for s in ins.srcs:
                    if isinstance(s, SReg) and s.kind in (
                        SRegKind.TID_X,
                        SRegKind.TID_Y,
                        SRegKind.LANEID,
                    ):
                        src_tainted = True
                    elif isinstance(s, Reg) and s.name in tainted:
                        src_tainted = True
                if ins.opcode is Opcode.LD:
                    # loads from thread-dependent addresses yield
                    # thread-dependent values
                    for s in ins.srcs:
                        base = getattr(s, "base", None)
                        if base is not None and base.name in tainted:
                            src_tainted = True
                if src_tainted and ins.dst.name not in tainted:
                    tainted.add(ins.dst.name)
                    changed = True
        return tainted

    # -- statistics -----------------------------------------------------------

    def block_count(self) -> int:
        return len(self.blocks)


def build_cfg(kernel: KernelIR) -> CFG:
    """Partition a kernel body into basic blocks and wire the CFG.

    Leaders are: the first instruction, every labelled position, and every
    instruction following a terminator.  Fall-through edges connect blocks
    whose last instruction is not an unconditional branch/exit.
    """
    body = kernel.body
    cfg = CFG(kernel.name)
    if not any(isinstance(it, Instruction) for it in body):
        raise ValueError(f"kernel {kernel.name!r} has an empty body")

    blocks: list[BasicBlock] = []
    block_of_label: dict[str, str] = {}
    cur: BasicBlock | None = None
    anon = 0

    def fresh_name() -> str:
        nonlocal anon
        anon += 1
        return f"$B{anon}"

    pending_labels: list[str] = []
    for item in body:
        if isinstance(item, Label):
            pending_labels.append(item.name)
            cur = None  # labels always start a new block
            continue
        if cur is None:
            name = pending_labels[0] if pending_labels else fresh_name()
            cur = BasicBlock(name=name)
            blocks.append(cur)
            for lbl in pending_labels:
                block_of_label[lbl] = name
            pending_labels = []
        cur.instructions.append(item)
        if item.is_terminator:
            cur = None
    if pending_labels:
        # trailing labels with no instructions: bind to synthetic empty block
        name = pending_labels[0]
        blk = BasicBlock(name=name)
        blocks.append(blk)
        for lbl in pending_labels:
            block_of_label[lbl] = name

    for blk in blocks:
        cfg.add_block(blk)
    cfg.block_of_label.update(block_of_label)
    cfg.add_edge(ENTRY, blocks[0].name)

    for i, blk in enumerate(blocks):
        term = blk.terminator
        next_name = blocks[i + 1].name if i + 1 < len(blocks) else None
        if term is None:
            if next_name is not None:
                cfg.add_edge(blk.name, next_name)
            else:
                cfg.add_edge(blk.name, EXIT)
            continue
        if term.opcode is Opcode.BRA:
            target = term.branch_target
            if target is None or target not in block_of_label:
                raise ValueError(
                    f"branch to unknown label {target!r} in {kernel.name}"
                )
            cfg.add_edge(blk.name, block_of_label[target])
            if term.is_conditional_branch:
                if next_name is not None:
                    cfg.add_edge(blk.name, next_name)
                else:
                    cfg.add_edge(blk.name, EXIT)
        else:  # ret / exit
            cfg.add_edge(blk.name, EXIT)

    # blocks with no path to EXIT (infinite loops) still need post-dominator
    # queries to terminate: connect any sink-less SCC conservatively.  One
    # reverse search finds the blocks that already reach EXIT; the others
    # are tested in body order against the growing graph, as each added
    # edge can give a later block its path.
    reaches_exit = nx.ancestors(cfg.graph, EXIT)
    for name in list(cfg.blocks):
        if name not in reaches_exit and not nx.has_path(cfg.graph, name, EXIT):
            cfg.add_edge(name, EXIT)
    return cfg
