"""JSON (de)serialization of fuzz programs.

A reproducer file is self-contained: the kernel AST, the launch shape,
and the concrete input arrays, so a failure found by a nightly campaign
replays in a unit test with zero regeneration logic.  The encoding is a
plain tagged tree (``{"t": "BinOp", ...}``) with dtypes by their ISA
value string and arrays inlined as lists -- minimized programs are tiny,
so readability beats compactness.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.codegen.ast_nodes import (
    ArrayParam,
    Assign,
    AtomicAdd,
    BinOp,
    BoolOp,
    Cast,
    Cmp,
    FloatConst,
    For,
    If,
    IntConst,
    KernelSpec,
    Load,
    NotOp,
    ScalarParam,
    Store,
    Sync,
    UnaryOp,
    VarRef,
)
from repro.fuzz.generator import FuzzProgram
from repro.ptx.isa import DType

SCHEMA = 1


def _enc(node):
    t = type(node).__name__
    if isinstance(node, IntConst):
        return {"t": t, "value": node.value, "dtype": node.dtype.value}
    if isinstance(node, FloatConst):
        return {"t": t, "value": node.value, "dtype": node.dtype.value}
    if isinstance(node, VarRef):
        return {"t": t, "name": node.name, "dtype": node.dtype.value}
    if isinstance(node, (BinOp, Cmp, BoolOp)):
        return {"t": t, "op": node.op, "left": _enc(node.left),
                "right": _enc(node.right)}
    if isinstance(node, UnaryOp):
        return {"t": t, "op": node.op, "operand": _enc(node.operand)}
    if isinstance(node, NotOp):
        return {"t": t, "operand": _enc(node.operand)}
    if isinstance(node, Cast):
        return {"t": t, "to": node.to.value, "operand": _enc(node.operand)}
    if isinstance(node, Load):
        return {"t": t, "array": node.array, "index": _enc(node.index),
                "dtype": node.elem_dtype.value}
    if isinstance(node, Assign):
        return {"t": t, "var": node.var, "expr": _enc(node.expr)}
    if isinstance(node, Store):
        return {"t": t, "array": node.array, "index": _enc(node.index),
                "value": _enc(node.value)}
    if isinstance(node, AtomicAdd):
        return {"t": t, "array": node.array, "index": _enc(node.index),
                "value": _enc(node.value)}
    if isinstance(node, For):
        return {"t": t, "var": node.var, "lower": _enc(node.lower),
                "upper": _enc(node.upper),
                "body": [_enc(s) for s in node.body],
                "step": node.step, "parallel": node.parallel}
    if isinstance(node, If):
        return {"t": t, "cond": _enc(node.cond),
                "then": [_enc(s) for s in node.then_body],
                "else": [_enc(s) for s in node.else_body]}
    if isinstance(node, Sync):
        return {"t": t}
    raise TypeError(f"cannot serialize {t}")


def _dec(d):
    t = d["t"]
    if t == "IntConst":
        return IntConst(int(d["value"]), DType(d["dtype"]))
    if t == "FloatConst":
        return FloatConst(float(d["value"]), DType(d["dtype"]))
    if t == "VarRef":
        return VarRef(d["name"], DType(d["dtype"]))
    if t == "BinOp":
        return BinOp(d["op"], _dec(d["left"]), _dec(d["right"]))
    if t == "Cmp":
        return Cmp(d["op"], _dec(d["left"]), _dec(d["right"]))
    if t == "BoolOp":
        return BoolOp(d["op"], _dec(d["left"]), _dec(d["right"]))
    if t == "UnaryOp":
        return UnaryOp(d["op"], _dec(d["operand"]))
    if t == "NotOp":
        return NotOp(_dec(d["operand"]))
    if t == "Cast":
        return Cast(DType(d["to"]), _dec(d["operand"]))
    if t == "Load":
        return Load(d["array"], _dec(d["index"]), DType(d["dtype"]))
    if t == "Assign":
        return Assign(d["var"], _dec(d["expr"]))
    if t == "Store":
        return Store(d["array"], _dec(d["index"]), _dec(d["value"]))
    if t == "AtomicAdd":
        return AtomicAdd(d["array"], _dec(d["index"]), _dec(d["value"]))
    if t == "For":
        return For(d["var"], _dec(d["lower"]), _dec(d["upper"]),
                   tuple(_dec(s) for s in d["body"]),
                   step=d["step"], parallel=d["parallel"])
    if t == "If":
        return If(_dec(d["cond"]),
                  tuple(_dec(s) for s in d["then"]),
                  tuple(_dec(s) for s in d["else"]))
    if t == "Sync":
        return Sync()
    raise TypeError(f"cannot deserialize {t!r}")


def program_to_json(program: FuzzProgram, note: str = "") -> dict:
    spec = program.spec
    inputs = {}
    for name, v in program.inputs.items():
        if isinstance(v, np.ndarray):
            inputs[name] = {
                "dtype": str(v.dtype),
                "data": [float(x) if v.dtype.kind == "f" else int(x)
                         for x in v],
            }
        else:
            inputs[name] = int(v)
    return {
        "schema": SCHEMA,
        "seed": program.seed,
        "note": note or program.note,
        "tc": program.tc,
        "bc": program.bc,
        "output_names": list(program.output_names),
        "spec": {
            "name": spec.name,
            "params": [
                {"kind": "array", "name": p.name,
                 "dtype": p.elem_dtype.value}
                if isinstance(p, ArrayParam)
                else {"kind": "scalar", "name": p.name,
                      "dtype": p.dtype.value}
                for p in spec.params
            ],
            "smem": [[name, count, dt.value]
                     for name, count, dt in spec.smem_arrays],
            "body": [_enc(s) for s in spec.body],
        },
        "inputs": inputs,
    }


def program_from_json(doc: dict) -> FuzzProgram:
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown fuzz schema {doc.get('schema')!r}")
    sd = doc["spec"]
    params = tuple(
        ArrayParam(p["name"], DType(p["dtype"])) if p["kind"] == "array"
        else ScalarParam(p["name"], DType(p["dtype"]))
        for p in sd["params"]
    )
    spec = KernelSpec(
        name=sd["name"],
        params=params,
        body=tuple(_dec(s) for s in sd["body"]),
        smem_arrays=tuple(
            (name, int(count), DType(dt)) for name, count, dt in sd["smem"]
        ),
    )
    inputs = {}
    for name, v in doc["inputs"].items():
        if isinstance(v, dict):
            inputs[name] = np.array(v["data"], dtype=np.dtype(v["dtype"]))
        else:
            inputs[name] = int(v)
    return FuzzProgram(
        spec=spec, tc=int(doc["tc"]), bc=int(doc["bc"]), inputs=inputs,
        output_names=tuple(doc["output_names"]), seed=doc.get("seed"),
        note=doc.get("note", ""),
    )


def dump_program(program: FuzzProgram, path: str, note: str = "") -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(program_to_json(program, note=note), fh, indent=1)
        fh.write("\n")


def load_program(path: str) -> FuzzProgram:
    with open(path, encoding="utf-8") as fh:
        return program_from_json(json.load(fh))
