"""Span tracer for the benchmark's traced run.

It replaces public functions of qmemsim's modules with timing wrappers, at
the module attribute that callers look the function up under, and restores
the originals on `uninstall`. Every wrapped call records one span: its name,
start, end, the span that caused it and the operation it belongs to. Spans
are aggregated per layer as they close (calls, self time and extra counters);
the full span records of the first few operations are also kept so they can
be written out when the run ends.

A function missing from its module (removed by a later change) is reported
as absent; the traced run goes on without it.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# Spans kept in full for the trace file; later spans only feed the aggregates.
MAX_KEPT_SPANS = 20_000

PERM_KINDS = ("x", "cnot", "swap")


def gate_path(g) -> str:
    """Kernel path a GateSpec takes: perm (X/CNOT/SWAP), diag (rk, U(0,0,l)), dense."""
    if g.kind in PERM_KINDS:
        return "perm"
    if g.kind == "rk" or (g.kind == "u" and g.params[0] == 0 and g.params[1] == 0):
        return "diag"
    return "dense"


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []          # (span_id, parent_id, op_id, name, start, end)
        self.absent = []
        self.op_id = None
        self._stack = []         # [span_id, child_seconds]
        self._next_id = 1
        self._patches = []       # (owner, attr, original)

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap each traced function of the given qmemsim modules.

        `modules` maps a short name ("statevec", "qram", "memdev",
        "interpreter", "parser") to the imported module.
        """
        sv = modules["statevec"]
        qram = modules["qram"]
        memdev = modules["memdev"]
        interp = modules["interpreter"]
        parser = modules["parser"]

        def apply_gate_name(args, kwargs):
            state, g = args[0], args[1]
            path = gate_path(g)
            name = f"statevec.apply_gate.{path}"
            self.counters[name + ".amps"] += 1 << (state.num_qubits - len(g.controls))
            return name

        def check_mode_after(args, kwargs, result, seconds):
            direction = args[1].direction.value
            self.total_s[f"qram.check_mode.{direction}"] += seconds

        def router_gates_after(args, kwargs, result, seconds):
            self.counters["qram.build_router_program.gates"] += len(result)

        def trace_gates_after(args, kwargs, result, seconds):
            self.counters["qmasm.trace.gates"] += sum(
                1 for r in result for e in r.trace if e[0] == "gate")

        def router_support_before(args, kwargs):
            self.counters["qram.router_input.support"] += int(
                np.count_nonzero(args[1].amps))

        plan = [
            (sv, "apply_gate", apply_gate_name, None, None),
            (sv, "apply_gates_elided", "statevec.apply_gates_elided", None, None),
            (sv, "init_state", "statevec.init_state", None, None),
            (sv, "embed_low", "statevec.embed_low", None, None),
            (sv, "reduced_purity", "statevec.reduced_purity", None, None),
            (sv, "measure_qubit", "statevec.measure", None, None),
            (sv, "postselect_qubit", "statevec.measure", None, None),
            (qram, "prepare_mode_input", "qram.prepare_mode_input", None, None),
            (qram, "apply_mode", "qram.apply_mode", None, None),
            (qram, "entanglement_profile", "qram.entanglement_profile", None, None),
            (qram, "run_circuit_mode", "qram.run_circuit_mode",
             router_support_before, None),
            (qram, "check_mode", "qram.check_mode", None, check_mode_after),
            (qram, "build_router_program", "qram.build_router_program",
             None, router_gates_after),
            (memdev, "raqm_store", "memdev.raqm_store", None, None),
            (memdev, "raqm_load", "memdev.raqm_load", None, None),
            (memdev, "memory_dump", "memdev.memory_dump", None, None),
            # the interpreter binds `validate` at import and calls `execute`
            # through its own globals, so both are wrapped there
            (interp, "validate", "qmasm.validate", None, None),
            (interp, "execute", "qmasm.execute", None, None),
            (interp, "run_shots", "qmasm.run_shots", None, trace_gates_after),
            (parser, "parse_program", "qmasm.parse_program", None, None),
        ]
        self.absent = []
        for owner, attr, name, before, after in plan:
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, before, after))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                # bookkeeping runs inside a hidden child span, so it is
                # excluded from the caller's self time
                t0 = time.perf_counter()
                before(args, kwargs)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t0
            label = name(args, kwargs) if callable(name) else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = tracer._stack[-1][0] if tracer._stack else 0
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                seconds = end - start
                tracer.calls[label] += 1
                tracer.self_s[label] += seconds - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += seconds
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append(
                        (span_id, parent_id, tracer.op_id, label, start, end))
            if after is not None:
                t0 = time.perf_counter()
                after(args, kwargs, result, seconds)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def span_records(self):
        return [{"id": s, "parent": p, "op": o, "name": nm, "start": a, "end": b}
                for s, p, o, nm, a, b in self.spans]
