"""The :class:`Kernel` container: an instruction list plus launch shape.

A kernel owns its instructions, the label table, and the static
resources it needs per thread (registers, predicates) and per CTA
(shared memory). The compiler rewrites kernels in place or via
:meth:`Kernel.clone`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.errors import IsaError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


@dataclass
class Kernel:
    """A compiled GPU kernel in the simulated ISA."""

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    #: Architected registers per thread the kernel was compiled for.
    num_regs: int = 0
    num_preds: int = 4
    shared_bytes: int = 0

    # --- construction helpers --------------------------------------------------
    def finalize(self) -> "Kernel":
        """Assign PCs, resolve branch labels, infer ``num_regs``.

        Must be called after the instruction list is complete; it is
        idempotent and returns ``self`` for chaining.
        """
        for pc, inst in enumerate(self.instructions):
            inst.pc = pc
        for inst in self.instructions:
            if inst.target is not None:
                if inst.target not in self.labels:
                    raise IsaError(
                        f"{self.name}: undefined label '{inst.target}'"
                    )
                inst.target_pc = self.labels[inst.target]
        used = self.registers_used()
        inferred = (max(used) + 1) if used else 0
        self.num_regs = max(self.num_regs, inferred)
        return self

    def clone(self) -> "Kernel":
        """Independent copy, so compiler passes can rewrite without aliasing.

        Every :class:`Instruction` field holds an immutable value (ints,
        tuples, enums, strings, the frozen :class:`PredGuard`), so a
        shallow copy of each instruction is as independent as a deep one.
        """
        return Kernel(
            name=self.name,
            instructions=[copy.copy(inst) for inst in self.instructions],
            labels=dict(self.labels),
            num_regs=self.num_regs,
            num_preds=self.num_preds,
            shared_bytes=self.shared_bytes,
        )

    # --- queries -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def registers_used(self) -> set[int]:
        """All architected register ids referenced by any instruction."""
        used: set[int] = set()
        for inst in self.instructions:
            used.update(inst.srcs)
            if inst.dst is not None:
                used.add(inst.dst)
        return used

    def static_size(self, include_meta: bool = True) -> int:
        """Static instruction count, optionally excluding pir/pbr."""
        if include_meta:
            return len(self.instructions)
        return sum(1 for i in self.instructions if not i.is_meta)

    def meta_count(self) -> int:
        """Number of pir/pbr metadata instructions embedded in the code."""
        return sum(1 for i in self.instructions if i.is_meta)

    def has_metadata(self) -> bool:
        return any(i.is_meta for i in self.instructions)

    def branch_targets(self) -> set[int]:
        """PCs that are targets of some branch."""
        return {
            i.target_pc
            for i in self.instructions
            if i.is_branch and i.target_pc is not None
        }

    def validate(self) -> None:
        """Check structural invariants; raise :class:`IsaError` on failure."""
        if not self.instructions:
            raise IsaError(f"{self.name}: empty kernel")
        for pc, inst in enumerate(self.instructions):
            if inst.pc != pc:
                raise IsaError(
                    f"{self.name}: pc mismatch at {pc} (call finalize())"
                )
            inst.validate()
            if inst.is_branch and inst.target_pc is None:
                raise IsaError(f"{self.name}: unresolved branch at pc {pc}")
            if inst.is_branch and not (
                0 <= inst.target_pc < len(self.instructions)
            ):
                raise IsaError(
                    f"{self.name}: branch target {inst.target_pc} "
                    "out of range"
                )
        if not any(i.opcode is Opcode.EXIT for i in self.instructions):
            raise IsaError(f"{self.name}: kernel has no EXIT")

    # --- formatting ---------------------------------------------------------------
    def dump(self) -> str:
        """Human-readable disassembly with labels."""
        by_pc: dict[int, list[str]] = {}
        for label, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(label)
        lines = [f".kernel {self.name}", f".regs {self.num_regs}"]
        if self.shared_bytes:
            lines.append(f".shared {self.shared_bytes}")
        for pc, inst in enumerate(self.instructions):
            for label in by_pc.get(pc, ()):
                lines.append(f"{label}:")
            lines.append(f"    {inst}")
        return "\n".join(lines)
