"""Kernel container tests: finalize, validate, queries."""

import dataclasses

import pytest

from repro.arch import GPUConfig
from repro.cache.fingerprint import canonicalize
from repro.compiler import compile_kernel
from repro.errors import IsaError
from repro.isa import Instruction, Kernel, Opcode, assemble
from repro.workloads.suite import all_workload_names, get_workload


def test_finalize_assigns_pcs(straight_kernel):
    for pc, inst in enumerate(straight_kernel.instructions):
        assert inst.pc == pc


def test_finalize_infers_num_regs(straight_kernel):
    assert straight_kernel.num_regs == 4


def test_finalize_keeps_declared_regs_when_larger():
    kernel = assemble(".kernel k\n.regs 12\nMOVI r0, 1\nEXIT")
    assert kernel.num_regs == 12


def test_registers_used(diamond_kernel):
    assert diamond_kernel.registers_used() == {0, 1, 2}


def test_static_size_excludes_meta():
    kernel = Kernel("k")
    kernel.instructions = [
        Instruction(Opcode.PIR),
        Instruction(Opcode.MOVI, dst=0, imm=1),
        Instruction(Opcode.EXIT),
    ]
    kernel.finalize()
    assert kernel.static_size() == 3
    assert kernel.static_size(include_meta=False) == 2
    assert kernel.meta_count() == 1
    assert kernel.has_metadata()


def test_branch_targets(loop_kernel):
    assert loop_kernel.branch_targets() == {3}


def test_validate_rejects_empty():
    with pytest.raises(IsaError):
        Kernel("k").validate()


def test_validate_rejects_missing_exit():
    kernel = Kernel("k")
    kernel.instructions = [Instruction(Opcode.NOP)]
    kernel.finalize()
    with pytest.raises(IsaError):
        kernel.validate()


def test_validate_rejects_unresolved_branch():
    kernel = Kernel("k")
    kernel.instructions = [
        Instruction(Opcode.BRA, target_pc=99),
        Instruction(Opcode.EXIT),
    ]
    kernel.finalize()
    with pytest.raises(IsaError):
        kernel.validate()


def test_validate_rejects_stale_pcs(straight_kernel):
    straight_kernel.instructions.insert(
        0, Instruction(Opcode.NOP)
    )
    with pytest.raises(IsaError):
        straight_kernel.validate()


def test_clone_is_deep(loop_kernel):
    clone = loop_kernel.clone()
    clone.instructions[0].dst = 7
    assert loop_kernel.instructions[0].dst != 7
    clone.labels["extra"] = 0
    assert "extra" not in loop_kernel.labels


@pytest.mark.parametrize("name", all_workload_names())
def test_clone_is_independent_for_every_workload(name):
    workload = get_workload(name, scale=0.5)
    compiled = compile_kernel(
        workload.kernel, workload.launch, GPUConfig.shrunk(0.5)
    ).kernel
    for kernel in (workload.kernel, compiled):
        # clone() copies each instruction shallowly; that is sound
        # only while every field holds an immutable value.
        for inst in kernel.instructions:
            hash(tuple(
                getattr(inst, f.name) for f in dataclasses.fields(inst)
            ))
        before = canonicalize(kernel)
        labels = dict(kernel.labels)
        clone = kernel.clone()
        assert canonicalize(clone) == before
        assert clone.labels == labels and clone.name == kernel.name
        for inst in clone.instructions:
            inst.release_srcs = (True,) * (len(inst.srcs) + 1)
        clone.labels["__extra"] = 0
        assert canonicalize(kernel) == before
        assert kernel.labels == labels


def test_undefined_label_raises():
    kernel = Kernel("k")
    kernel.instructions = [
        Instruction(Opcode.BRA, target="missing"),
        Instruction(Opcode.EXIT),
    ]
    with pytest.raises(IsaError):
        kernel.finalize()


def test_dump_includes_directives():
    kernel = assemble(".kernel k\n.shared 64\nMOVI r0, 1\nEXIT")
    text = kernel.dump()
    assert ".kernel k" in text
    assert ".shared 64" in text
