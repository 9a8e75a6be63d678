"""Property: translation is invisible on randomly generated programs.

Hypothesis assembles short random bodies inside hot loops (so the
basic-block translator actually fires: blocks only compile after
``HEAT_THRESHOLD`` executions), runs each program interpreter-only and
translator-enabled on identical machines, and asserts the two runs are
indistinguishable: same architectural digest, same full-system digest,
same cycle count, and same performance counters.  Bodies deliberately
include faultable instructions - division by a possibly-zero register
and occasionally misaligned word accesses - so the translator's
exception flush path is exercised, not just the happy path.

Three program/machine shapes are covered:

- straight-line bodies in one hot loop (the original property);
- nested loops with FLD/FST double-word traffic - taken backward
  branches inside a translated region are exactly what loop superblocks
  chain across, and the fp paths ride the double-word inline fast path;
- taint armed mid-run (a real bit flipped into any of the six
  components plus the taint probes a lifetime-event campaign installs):
  the translated engine must replay data-side probe notifications
  bit-identically, down to the cycle stamps in the lifetime-event
  stream, and fetch-side (ITLB / L1I) taint must refuse exactly the
  blocks that would fetch it.  Random bits rarely hit live code, so an
  *aimed* variant flips the live ITLB entry of the code page or the L1I
  line at the current pc, which is what makes the per-block fetch-taint
  guard actually refuse.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection.components import (
    Component,
    component_bits,
    component_target,
)
from repro.isa.assembler import Assembler
from repro.kernel.layout import DEFAULT_LAYOUT, PAGE_SHIFT
from repro.microarch.config import SCALED_A9_CONFIG
from repro.microarch.digest import arch_digest, system_digest
from repro.microarch.profile import execution_profile, format_profile
from repro.microarch.system import PerfCounters, System
from repro.microarch.tlb import PERM_FIELD, PPN_FIELD
from repro.microarch.translate import attach_translator
from repro.observability.events import EV_FLIP, EV_READ, FaultLifetime, first_event
from repro.observability.taint import install_taint

#: r0-r9 are scratch; r10 is the loop counter, r11 the data-buffer base.
SCRATCH = st.integers(0, 9)

ALU3 = ("add", "sub", "mul", "and", "orr", "eor", "lsl", "lsr", "asr", "mov")
ALUI = ("addi", "subi", "muli", "andi", "orri", "eori")
SHIFTI = ("lsli", "lsri", "asri")


@st.composite
def _instruction(draw) -> str:
    kind = draw(
        st.sampled_from(
            ["alu3", "alui", "shifti", "movi", "cmp", "cmpi", "divmod"]
            + ["load", "store"] * 2
        )
    )
    rd, rs1, rs2 = draw(SCRATCH), draw(SCRATCH), draw(SCRATCH)
    if kind == "alu3":
        op = draw(st.sampled_from(ALU3))
        if op == "mov":
            return f"mov r{rd}, r{rs1}"
        return f"{op} r{rd}, r{rs1}, r{rs2}"
    if kind == "alui":
        return f"{draw(st.sampled_from(ALUI))} r{rd}, r{rs1}, {draw(st.integers(0, 255))}"
    if kind == "shifti":
        return f"{draw(st.sampled_from(SHIFTI))} r{rd}, r{rs1}, {draw(st.integers(0, 15))}"
    if kind == "movi":
        return f"movi r{rd}, {draw(st.integers(0, 32767))}"
    if kind == "cmp":
        return f"cmp r{rs1}, r{rs2}"
    if kind == "cmpi":
        return f"cmpi r{rs1}, {draw(st.integers(0, 255))}"
    if kind == "divmod":
        # rs2 may hold zero: both executions must take the same
        # ArithmeticFault path into the kernel.
        return f"{draw(st.sampled_from(('div', 'mod')))} r{rd}, r{rs1}, r{rs2}"
    if kind == "load":
        if draw(st.booleans()):
            return f"ldw r{rd}, [r11, {draw(st.integers(0, 62)) * 4}]"
        return f"ldb r{rd}, [r11, {draw(st.integers(0, 255))}]"
    if draw(st.booleans()):
        # Rarely misaligned: exercises the AlignmentFault flush path.
        offset = draw(st.integers(0, 62)) * 4 if draw(st.integers(0, 9)) else 2
        return f"stw r{rd}, [r11, {offset}]"
    return f"stb r{rd}, [r11, {draw(st.integers(0, 255))}]"


@st.composite
def _program(draw) -> str:
    seeds = [
        f"    movi r{reg}, {draw(st.integers(0, 32767))}" for reg in range(10)
    ]
    body = [f"    {draw(_instruction())}" for _ in range(draw(st.integers(1, 16)))]
    iterations = draw(st.integers(24, 48))
    lines = [
        "_start:",
        "    la   r11, buf",
        *seeds,
        f"    movi r10, {iterations}",
        "loop:",
        *body,
        "    subi r10, r10, 1",
        "    cmpi r10, 0",
        "    bne  loop",
        "    movi r0, 0",
        "    movi r7, 0",
        "    syscall",
        "    .data",
        "buf: .space 256",
    ]
    return "\n".join(lines) + "\n"


#: Nested-loop scratch: r8 is spare, r9 the inner counter, r10 the
#: outer counter, r11 the int buffer base, r12 the fp buffer base (and
#: the assembler's ``la`` scratch, so it is written last).
NESTED_SCRATCH = st.integers(0, 7)


@st.composite
def _nested_instruction(draw) -> str:
    kind = draw(
        st.sampled_from(
            ["alu3", "alui", "movi", "load", "store"]
            + ["fld", "fst", "fp3"] * 2
        )
    )
    rd, rs1, rs2 = draw(NESTED_SCRATCH), draw(NESTED_SCRATCH), draw(NESTED_SCRATCH)
    fd, fs1, fs2 = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "alu3":
        op = draw(st.sampled_from(ALU3))
        if op == "mov":
            return f"mov r{rd}, r{rs1}"
        return f"{op} r{rd}, r{rs1}, r{rs2}"
    if kind == "alui":
        return f"{draw(st.sampled_from(ALUI))} r{rd}, r{rs1}, {draw(st.integers(0, 255))}"
    if kind == "movi":
        return f"movi r{rd}, {draw(st.integers(0, 32767))}"
    if kind == "load":
        return f"ldw r{rd}, [r11, {draw(st.integers(0, 62)) * 4}]"
    if kind == "store":
        return f"stw r{rd}, [r11, {draw(st.integers(0, 62)) * 4}]"
    if kind == "fld":
        return f"fld f{fd}, [r12, {draw(st.integers(0, 7)) * 8}]"
    if kind == "fst":
        return f"fst f{fd}, [r12, {draw(st.integers(0, 7)) * 8}]"
    op = draw(st.sampled_from(("fadd", "fsub", "fmul")))
    return f"{op} f{fd}, f{fs1}, f{fs2}"


@st.composite
def _nested_program(draw) -> str:
    """Two nested hot loops with int + double-word fp traffic."""
    seeds = [
        f"    movi r{reg}, {draw(st.integers(0, 32767))}" for reg in range(8)
    ]
    inner_body = [
        f"    {draw(_nested_instruction())}"
        for _ in range(draw(st.integers(1, 8)))
    ]
    outer_tail = [
        f"    {draw(_nested_instruction())}"
        for _ in range(draw(st.integers(0, 3)))
    ]
    lines = [
        "_start:",
        "    la   r11, buf",
        "    la   r12, fbuf",
        *seeds,
        f"    movi r10, {draw(st.integers(6, 12))}",
        "outer:",
        f"    movi r9, {draw(st.integers(3, 9))}",
        "inner:",
        *inner_body,
        "    subi r9, r9, 1",
        "    cmpi r9, 0",
        "    bne  inner",
        *outer_tail,
        "    subi r10, r10, 1",
        "    cmpi r10, 0",
        "    bne  outer",
        "    movi r0, 0",
        "    movi r7, 0",
        "    syscall",
        "    .data",
        "buf: .space 256",
        "fbuf: .space 64",
    ]
    return "\n".join(lines) + "\n"


def _assemble(source: str):
    assembler = Assembler(
        text_base=DEFAULT_LAYOUT.user_text_base,
        data_base=DEFAULT_LAYOUT.user_data_base,
    )
    return assembler.assemble(source, entry="_start")


def _run(source: str, translate: bool):
    system = System(_assemble(source), config=SCALED_A9_CONFIG)
    if translate:
        assert attach_translator(system) is not None
    result = system.run(max_cycles=500_000)
    return system, result


@settings(max_examples=40, deadline=None)
@given(source=_program())
def test_translator_is_invisible(source):
    interp_system, interp_result = _run(source, translate=False)
    trans_system, trans_result = _run(source, translate=True)

    assert trans_result.cycles == interp_result.cycles
    assert trans_result.exited_cleanly == interp_result.exited_cleanly
    for name in PerfCounters.__slots__:
        assert getattr(trans_result.counters, name) == getattr(
            interp_result.counters, name
        ), name
    for unit in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        a, b = getattr(interp_system, unit), getattr(trans_system, unit)
        assert (a.accesses, a.misses) == (b.accesses, b.misses), unit
    assert arch_digest(trans_system) == arch_digest(interp_system)
    assert system_digest(trans_system) == system_digest(interp_system)


def _assert_indistinguishable(interp, trans):
    interp_system, interp_result = interp
    trans_system, trans_result = trans
    assert trans_result.cycles == interp_result.cycles
    assert trans_result.exited_cleanly == interp_result.exited_cleanly
    for name in PerfCounters.__slots__:
        assert getattr(trans_result.counters, name) == getattr(
            interp_result.counters, name
        ), name
    for unit in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        a, b = getattr(interp_system, unit), getattr(trans_system, unit)
        assert (a.accesses, a.misses) == (b.accesses, b.misses), unit
    assert arch_digest(trans_system) == arch_digest(interp_system)
    assert system_digest(trans_system) == system_digest(interp_system)


@settings(max_examples=25, deadline=None)
@given(source=_nested_program())
def test_translator_is_invisible_on_nested_loops(source):
    _assert_indistinguishable(
        _run(source, translate=False), _run(source, translate=True)
    )


#: Every component a lifetime-event campaign arms taint probes on.
TAINTABLE = (
    Component.L1D,
    Component.L2,
    Component.DTLB,
    Component.REGFILE,
    Component.ITLB,
    Component.L1I,
)


def _aimed_bit(system, component, aim):
    """A bit of the code page's live ITLB entry (PPN or permission
    field) or of the L1I line holding the current pc; ``None`` when the
    pc has no resident entry or line to aim at."""
    core = system.core
    entry = core.itlb._map.get(core.pc >> PAGE_SHIFT)
    if entry is None or not entry.valid:
        return None
    if component is Component.ITLB:
        field = PPN_FIELD if aim % 2 else PERM_FIELD
        index = core.itlb.entries.index(entry)
        return index * core.itlb.geometry.entry_bits + field[aim // 2 % len(field)]
    l1i = core.l1i
    paddr = (entry.ppn << PAGE_SHIFT) | (core.pc & ((1 << PAGE_SHIFT) - 1))
    set_index = (paddr >> l1i._offset_bits) & l1i._set_mask
    tag = paddr >> l1i._offset_bits
    for way, line in enumerate(l1i.sets[set_index]):
        if line.valid and line.tag == tag:
            byte = aim // 8 % l1i.line_size
            return ((set_index * l1i.assoc + way) * l1i.line_size + byte) * 8 + aim % 8
    return None


def _arrivals(source, label):
    """Cycles at which an interpreter-only run is about to execute
    ``label``.  A flip event at one of them fires exactly there, so the
    first post-flip dispatch meets the block compiled at ``label``."""
    program = _assemble(source)
    head = program.symbols[label]
    cycles = []
    System(program, config=SCALED_A9_CONFIG).run(
        max_cycles=500_000,
        trace=lambda core: cycles.append(core.cycle) if core.pc == head else None,
    )
    return cycles


def _run_tainted(source, translate, component, bit_seed, flip_cycle, aim=None):
    """One run with a mid-flight flip + taint probes, injector-style.

    With ``aim`` set, the flipped bit is chosen at flip time by
    :func:`_aimed_bit` (falling back to ``bit_seed`` when there is
    nothing to aim at).
    """
    system = System(_assemble(source), config=SCALED_A9_CONFIG)
    if translate:
        assert attach_translator(system) is not None
    lifetime = FaultLifetime(system.core)

    def flip():
        bit = None if aim is None else _aimed_bit(system, component, aim)
        if bit is None:
            bit = bit_seed % component_bits(SCALED_A9_CONFIG, component)
        component_target(system, component).flip_bit(bit)
        lifetime.event(EV_FLIP, component.name)
        install_taint(system, component, [bit], lifetime)

    result = system.run(max_cycles=500_000, events=[(flip_cycle, flip)])
    return system, result, lifetime.to_payload()


@settings(max_examples=25, deadline=None)
@given(
    source=_nested_program(),
    component=st.sampled_from(TAINTABLE),
    bit_seed=st.integers(0, 2**20),
    flip_cycle=st.integers(200, 3000),
)
def test_translator_is_invisible_under_data_taint(
    source, component, bit_seed, flip_cycle
):
    interp = _run_tainted(source, False, component, bit_seed, flip_cycle)
    trans = _run_tainted(source, True, component, bit_seed, flip_cycle)
    _assert_indistinguishable(interp[:2], trans[:2])
    assert trans[2] == interp[2], "lifetime-event streams differ"


@settings(max_examples=30, deadline=None)
@given(
    source=_nested_program(),
    component=st.sampled_from((Component.ITLB, Component.L1I)),
    aim=st.integers(0, 2**16),
    when=st.integers(0, 2**16),
)
def test_translator_is_invisible_under_aimed_fetch_taint(
    source, component, aim, when
):
    """Flip the fetch side under the inner loop's compiled superblock -
    at an arrival late enough that the block exists - so its entry guard
    decides between running translated and refusing for taint."""
    arrivals = _arrivals(source, "inner")
    late = arrivals[len(arrivals) // 2 :]
    flip_cycle = late[when % len(late)]
    interp = _run_tainted(source, False, component, aim, flip_cycle, aim=aim)
    trans = _run_tainted(source, True, component, aim, flip_cycle, aim=aim)
    _assert_indistinguishable(interp[:2], trans[:2])
    assert trans[2] == interp[2], "lifetime-event streams differ"


#: A hot loop long enough that its superblock is compiled and running
#: when the flip lands mid-loop.
_HOT_LOOP = """\
_start:
    la   r11, buf
    movi r10, 400
loop:
    ldw  r1, [r11, 0]
    addi r1, r1, 3
    stw  r1, [r11, 0]
    eor  r2, r2, r1
    subi r10, r10, 1
    cmpi r10, 0
    bne  loop
    movi r0, 0
    movi r7, 0
    syscall
    .data
buf: .space 256
"""


@pytest.mark.parametrize(
    # Odd aims pick the PPN field, even ones the permission field; bit
    # 2 of it is PTE_WRITE, which a fetch never checks.
    "aim", [1, 2 * 2], ids=["ppn", "perm-write"]
)
def test_code_page_itlb_flip_refuses_as_taint_not_guard_failure(aim):
    """A flip of the code page's ITLB entry while the loop runs: the
    loop superblock's guard refuses as taint, the interpreter stamps the
    read at its exact cycle, and no variant is evicted for it.  A
    write-permission flip passes every other guard check, so only the
    taint query keeps the read from being skipped."""
    flip_cycle = next(c for c in _arrivals(_HOT_LOOP, "loop") if c >= 2000)
    interp = _run_tainted(_HOT_LOOP, False, Component.ITLB, 0, flip_cycle, aim=aim)
    trans = _run_tainted(_HOT_LOOP, True, Component.ITLB, 0, flip_cycle, aim=aim)
    _assert_indistinguishable(interp[:2], trans[:2])
    assert trans[2] == interp[2], "lifetime-event streams differ"
    read = first_event(interp[2], EV_READ)
    assert read is not None and read.detail == "ITLB"
    assert first_event(trans[2], EV_READ).cycle == read.cycle
    profile = execution_profile(trans[0].core)
    stats = profile["translator"]
    assert stats["taint_refusals"] > 0
    assert stats["evictions"] == 0
    assert f"taint refusals {stats['taint_refusals']:,}" in format_profile(profile)
