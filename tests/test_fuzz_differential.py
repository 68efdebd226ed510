"""Differential fuzzing subsystem: generator, lockstep harness,
shrinker, corpus I/O, campaign driver and CLI."""

import dataclasses
import re

import pytest

from repro.fuzz.engine import run_differential_campaign
from repro.fuzz.generator import (
    CODE_BASE,
    FuzzProgram,
    Item,
    generate_program,
)
from repro.fuzz.harness import FuzzMachine, build_image, run_differential
from repro.fuzz.shrink import load_case, shrink_program, write_case


class TestGenerator:
    def test_deterministic_for_a_seed(self):
        first = generate_program(42)
        second = generate_program(42)
        assert first.body_text() == second.body_text()
        assert first.metadata() == second.metadata()

    def test_distinct_seeds_differ(self):
        assert (generate_program(1).body_text()
                != generate_program(2).body_text())

    def test_every_program_assembles(self):
        for seed in range(30):
            build_image(generate_program(seed))

    def test_emits_r0_sources_and_branching_loops(self):
        # the shapes that once hid superblock emitter faults: an R0
        # read (a copy, a push, a store), and a loop that leaves its
        # block before a forward branch over one step
        programs = [[line.strip() for line in
                     generate_program(seed).body_text().splitlines()]
                    for seed in range(100)]
        every = [line for lines in programs for line in lines]
        assert any(line.startswith("MOV R0, R") for line in every)
        assert "PUSH R0" in every
        assert any(re.fullmatch(r"MOV(\.B)? R0, \d+\(R\d+\)", line)
                   for line in every)
        shapes = set()
        for lines in programs:
            for n in [line[1:-1] for line in lines
                      if re.fullmatch(r"X\d+:", line)]:
                exit_jump = next(i for i, line in enumerate(lines)
                                 if line.endswith(f" X{n}"))
                arm_jump = next(i for i, line in enumerate(lines)
                                if line.endswith(f" S{n}"))
                # the exit, then a forward branch over exactly one
                # step, then the counted back-edge
                assert exit_jump < arm_jump
                assert lines[arm_jump + 2:arm_jump + 5] == [
                    f"S{n}:", "DEC R15", f"JNE L{n}"]
                target = lines.index(f"X{n}:")
                assert target in (exit_jump + 1, arm_jump + 5)
                shapes.add(target == exit_jump + 1)
        # exits to the next instruction and exits past the loop
        assert shapes == {True, False}

    def test_emits_sr_reads_between_flag_writers(self):
        # generated code leaves out a flag update that a later step
        # overwrites unread: every shape that reads SR, between two
        # register-only flag writers
        writer = re.compile(r"(ADD|ADDC|SUB|SUBC|CMP|BIT|AND|XOR)(\.B)?"
                            r" R\d+, R\d+")
        reads = []
        for seed in range(100):
            for item in generate_program(seed).items:
                lines = [line.strip() for line in item.lines]
                if any("SR" in line for line in lines):
                    assert writer.fullmatch(lines[0]), lines
                    assert writer.fullmatch(lines[-1]), lines
                    reads.extend(lines[1:-1])
        assert any(re.fullmatch(r"MOV(\.B)? SR, R\d+", line)
                   for line in reads)
        assert "PUSH SR" in reads
        assert any(re.fullmatch(r"MOV(\.B)? SR, (&0x\w+|\d+\(R\d+\))",
                                line) for line in reads)
        assert any(re.fullmatch(r"(ADD|ADDC|SUB|SUBC|CMP|BIT|AND|XOR)"
                                r"(\.B)? SR, R\d+", line)
                   for line in reads)
        bits = [int(m[1], 16) for line in reads
                if (m := re.fullmatch(r"BI[SC] #0x(\w+), SR", line))]
        # only C, Z, N and V: never GIE, CPUOFF, OSCOFF or SCG
        assert bits and all(b and not b & ~0x107 for b in bits)

    def test_programs_end_with_halt_before_subroutines(self):
        program = generate_program(7)
        kinds = [item.kind for item in program.items]
        halt = kinds.index("halt")
        assert all(kind == "sub" for kind in kinds[halt + 1:])
        assert "anchor" in kinds[:halt]


class TestHarness:
    def test_machines_start_identical(self):
        program = generate_program(3)
        image = build_image(program)
        block = FuzzMachine(program, image, step_only=False)
        step = FuzzMachine(program, image, step_only=True)
        assert block.snapshot() == step.snapshot()
        assert block.memory._bytes == step.memory._bytes
        assert block.cpu.regs.pc == CODE_BASE

    def test_clean_seeds_run_clean(self):
        for seed in range(25):
            result = run_differential(generate_program(seed))
            assert result.ok, result.describe()

    def test_budget_backstop_is_deterministic(self):
        spin = FuzzProgram(seed=1, items=[
            Item("anchor", ["spin:"]),
            Item("insn", ["    JMP spin"]),
        ])
        result = run_differential(spin, chunk=16, max_instructions=64)
        assert result.ok
        assert result.outcome == ("budget",)

    def test_identical_faults_compare_equal(self):
        # an unmapped load faults identically in both modes
        crash = FuzzProgram(seed=2, items=[
            Item("insn", ["    MOV &0x2800, R4"]),   # HOLE2
            Item("halt", ["    MOV #1, &0x01F2"]),
        ])
        result = run_differential(crash)
        assert result.ok
        assert result.outcome[0] == "fault"
        assert result.outcome[1] == "BUS_ERROR"


class TestShrink:
    def marker_predicate(self, program):
        """Synthetic failure: the program still contains DADD."""
        return any("DADD" in line for item in program.items
                   for line in item.lines)

    def test_shrinks_to_the_marker(self):
        program = generate_program(0)
        # ensure at least one marker is present
        program.items.insert(3, Item("insn", ["    DADD R4, R5"]))
        minimal = shrink_program(program, self.marker_predicate)
        removable = [item for item in minimal.items if item.removable]
        assert len(removable) == 1
        assert any("DADD" in line for line in removable[0].lines)
        assert self.marker_predicate(minimal)

    def test_keeps_non_removable_items(self):
        program = generate_program(5)
        program.items.insert(0, Item("insn", ["    DADD R4, R5"]))
        minimal = shrink_program(program, self.marker_predicate)
        kinds = {item.kind for item in minimal.items}
        assert "anchor" in kinds and "halt" in kinds

    def test_never_returns_a_non_failing_program(self):
        program = generate_program(9)
        program.items.insert(2, Item("insn", ["    DADD R6, R7"]))
        minimal = shrink_program(program, self.marker_predicate)
        assert self.marker_predicate(minimal)


class TestCorpusIo:
    def test_roundtrip_preserves_behaviour(self, tmp_path):
        program = generate_program(11)
        path = tmp_path / "case.s"
        write_case(program, path, note="roundtrip")
        loaded = load_case(path)
        assert loaded.seed == program.seed
        assert loaded.sp == program.sp
        assert loaded.mem_seed == program.mem_seed
        assert loaded.regs == program.regs
        assert (loaded.mpu_segb1, loaded.mpu_segb2,
                loaded.mpu_sam, loaded.mpu_ctl0) == (
            program.mpu_segb1, program.mpu_segb2,
            program.mpu_sam, program.mpu_ctl0)
        original = run_differential(program)
        replayed = run_differential(loaded)
        assert replayed.outcome == original.outcome
        assert replayed.instructions == original.instructions

    def test_loaded_case_body_matches(self, tmp_path):
        program = generate_program(13)
        path = tmp_path / "case.s"
        write_case(program, path)
        loaded = load_case(path)
        strip = lambda text: [line.strip() for line
                              in text.splitlines() if line.strip()]
        assert strip(loaded.body_text()) == strip(program.body_text())


class TestCampaign:
    def test_small_campaign_is_clean(self):
        stats = run_differential_campaign(seeds=40, corpus=None)
        assert stats.clean, stats.describe()
        assert stats.ok == stats.seeds == 40
        assert stats.instructions > 0

    def test_divergence_is_shrunk_and_archived(self, tmp_path,
                                               monkeypatch):
        """Plant a fake divergence for one seed and watch the campaign
        shrink it and write a corpus case."""
        import repro.fuzz.engine as engine

        real = engine.run_differential
        planted = {"seed": 4}
        # the generator never names R3, so only the planted item can
        # carry the marker
        marker = "    DADD R3, R3"

        def fake(program, **kwargs):
            result = real(program, **kwargs)
            if (program.seed == planted["seed"]
                    and any(line == marker for item in program.items
                            for line in item.lines)):
                return dataclasses.replace(result, ok=False)
            return result

        monkeypatch.setattr(engine, "run_differential", fake)
        # make sure seed 4 contains the marker
        real_generate = engine.generate_program

        def generate(seed):
            program = real_generate(seed)
            if seed == planted["seed"]:
                program.items.insert(1, Item("insn", [marker]))
            return program

        monkeypatch.setattr(engine, "generate_program", generate)
        stats = engine.run_differential_campaign(
            seeds=6, corpus=tmp_path)
        assert len(stats.divergences) == 1
        assert len(stats.cases_written) == 1
        case = stats.cases_written[0]
        assert case.exists()
        minimal = load_case(case)
        removable = [item for item in minimal.items if item.removable]
        assert len(removable) <= 2      # shrunk down to the marker


class TestCli:
    def test_fuzz_diff_only(self, capsys):
        from repro.cli import main
        code = main(["fuzz", "--seeds", "5", "--diff-only",
                     "--no-corpus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 seeds: 5 ok, 0 divergences" in out

    def test_fuzz_replay_single_case(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "case.s"
        write_case(generate_program(17), path)
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
