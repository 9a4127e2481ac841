"""End-to-end command-line checks driven through main(argv)."""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fstlearn
import fstlearn.hankel
from fstlearn import (
    Fst, SampleSet, invert, learn_pipeline, load_dataset, load_fst, save_dataset, save_fst, word_to_text,
)
from fstlearn.cli import _build_parser, main
from fstlearn.formats import letter_to_text
from fstlearn.fst import MAX_STATES
from fstlearn.hankel import block_rows, default_mask_len, find_basis
from conftest import DEMO_WORDS, STRAY_IN_SPAN_WORDS, STRAY_OUT_OF_SPAN_WORDS
from oracles import ref_eliminate

DEMO = Path(__file__).resolve().parent.parent / "demo"
ATTACKER = str(DEMO / "attacker.fst")
PLANT = str(DEMO / "plant.fst")
MK = str(DEMO / "mk.fst")
SENSOR = str(DEMO / "sensor_identity.fst")
ATTACKER_DATA = str(DEMO / "attacker_samples.txt")
SENSOR_DATA = str(DEMO / "sensor_samples.txt")
# The checkout's src/ directory, for the CLI run as a child process.
SRC = str(Path(fstlearn.__file__).resolve().parent.parent)


@pytest.fixture
def golden_supervisor_file(tmp_path) -> str:
    path = tmp_path / "golden_supervisor.fst"
    save_fst(
        Fst(
            states=("0", "1"),
            initial="0",
            transitions=frozenset({("0", "s2", "a3", "1"), ("1", "s2", "a1", "0")}),
            finals=frozenset({"0", "1"}),
        ),
        str(path),
    )
    return str(path)


class TestLearn:
    def test_learned_machine_is_equivalent_to_the_true_attacker(self, tmp_path, capsys):
        out = tmp_path / "learned.fst"
        assert main(["learn", "--data", ATTACKER_DATA, "--out", str(out)]) == 0
        assert main(["equiv", str(out), ATTACKER]) == 0
        assert capsys.readouterr().out.strip() == "EQUIVALENT"

    def test_dump_intermediates_writes_every_stage(self, tmp_path):
        out = tmp_path / "learned.fst"
        dump = tmp_path / "dump"
        assert (
            main(
                [
                    "learn",
                    "--data",
                    ATTACKER_DATA,
                    "--out",
                    str(out),
                    "--dump-intermediates",
                    str(dump),
                ]
            )
            == 0
        )
        names = {p.name for p in dump.iterdir()}
        for required in ("mask.txt", "h_theta.txt", "p.txt", "s.txt", "b.txt",
                         "p_new.txt", "s_new.txt", "t0.txt", "t_inf.txt"):
            assert required in names
        assert any(n.startswith("h_chi_") for n in names)
        assert any(n.startswith("t_") and not n.startswith("t_inf") for n in names)
        mask_text = (dump / "mask.txt").read_text()
        assert mask_text.splitlines()[0].startswith("psi ")
        # Rows of "%.10g" numbers; the vector t0 is written as one row.
        assert (dump / "h_theta.txt").read_text() == "1 0\n1 1\n"
        assert (dump / "t0.txt").read_text() == "1 0\n"

    def test_dump_names_each_letter_by_its_alphabet_index(self, tmp_path):
        # Two letters that read alike once ':' becomes '_': file names must not come from symbols.
        letters = [("x_y", "z"), ("x", "y_z")]
        data = tmp_path / "data.txt"
        data.write_text("".join(f"{word_to_text(w)}\n" for n in range(4) for w in product(letters, repeat=n)))
        dump = tmp_path / "dump"
        assert main(["learn", "--data", str(data), "--out", str(tmp_path / "learned.fst"),
                     "--dump-intermediates", str(dump)]) == 0
        res = learn_pipeline(load_dataset(str(data)))
        assert sorted(res.sample.alphabet) == sorted(letters)
        letters_text = (dump / "letters.txt").read_text()
        assert letters_text == "".join(f"{letter_to_text(chi)}\n" for chi in res.sample.alphabet)
        indexed = sorted(p.name for p in dump.glob("*_[0-9]*.txt"))
        assert indexed == ["h_chi_0.txt", "h_chi_1.txt", "t_0.txt", "t_1.txt"]
        for k, chi in enumerate(res.sample.alphabet):
            assert (numpy.loadtxt(dump / f"h_chi_{k}.txt", ndmin=2) == res.hankel.h_chi[chi]).all()
            assert numpy.allclose(numpy.loadtxt(dump / f"t_{k}.txt", ndmin=2), res.tup.trans[chi], rtol=0, atol=1e-9)

    def test_empty_dataset_is_an_analysis_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing recorded\n")
        for argv in (["learn", "--data", str(empty), "--out", str(tmp_path / "x.fst")],
                     ["hankel", "--data", str(empty)]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert err == "error: [learn] dataset is empty\n" and out == ""
        assert not (tmp_path / "x.fst").exists()


    def test_model_without_a_recorded_letter_exits_one(self, tmp_path, capsys):
        # The demo recordings cut to length 2 give mask length 0, which
        # learns one state without a1:a2; that would reject the recording
        # a1:a3 a1:a2.
        data = tmp_path / "short.txt"
        with open(ATTACKER_DATA, encoding="utf-8") as fh:
            data.write_text("".join(line for line in fh if len(line.split()) <= 2))
        out = tmp_path / "learned.fst"
        code = main(["learn", "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[consistency]" in err and "a1:a2" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_recordings_without_the_empty_word_exit_one(self, tmp_path, capsys):
        # The demo recordings without their <empty> line are not prefix-closed:
        # learn, and pipeline for the channel that reads them, refuse them.
        data = tmp_path / "no_empty.txt"
        with open(ATTACKER_DATA, encoding="utf-8") as fh:
            data.write_text("".join(line for line in fh if line.strip() != "<empty>"))
        out = tmp_path / "out.fst"
        for argv in (["learn", "--data", str(data)],
                     ["pipeline", "--sensor-data", SENSOR_DATA, "--actuator-data", str(data),
                      "--plant", PLANT, "--mk", MK]):
            assert main([*argv, "--out", str(out)]) == 1
            stdout, err = capsys.readouterr()
            assert stdout == "" and "Traceback" not in err
            assert err.startswith("error: [prefix-closure] ") and "<empty>" in err
            assert ("learning the actuator attacker model failed" in err) == (argv[0] == "pipeline")
            assert not out.exists()


class TestSynthAndVerify:
    def test_synth_then_verify_is_resilient(self, tmp_path, capsys, golden_supervisor_file):
        sup = tmp_path / "sup.fst"
        assert (
            main(
                [
                    "synth",
                    "--mk",
                    MK,
                    "--sensor-attacker",
                    SENSOR,
                    "--actuator-attacker",
                    ATTACKER,
                    "--out",
                    str(sup),
                ]
            )
            == 0
        )
        assert main(["equiv", str(sup), golden_supervisor_file]) == 0
        code = main(
            [
                "verify",
                "--plant",
                PLANT,
                "--supervisor",
                str(sup),
                "--sensor-attacker",
                SENSOR,
                "--actuator-attacker",
                ATTACKER,
                "--mk",
                MK,
            ]
        )
        assert code == 0
        assert "RESILIENT" in capsys.readouterr().out

    def test_mk_accepts_an_inline_pattern(self, tmp_path, capsys, golden_supervisor_file):
        sup = tmp_path / "sup.fst"
        assert (
            main(
                [
                    "synth",
                    "--mk",
                    "((a1:s2)(a2:s2))*",
                    "--sensor-attacker",
                    SENSOR,
                    "--actuator-attacker",
                    ATTACKER,
                    "--out",
                    str(sup),
                ]
            )
            == 0
        )
        assert main(["equiv", str(sup), golden_supervisor_file]) == 0

    def test_naive_supervisor_is_rejected_with_a_witness(self, tmp_path, capsys):
        naive = tmp_path / "naive.fst"
        save_fst(invert(load_fst(MK)), str(naive))
        code = main(
            [
                "verify",
                "--plant",
                PLANT,
                "--supervisor",
                str(naive),
                "--sensor-attacker",
                SENSOR,
                "--actuator-attacker",
                ATTACKER,
                "--mk",
                MK,
            ]
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "NOT_RESILIENT witness=a1:s2"


class TestPipeline:
    def test_end_to_end_resilient(self, tmp_path, capsys, golden_supervisor_file):
        sup = tmp_path / "sup.fst"
        code = main(
            [
                "pipeline",
                "--sensor-data",
                SENSOR_DATA,
                "--actuator-data",
                ATTACKER_DATA,
                "--plant",
                PLANT,
                "--mk",
                MK,
                "--out",
                str(sup),
            ]
        )
        assert code == 0
        assert "RESILIENT" in capsys.readouterr().out
        assert main(["equiv", str(sup), golden_supervisor_file]) == 0

    def test_corrupted_recording_fails_instead_of_shipping_a_supervisor(
        self, tmp_path, capsys
    ):
        # Drop every multi-letter word from the attack recording: the
        # remaining data cannot distinguish the attacker's two states, so
        # the learned model is wrong and verification must say so.
        corrupted = tmp_path / "corrupted.txt"
        corrupted.write_text("<empty>\na3:a1\na1:a3\n")
        code = main(
            [
                "pipeline",
                "--sensor-data",
                SENSOR_DATA,
                "--actuator-data",
                str(corrupted),
                "--plant",
                PLANT,
                "--mk",
                MK,
            ]
        )
        assert code == 1
        assert "NOT_RESILIENT" in capsys.readouterr().out

    def test_dump_intermediates_covers_both_channels(self, tmp_path):
        dump = tmp_path / "dump"
        main(
            [
                "pipeline",
                "--sensor-data",
                SENSOR_DATA,
                "--actuator-data",
                ATTACKER_DATA,
                "--plant",
                PLANT,
                "--mk",
                MK,
                "--dump-intermediates",
                str(dump),
            ]
        )
        assert (dump / "sensor" / "h_theta.txt").is_file()
        assert (dump / "actuator" / "h_theta.txt").is_file()
        assert (dump / "supervisor.fst").is_file()

    def test_empty_sensor_dataset_is_an_analysis_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing recorded\n")
        out = tmp_path / "sup.fst"
        code = main(["pipeline", "--sensor-data", str(empty), "--actuator-data", ATTACKER_DATA,
                     "--plant", PLANT, "--mk", MK, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[learn]" in err and "sensor" in err and "dataset is empty" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulateAndSample:
    def test_simulate_prints_a_trace(self, capsys, golden_supervisor_file):
        code = main(
            [
                "simulate",
                "--plant",
                PLANT,
                "--supervisor",
                golden_supervisor_file,
                "--sensor-attacker",
                SENSOR,
                "--actuator-attacker",
                ATTACKER,
                "--steps",
                "4",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("step 1: alpha=a3 alpha_c=a1 sigma=s2 sigma_c=s2\n")
        assert out.rstrip().endswith("END max_steps")

    def test_simulate_writes_trace_file(self, tmp_path, golden_supervisor_file):
        trace = tmp_path / "trace.txt"
        code = main(
            [
                "simulate",
                "--plant",
                PLANT,
                "--supervisor",
                golden_supervisor_file,
                "--sensor-attacker",
                SENSOR,
                "--actuator-attacker",
                ATTACKER,
                "--steps",
                "2",
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert "END max_steps" in trace.read_text()

    def test_exhaustive_sample_reproduces_the_demo_dataset(self, tmp_path):
        out = tmp_path / "sampled.txt"
        code = main(
            [
                "sample",
                "--attacker",
                ATTACKER,
                "--mode",
                "exhaustive",
                "--max-len",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == Path(ATTACKER_DATA).read_text()

    def test_an_empty_language_samples_an_empty_file_that_learn_refuses(self, tmp_path, capsys):
        attacker, out = tmp_path / "empty.fst", tmp_path / "sampled.txt"
        attacker.write_text("fst v1\ninitial 0\nfinal 1\ntrans 0 a u 2\n")
        assert main(["sample", "--attacker", str(attacker), "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert main(["learn", "--data", str(out), "--out", str(tmp_path / "learned.fst")]) == 1
        assert "[learn] dataset is empty" in capsys.readouterr().err
        assert not (tmp_path / "learned.fst").exists()


class TestHankelCommand:
    def test_prints_matrices_and_rank(self, capsys):
        assert main(["hankel", "--data", ATTACKER_DATA]) == 0
        out = capsys.readouterr().out
        assert "H_theta" in out
        assert "H_chi a3:a1" in out
        assert "rank(H_theta) = 2" in out
        assert "<empty>" in out  # the empty word labels the first row

    @pytest.mark.parametrize("words", [DEMO_WORDS, STRAY_IN_SPAN_WORDS, STRAY_OUT_OF_SPAN_WORDS],
                             ids=["demo", "stray-in-span", "stray-out-of-span"])
    def test_printed_rank_is_the_rank_of_h_theta(self, words, tmp_path, capsys):
        d = SampleSet.from_words(words)
        save_dataset(d, tmp_path / "d.txt")
        assert main(["hankel", "--data", str(tmp_path / "d.txt")]) == 0
        theta = block_rows(d, find_basis(d, default_mask_len(d)), ())
        assert capsys.readouterr().out.endswith(f"\nrank(H_theta) = {len(ref_eliminate(theta))}\n")


class TestDiagnostics:
    def test_equiv_reports_a_witness_and_exit_one(self, capsys):
        code = main(["equiv", ATTACKER, PLANT])
        assert code == 1
        assert capsys.readouterr().out.startswith("NOT_EQUIVALENT witness=")

    @pytest.mark.parametrize(
        "command",
        [
            ["synth", "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER],
            ["pipeline", "--sensor-data", SENSOR_DATA, "--actuator-data", ATTACKER_DATA, "--plant", PLANT],
        ],
        ids=["synth", "pipeline"],
    )
    def test_a_desired_language_that_is_not_prefix_closed_warns_in_one_line(self, command, tmp_path, capsys):
        # a1:s2 is accepted but its prefix, the empty word, is not.
        mk = tmp_path / "mk.fst"
        mk.write_text("fst v1\ninitial 0\nfinal 1\ntrans 0 a1 s2 1\n")
        for _ in range(2):  # every run warns, not only the first in the process
            assert main([*command, "--mk", str(mk), "--out", str(tmp_path / "sup.fst")]) == 0
            assert capsys.readouterr().err == (
                "warning: desired language is not prefix-closed; the control loop assumes it is\n"
            )

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["learn", "--nonsense"]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["equiv", "no_such_file.fst", ATTACKER]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_machine_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.fst"
        bad.write_text("not an fst header\n")
        assert main(["equiv", str(bad), ATTACKER]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["equiv", "--seed", "1", ATTACKER, ATTACKER],
            ["verify", "--dump-intermediates", "dump", "--plant", PLANT, "--supervisor", ATTACKER,
             "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER, "--mk", MK],
            ["hankel", "--tol-binary", "1e-3", "--data", ATTACKER_DATA],
            ["sample", "--tol-rank", "1e-3", "--attacker", ATTACKER, "--out", "x.txt"],
            ["learn", "--tol-rank", "1e-9", "--data", ATTACKER_DATA, "--out", "x.fst"],
            ["learn", "--data", ATTACKER_DATA, "--out", "x.fst", "--max-mask-len", "1"],
            ["hankel", "--data", ATTACKER_DATA, "--max-mask-len", "1"],
            ["pipeline", "--sensor-data", SENSOR_DATA, "--actuator-data", ATTACKER_DATA,
             "--plant", PLANT, "--mk", MK, "--max-mask-len", "1"],
        ],
    )
    def test_flag_the_subcommand_does_not_use_exits_two(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--plant", PLANT, "--supervisor", ATTACKER, "--sensor-attacker", SENSOR,
             "--actuator-attacker", ATTACKER, "--steps", "-1"],
            ["simulate", "--plant", "TMP/non_trim.fst", "--supervisor", ATTACKER,
             "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER],
            ["simulate", "--plant", PLANT, "--supervisor", ATTACKER, "--sensor-attacker", SENSOR,
             "--actuator-attacker", ATTACKER, "--steps", "-1", "--trace-out", "TMP/x.txt"],
            ["sample", "--mode", "exhaustive", "--attacker", ATTACKER, "--max-len", "-1",
             "--out", "TMP/x.txt"],
            ["sample", "--mode", "exhaustive", "--attacker", ATTACKER, "--n", "-1",
             "--out", "TMP/x.txt"],
            ["sample", "--attacker", ATTACKER, "--max-len", "-2", "--out", "TMP/x.txt"],
            ["sample", "--attacker", ATTACKER, "--n", "-1", "--out", "TMP/x.txt"],
            ["simulate", "--plant", PLANT, "--supervisor", ATTACKER, "--sensor-attacker", SENSOR,
             "--actuator-attacker", ATTACKER, "--steps", "abc"],
            ["sample", "--attacker", ATTACKER, "--n", "2.5", "--out", "TMP/x.txt"],
        ],
    )
    def test_negative_count_or_non_trim_simulate_machine_exits_two(self, argv, tmp_path, capsys):
        # State 1 can reach no final state.
        (tmp_path / "non_trim.fst").write_text("fst v1\ninitial 0\nfinal 0\ntrans 0 a1 a2 1\n")
        assert main([a.replace("TMP", str(tmp_path)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.fst").exists() and not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize(
        "argv", [["equiv", "BAD", ATTACKER], ["learn", "--data", "BAD", "--out", "TMP/x.fst"]]
    )
    def test_file_that_is_not_utf8_exits_two(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"fst v1\n\xff\n")
        assert main([a.replace("BAD", str(bad)).replace("TMP", str(tmp_path)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "offset 7" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.fst").exists()

    @pytest.mark.parametrize(
        "content, problem",
        [(b"a1:a3\na1 a1:a2\n", "line 2: bad letter 'a1': expected in:out"),
         (b"a1:a3\n\xff\n", "not UTF-8 text (bad byte at offset 6)"),
         (b"<empty>\na1:a3\na1:<empty>\n",
          "line 3: bad symbol '<empty>': no whitespace, ':' or '#', and reserved tokens are not symbols"),
         (b"a1:a3 <eps>:<eps>\n", "line 1: the (eps,eps) letter is reserved for the implicit stay transition"),
         (b"\xef\xbb\xbfa1:a3\n\xff\n", "not UTF-8 text (bad byte at offset 9)")],
        ids=["bad-letter", "not-utf8", "bad-symbol", "stay-letter", "bom-then-not-utf8"],
    )
    def test_bad_dataset_is_named_once(self, content, problem, tmp_path, capsys):
        bad = tmp_path / "actuator.txt"
        bad.write_bytes(content)
        argv = ["pipeline", "--sensor-data", SENSOR_DATA, "--actuator-data", str(bad),
                "--plant", PLANT, "--mk", MK]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {problem}\n"

    def test_bad_machine_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.fst"
        bad.write_text("fst v1\ninitial 0\ntrans 0 a\n")
        assert main(["equiv", ATTACKER, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line 3: expected 'trans src in out dst'\n"

    def test_bad_symbol_in_a_machine_file_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "colon.fst"
        bad.write_text("fst v1\ninitial 0\nfinal 0\ntrans 0 a:b u 0\n")
        assert main(["equiv", ATTACKER, str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 4: bad symbol 'a:b': no whitespace, ':' or '#', and reserved tokens are not symbols\n"
        )

    @pytest.mark.parametrize("command", [["verify", "--mk", MK], ["simulate", "--steps", "1"]])
    def test_loop_machines_load_in_the_loop_order(self, command, monkeypatch, golden_supervisor_file):
        loaded = []
        monkeypatch.setattr(fstlearn.cli, "load_fst", lambda path: loaded.append(path) or load_fst(path))
        argv = [*command, "--actuator-attacker", ATTACKER, "--sensor-attacker", SENSOR,
                "--supervisor", golden_supervisor_file, "--plant", PLANT]
        assert main(argv) == 0
        assert loaded[:4] == [PLANT, golden_supervisor_file, SENSOR, ATTACKER]

    def test_mk_that_is_not_a_pattern_names_the_missing_file(self, tmp_path, capsys):
        typo = str(DEMO / "mkk.fst")
        argv = ["verify", "--plant", PLANT, "--supervisor", PLANT, "--sensor-attacker", SENSOR,
                "--actuator-attacker", ATTACKER, "--mk", typo]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert typo in err and "pattern" not in err and "Traceback" not in err

    def test_mk_starting_with_a_parenthesis_is_a_pattern(
        self, tmp_path, monkeypatch, capsys, golden_supervisor_file
    ):
        # Even after leading blanks, and where a file of that name exists.
        monkeypatch.chdir(tmp_path)
        pattern = "((a1:s2)(a2:s2))*"
        (tmp_path / pattern).write_text("not a machine file\n")
        sup = tmp_path / "sup.fst"
        for mk in (pattern, " " + pattern):
            argv = ["synth", "--mk", mk, "--sensor-attacker", SENSOR,
                    "--actuator-attacker", ATTACKER, "--out", str(sup)]
            assert main(argv) == 0
            assert main(["equiv", str(sup), golden_supervisor_file]) == 0

    def test_state_bound_exits_three(self, tmp_path, capsys):
        # A ring one state past the bound, compared with itself: the walk over
        # pairs of subsets finds no difference and numbers every state.
        n = MAX_STATES + 1
        ring = tmp_path / "ring.fst"
        ring.write_text(
            f"fst v1\ninitial 0\nfinal {' '.join(map(str, range(n)))}\n"
            + "".join(f"trans {k} a a {(k + 1) % n}\n" for k in range(n))
        )
        assert main(["equiv", str(ring), str(ring)]) == 3
        err = capsys.readouterr().err
        assert err == "error: equivalence check exceeded the 10000-state bound\n"

    def test_verify_walk_past_the_state_bound_exits_three(self, monkeypatch, golden_supervisor_file, capsys):
        # The golden loop's walk numbers two pairs of subsets over two loop nodes.
        monkeypatch.setattr(fstlearn.fst, "MAX_STATES", 1)
        argv = ["verify", "--plant", PLANT, "--supervisor", golden_supervisor_file,
                "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER, "--mk", MK]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: equivalence check exceeded the 1-state bound\n"

    def test_hankel_block_bound_exits_three(self, monkeypatch, tmp_path, capsys):
        # The demo block has 2 distinct rows x 3 distinct columns.
        monkeypatch.setattr(fstlearn.hankel, "MAX_BLOCK_CELLS", 5)
        out = tmp_path / "learned.fst"
        assert main(["learn", "--data", ATTACKER_DATA, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: Hankel block of 2 distinct rows x 3 distinct columns exceeds the 5-cell bound\n"
        assert not out.exists()

    def test_word_bound_exits_three(self, monkeypatch, tmp_path, capsys):
        # The demo attacker has 9 words of length at most 3.
        monkeypatch.setattr(fstlearn.fst, "MAX_WORDS", 8)
        out = tmp_path / "sampled.txt"
        argv = ["sample", "--attacker", ATTACKER, "--mode", "exhaustive", "--max-len", "3", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: language enumeration exceeded 8 words\n"
        assert not out.exists()

    def test_unexpected_exception_exits_four_with_its_traceback(self, monkeypatch, capsys):
        def broken(left, right):
            raise RuntimeError("simulated bug")

        monkeypatch.setattr(fstlearn.cli, "counterexample", broken)
        assert main(["equiv", ATTACKER, ATTACKER]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: simulated bug" in err

    def test_sampling_a_non_prefix_closed_attacker_is_an_analysis_error(self, tmp_path):
        # 0 -a:a-> 1 -b:b-> 2 with finals {0, 2} accepts a:a b:b but not a:a.
        attacker = tmp_path / "gappy.fst"
        attacker.write_text("fst v1\ninitial 0\nfinal 0 2\ntrans 0 a a 1\ntrans 1 b b 2\n")
        out = tmp_path / "recorded.txt"
        # -O strips asserts: the check must not be one.
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "fstlearn.cli", "sample", "--attacker", str(attacker),
             "--n", "20", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert "[sample]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestHashSeedIndependence:
    def test_demo_pipeline_and_simulate_are_byte_identical_across_hash_seeds(self, tmp_path):

        def run_demo(hash_seed: str) -> tuple[str, str, bytes]:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            sup = tmp_path / f"supervisor_{hash_seed}.fst"

            def cli(*argv: str) -> str:
                proc = subprocess.run(
                    [sys.executable, "-m", "fstlearn.cli", *argv],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                return proc.stdout

            verdict = cli("pipeline", "--sensor-data", SENSOR_DATA, "--actuator-data", ATTACKER_DATA,
                          "--plant", PLANT, "--mk", MK, "--out", str(sup))
            trace = cli("simulate", "--plant", PLANT, "--supervisor", str(sup),
                        "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER,
                        "--steps", "6", "--seed", "1")
            return verdict, trace, sup.read_bytes()

        first = run_demo("0")
        assert first[0] == "RESILIENT\n"
        assert first[1].endswith("END max_steps\n")
        assert run_demo("1") == first


def _run_in_fresh_interpreter(tmp_path, supervisor: str, command: str) -> list[str]:
    """Run one command through main in a fresh interpreter.

    Returns main's exit code, whether numpy was imported along the way
    and the names of the fstlearn submodules loaded, sorted, as strings.
    """
    child = ("import sys; from fstlearn.cli import main; code = main(sys.argv[1:]); "
             "print(code, 'numpy' in sys.modules, *sorted(m for m in sys.modules if m.startswith('fstlearn.')))")
    argv = {
        "verify": ["--plant", PLANT, "--supervisor", supervisor, "--sensor-attacker", SENSOR,
                   "--actuator-attacker", ATTACKER, "--mk", MK],
        "simulate": ["--plant", PLANT, "--supervisor", supervisor,
                     "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER, "--steps", "4"],
        "synth": ["--mk", MK, "--sensor-attacker", SENSOR, "--actuator-attacker", ATTACKER,
                  "--out", str(tmp_path / "supervisor.fst")],
        "equiv": [ATTACKER, ATTACKER],
        "sample": ["--attacker", ATTACKER, "--out", str(tmp_path / "recorded.txt")],
        "learn": ["--data", ATTACKER_DATA, "--out", str(tmp_path / "attacker.fst")],
        "pipeline": ["--sensor-data", SENSOR_DATA, "--actuator-data", ATTACKER_DATA, "--plant", PLANT,
                     "--mk", MK],
        "learn-dump": ["--data", ATTACKER_DATA, "--out", str(tmp_path / "attacker.fst"),
                       "--dump-intermediates", str(tmp_path / "dump")],
        "hankel": ["--data", ATTACKER_DATA],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-c", child, command.split("-")[0], *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


class TestNumpyLoadsOnlyToLearn:
    # Learning and hankel are exact; only the dumped float intermediates need numpy.
    @pytest.mark.parametrize(
        "command, loads_numpy",
        [("verify", False), ("simulate", False), ("synth", False), ("equiv", False), ("sample", False),
         ("learn", False), ("pipeline", False), ("learn-dump", True), ("hankel", False)],
    )
    def test_only_learning_imports_numpy(self, tmp_path, golden_supervisor_file, command, loads_numpy):
        code, numpy_loaded, *_ = _run_in_fresh_interpreter(tmp_path, golden_supervisor_file, command)
        assert (code, numpy_loaded) == ("0", str(loads_numpy))


class TestEachCommandLoadsOnlyTheModulesItRuns:
    # errors, formats and fst load with the package and cli with main; the
    # learner, the loop and the supervisor only with a command that runs them.
    @pytest.mark.parametrize(
        "command, runs",
        [("learn", "hankel spectral"), ("pipeline", "hankel spectral supervisor"), ("verify", "supervisor"),
         ("synth", "supervisor"), ("simulate", "loop"), ("sample", "loop"), ("hankel", "hankel"), ("equiv", "")],
    )
    def test_command_loads_the_eager_modules_and_those_it_runs(self, tmp_path, golden_supervisor_file, command, runs):
        code, _, *loaded = _run_in_fresh_interpreter(tmp_path, golden_supervisor_file, command)
        assert code == "0"
        assert loaded == sorted(f"fstlearn.{m}" for m in f"cli errors formats fst {runs}".split())

    def test_package_loads_the_rest_on_first_use(self):
        child = ("import sys, fstlearn; print(*sorted(m for m in sys.modules if m.startswith('fstlearn'))); "
                 "print(*(getattr(fstlearn, m).__name__ for m in ('hankel', 'loop', 'spectral', 'supervisor')))")
        proc = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "fstlearn fstlearn.errors fstlearn.formats fstlearn.fst",
            "fstlearn.hankel fstlearn.loop fstlearn.spectral fstlearn.supervisor",
        ]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestFlags:
    def test_each_subcommand_takes_the_flags_of_its_readme_row(self):
        # README's subcommand table names every flag of a row in backticks.
        readme = (DEMO.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | flags (default) |\n| --- | --- |\n")[1].split("\n\n")[0]
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
        subparsers = _subparsers()
        assert sorted(rows) == sorted(subparsers)
        for name, parser in subparsers.items():
            flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == set(re.findall(r"`(--[\w-]+)", rows[name])), name
        assert [a.dest for a in subparsers["equiv"]._actions if not a.option_strings] == ["left", "right"]


# Near-valid inputs for the CLI fuzz: small machines and datasets over a few
# symbols, a token now and then replaced by a reserved or malformed one.
FUZZ_STATES = ("0", "1", "2", "3")
FUZZ_SYMBOLS = ("a", "b", "x", "u", "<eps>")
FUZZ_ARC_LETTERS = tuple((i, o) for i in FUZZ_SYMBOLS for o in FUZZ_SYMBOLS if (i, o) != ("<eps>", "<eps>"))
FUZZ_LETTERS = ("a:x", "a:u", "b:x", "b:<eps>", "<eps>:u", "x:x")
FUZZ_MUTANTS = ("<empty>", "<eps>", "<eps>:<eps>", "a:b:c", "a", "#", "(", "fst", "v2", "final", "9", "\ufeff")
FUZZ_PATTERN_ITEMS = ("(a:x)", "(b:u)*", "(x:<eps>)", "((a:x)(b:u))*", "(<eps>:u)")
FUZZ_PATTERN_MUTANTS = ("(", ")", "*", "(<eps>:<eps>)", "(a)", "x:u")


def _fuzz_text(draw, lines: list[list[str]]) -> str:
    if draw(st.integers(0, 9)) == 0:  # one token in ten texts is a mutant
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(FUZZ_MUTANTS))
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def fuzz_machine(draw) -> str:
    n = draw(st.integers(1, 4))
    state, letter = st.sampled_from(FUZZ_STATES[:n]), st.sampled_from(FUZZ_ARC_LETTERS)
    arcs = [(draw(state), *draw(letter), draw(state)) for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):  # a trim machine: a path through every state, all final
        arcs[: n - 1] = [(str(k), *draw(letter), str(k + 1)) for k in range(n - 1)]
        finals = list(FUZZ_STATES[:n])
    else:
        finals = draw(st.lists(state, max_size=4))
    lines = [["fst", "v1"], ["initial", "0"], ["final", *finals], *(["trans", *arc] for arc in arcs)]
    return _fuzz_text(draw, lines)


@st.composite
def fuzz_dataset(draw) -> str:
    words = draw(st.lists(st.lists(st.sampled_from(FUZZ_LETTERS), min_size=1, max_size=5), max_size=12))
    if draw(st.booleans()):
        words = [w[:k] for w in words for k in range(1, len(w) + 1)]
    return _fuzz_text(draw, [["<empty>"], *words])


@st.composite
def fuzz_call(draw) -> tuple[list[str], dict[str, str]]:
    """argv for one subcommand, its paths under "@/", and the text of each file it reads."""
    command = draw(st.sampled_from(sorted(_subparsers())))
    argv, files = [command], {}

    def read(flag, name, text):
        files[name] = draw(text)
        argv.extend([flag, f"@/{name}"] if flag else [f"@/{name}"])

    def write(flag, name, optional=False):
        if not optional or draw(st.booleans()):
            argv.extend([flag, f"@/{name}"])

    if command in ("learn", "hankel"):
        read("--data", "data.txt", fuzz_dataset())
    if command == "pipeline":
        read("--sensor-data", "sensor.txt", fuzz_dataset())
        read("--actuator-data", "actuator.txt", fuzz_dataset())
    if command in ("verify", "simulate", "pipeline"):
        read("--plant", "plant.fst", fuzz_machine())
    if command in ("verify", "simulate"):
        read("--supervisor", "supervisor.fst", fuzz_machine())
    if command in ("synth", "verify", "simulate"):
        read("--sensor-attacker", "sensor.fst", fuzz_machine())
        read("--actuator-attacker", "actuator.fst", fuzz_machine())
    if command in ("synth", "verify", "pipeline"):
        if draw(st.booleans()):
            items = draw(st.lists(st.sampled_from(FUZZ_PATTERN_ITEMS), min_size=1, max_size=6))
            if draw(st.integers(0, 9)) == 0:
                items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(FUZZ_PATTERN_MUTANTS)))
            argv.extend(["--mk", "".join(items)])
        else:
            read("--mk", "mk.fst", fuzz_machine())
    if command == "equiv":
        read(None, "left.fst", fuzz_machine())
        read(None, "right.fst", fuzz_machine())
    if command == "sample":
        read("--attacker", "attacker.fst", fuzz_machine())
        argv += ["--mode", draw(st.sampled_from(("random", "exhaustive"))), "--n", str(draw(st.integers(0, 20))),
                 "--max-len", str(draw(st.integers(0, 6)))]
    if command in ("simulate", "sample"):
        argv += ["--seed", str(draw(st.integers(0, 9)))]
    if command == "simulate":
        argv += ["--steps", str(draw(st.integers(0, 30)))]
        write("--trace-out", "trace.txt", optional=True)
    if command in ("learn", "synth", "sample"):
        write("--out", "out.txt")
    if command == "pipeline":
        write("--out", "out.fst", optional=True)
    if command in ("learn", "pipeline"):
        write("--dump-intermediates", "dump", optional=True)
    return argv, files


class TestFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(call=fuzz_call())
    def test_a_near_valid_call_ends_in_a_documented_exit_code(self, call):
        # Each call runs in a directory of its own; its bounds (at most 30 steps, words of at
        # most 6 letters, machines of at most 4 states) keep every command far inside 2 s.
        argv, files = call
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.replace("@/", tmp + os.sep) for a in argv])
            took = time.perf_counter() - start
        assert code in (0, 1, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert took < 2.0, argv
