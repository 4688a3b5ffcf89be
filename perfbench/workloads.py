"""The four workloads: a timed closed loop each, and the checks of its outputs.

Every workload is one client on one thread: the next operation starts
only after the previous one returned, and `cli` runs one child process
at a time. Loops stop at the end of the first cycle (a fixed, seeded
batch of operations) that ends after the deadline, so every run covers
whole cycles. Outputs are recorded during the loop and checked only
after it, once per distinct output of each input.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from dycknum import bfile, core, oracle, sequence

import checks
import inputs
from spans import Raised, Recorder, outcome

ORACLE_RANGE_MAX = 14  # brute_range is used up to here
SUCCESSOR_SAMPLE = 32  # oracle successor checks per range above that
CLI_TIMEOUT_S = 10


class Failure(NamedTuple):
    """Operations that gave one wrong output."""

    ops: int  # how many operations gave it
    first_op: int
    layer: str
    message: str


class Outcomes:
    """Distinct outputs per input and how many operations gave each.

    Memory grows with the distinct outputs, not with the operations, and
    each distinct output is judged once however often it repeats.
    """

    def __init__(self):
        self.variants: dict = {}  # input key -> distinct outputs
        self.counts: Counter = Counter()  # (key, variant index) -> operations
        self.first_op: dict = {}

    def add(self, op: int, key, out) -> int:
        """Count one operation's output; returns the output's variant index."""
        outs = self.variants.setdefault(key, [])
        for v, known in enumerate(outs):
            if known == out:
                break
        else:
            v = len(outs)
            outs.append(out)
            self.first_op[key, v] = op
        self.counts[key, v] += 1
        return v

    def failures(self, judge: Callable) -> list[Failure]:
        """judge(key, output) returns (layer, message) for a wrong output, else None."""
        found = []
        for key, outs in self.variants.items():
            for v, out in enumerate(outs):
                problem = judge(key, out)
                if problem:
                    found.append(Failure(self.counts[key, v], self.first_op[key, v], *problem))
        return found


class Sweep:
    """Ranges 1..K: list each, write it as a b-file, read it back, diff it."""

    name = "sweep"
    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.first_ordinal = {
            k: inputs.range_first_ordinal(k) for k in range(1, inputs.SWEEP_MAX_RANGE + 1)
        }
        self.ranges = Outcomes()  # per range index, the outputs of its four calls
        self.passes = Outcomes()  # per pass, which of those outputs each range gave

    def warm_up(self) -> None:
        rec = Recorder(False)
        rec.begin()
        self._range(rec, 3)
        rec.end(0)

    def _range(self, rec: Recorder, k: int) -> tuple:
        terms = rec.call("sequence.range_terms", k, sequence.range_terms, k)
        if isinstance(terms, Exception):
            return (outcome(terms),)
        offset = self.first_ordinal[k]
        text = rec.call("bfile.emit_bfile", k, bfile.emit_bfile, terms, offset)
        parsed = rec.call("bfile.parse_bfile", k, bfile.parse_bfile, text)
        generated = bfile.BFile(offset, tuple(terms))
        report = rec.call("bfile.compare", k, bfile.compare, generated, parsed)
        return tuple(map(outcome, (terms, text, parsed, report)))

    def run(self, rec: Recorder, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            op = rec.begin()
            terms, variants = 0, {}
            for k in inputs.sweep_order(self.rng):
                outs = self._range(rec, k)
                terms += len(outs[0]) if isinstance(outs[0], list) else 0
                variants[k] = self.ranges.add(op, k, outs)
            rec.end(terms)
            self.passes.add(op, None, tuple(sorted(variants.items())))

    def bytes_per_pass(self) -> int:
        """Bytes of b-file text one pass writes, from each range's first output."""
        return sum(
            len(outs[0][1]) for outs in self.ranges.variants.values() if len(outs[0]) > 1
        )

    def check(self) -> list[Failure]:
        verdicts = {
            (k, v): self._check_range(k, outs)
            for k, variants in self.ranges.variants.items()
            for v, outs in enumerate(variants)
        }

        def judge(_, signature):
            return next((verdicts[kv] for kv in signature if verdicts[kv]), None)

        return self.passes.failures(judge)

    def _check_range(self, k: int, outs: tuple) -> tuple[str, str] | None:
        terms = outs[0]
        if not isinstance(terms, list):
            return "sequence", f"range_terms({k}) returned {terms!r}"
        if k <= ORACLE_RANGE_MAX:
            if terms != oracle.brute_range(k):
                return "sequence", f"range_terms({k}) differs from oracle.brute_range"
        else:
            problem = self._check_large_range(k, terms)
            if problem:
                return "sequence", problem
        _, text, parsed, report = outs
        offset = self.first_ordinal[k]
        expected_text = "".join(f"{i} {t}\n" for i, t in enumerate(terms, start=offset))
        if text != expected_text:
            return "bfile", f"emit_bfile for range {k} is not the canonical text"
        if parsed != bfile.BFile(offset, tuple(terms)):
            return "bfile", f"parse_bfile for range {k} does not give back the terms"
        if report != bfile.DiffReport(bfile.MATCH, len(terms)):
            return "bfile", f"compare for range {k} gave {report!r}"
        return None

    def _check_large_range(self, k: int, terms: list[int]) -> str | None:
        if len(terms) != sequence.central_binomial(k - 1):
            return f"range {k} has {len(terms)} terms, not C({k - 1}, {(k - 1) // 2})"
        if terms[0] != (1 << (k - 1)) - 1 + (1 << (k // 2)) or terms[-1] != (1 << k) - 1:
            return f"range {k} has the wrong first or last term"
        if any(a >= b for a, b in zip(terms, terms[1:])):
            return f"range {k} is not strictly increasing"
        if any(checks.first_violation(t) is not None for t in terms):
            return f"range {k} holds a non-Dyck number"
        sample = random.Random(self.seed * 1000 + k).sample(
            range(len(terms) - 1), SUCCESSOR_SAMPLE
        )
        for i in sample:
            if oracle.brute_successor(terms[i]) != terms[i + 1]:
                return f"range {k}: term after {terms[i]} is not the oracle's successor"
        return None


class Bigint:
    """Single core calls at 22, 64 and 10**4 bits, members and non-members."""

    name = "bigint"
    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pools = inputs.bigint_pools(self.rng)
        self.outcomes = Outcomes()

    def warm_up(self) -> None:
        for fn in inputs.BIGINT_FUNCTIONS:
            getattr(core, fn)("UUDD" if fn == "from_dyck_word" else 11)

    def run(self, rec: Recorder, seconds: float) -> None:
        deadline = perf_counter() + seconds
        pools = self.pools
        while perf_counter() < deadline:
            for key in inputs.bigint_cycle(self.rng):
                fn, width, kind, index = key
                case = pools[width, kind][index]
                arg = case.word if fn == "from_dyck_word" else case.value
                op = rec.begin()
                out = rec.call("core." + fn, width, getattr(core, fn), arg)
                rec.end(1)
                self.outcomes.add(op, key, outcome(out))

    def check(self) -> list[Failure]:
        def judge(key, out):
            fn, width, kind, index = key
            message = self._check_call(fn, self.pools[width, kind][index], out)
            return message and ("core", message)

        return self.outcomes.failures(judge)

    def refusals(self, failures: list[Failure]) -> tuple[int, int]:
        """(non-members correctly refused, non-members sent)."""
        sent = sum(n for (key, _), n in self.outcomes.counts.items() if key[2] != "member")
        return sent - sum(f.ops for f in failures if f.layer == "core"), sent

    @staticmethod
    def _check_call(fn: str, case: inputs.NumberCase, out) -> str | None:
        if case.kind != "member":
            if fn == "is_dyck_number":
                expected = False
            elif fn == "violating_suffix":
                expected = case.suffix
            elif fn == "from_dyck_word":
                ok = isinstance(out, Raised) and out.type == "NotDyckWordError"
                return None if ok else f"from_dyck_word accepted a word dipping at step {case.dip_step}"
            else:
                ok = (
                    isinstance(out, Raised)
                    and out.type == "NotDyckNumberError"
                    and out.detail == case.suffix
                )
                return None if ok else f"{fn} did not refuse a {case.kind} non-member at {case.width} bits"
        else:
            d = case.value
            expected = {
                "is_dyck_number": lambda: True,
                "violating_suffix": lambda: None,
                "successor": lambda: checks.successor(d),
                "valley_depth": lambda: checks.valley_depth(d),
                "height_profile": lambda: checks.suffix_heights(d),
                "to_dyck_word": lambda: case.word,
                "from_dyck_word": lambda: d,
                "to_standard_code": lambda: checks.standard_code(d),
            }[fn]()
            if fn == "successor" and d < 1 << 24 and oracle.brute_successor(d) != expected:
                return "the reference successor disagrees with the oracle"
        if out != expected or type(out) is not type(expected):
            return f"{fn} gave a wrong answer for a {case.kind} input at {case.width} bits"
        return None


class Lookup:
    """term_at for log-uniform ordinals, each answer fed back through index_of."""

    name = "lookup"
    in_process = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.pool = inputs.lookup_pool(self.rng)
        self.outcomes = Outcomes()

    def warm_up(self) -> None:
        sequence.index_of(sequence.term_at(10))

    def run(self, rec: Recorder, seconds: float) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            for i in inputs.lookup_cycle(self.rng, self.pool):
                op = rec.begin()
                d = rec.call("sequence.term_at", None, sequence.term_at, i)
                j = d if isinstance(d, Exception) else rec.call(
                    "sequence.index_of", None, sequence.index_of, d
                )
                rec.end(1)
                self.outcomes.add(op, i, (outcome(d), outcome(j)))

    def check(self) -> list[Failure]:
        wanted = sorted(self.outcomes.variants)
        sample = random.Random(self.seed).sample(wanted, min(len(wanted), SUCCESSOR_SAMPLE))
        reference, after, problem = self._walk(wanted, set(sample))
        if not problem:
            for i in sample:
                if oracle.brute_successor(reference[i]) != after[i]:
                    problem = f"iter_from disagrees with the oracle after term {i}"

        def judge(i, out):
            d, j = out
            if problem:
                return "sequence", f"no reference: {problem}"
            if d != reference[i]:
                return "sequence", f"term_at({i}) gave {d!r}"
            if j != i:
                return "sequence", f"index_of(term_at({i})) gave {j!r}"
            return None

        return self.outcomes.failures(judge)

    @staticmethod
    def _walk(wanted: list[int], sample: set[int]):
        # one iter_from walk: the terms at the wanted ordinals, the term
        # after each sampled one, and a check of where each range starts
        targets = set(wanted)
        reference, after = {}, {}
        bits = 0
        for i, d in enumerate(sequence.iter_from(0), start=1):
            if d.bit_length() != bits:
                bits = d.bit_length()
                if i != inputs.range_first_ordinal(bits):
                    return reference, after, f"range {bits} starts at ordinal {i}"
            if i - 1 in sample:
                after[i - 1] = d
            if i in targets:
                reference[i] = d
                if checks.first_violation(d) is not None:
                    return reference, after, f"iter_from yielded the non-Dyck number {d}"
            if i > wanted[-1]:
                return reference, after, None


class Spawner:
    """A small helper process that starts each `dyck` process and waits for it.

    A child's peak RSS counts the memory it was forked from, so the
    children are forked from this lean helper rather than from the
    benchmark; at the end the helper reports the largest child's peak.
    """

    PROGRAM = (
        "import json, resource, subprocess, sys\n"
        "for line in sys.stdin:\n"
        "    try:\n"
        "        p = subprocess.run(json.loads(line), capture_output=True, text=True, timeout={timeout})\n"
        "        reply = [p.returncode, p.stdout]\n"
        "    except subprocess.TimeoutExpired:\n"
        "        reply = None\n"
        "    print(json.dumps(reply), flush=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)\n"
    )

    def __init__(self, cwd: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", self.PROGRAM.format(timeout=CLI_TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=cwd,
            env=env,
        )

    def run(self, argv) -> tuple[int, str]:
        """Exit code and stdout of `python -m dycknum.cli *argv`."""
        self.proc.stdin.write(json.dumps([sys.executable, "-m", "dycknum.cli", *argv]) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply is None:
            raise TimeoutError(f"dyck {' '.join(argv)} ran over {CLI_TIMEOUT_S} s")
        return tuple(reply)

    def close(self) -> float:
        """Stop the helper; returns its children's largest peak RSS in MB."""
        self.proc.stdin.close()
        peak_kb = int(self.proc.stdout.readline())
        self.proc.wait(timeout=CLI_TIMEOUT_S)
        return peak_kb / 1024

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Cli:
    """`python -m dycknum.cli` processes, one at a time, stdout and exit code checked."""

    name = "cli"
    # the work runs in child processes, which the calibration loop in this
    # process cannot observe, so cli times are reported as measured
    in_process = False

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.terms_by_ordinal = [None, 0]
        for k in range(1, ORACLE_RANGE_MAX + 1):
            self.terms_by_ordinal += oracle.brute_range(k)
        self.outcomes = Outcomes()
        self.peak_rss_mb = 0.0

    def warm_up(self) -> None:
        """Nothing to do here: run() warms up through its own helper."""

    def _window(self, offset: int) -> list[int]:
        return self.terms_by_ordinal[offset : offset + inputs.CLI_BFILE_COUNT]

    def _argv(self, case: inputs.CliCase, n: int) -> tuple[str, ...]:
        if "{file}" not in case.argv:
            return case.argv
        values = self._window(case.offset)
        if case.planted:
            index, wrong = case.planted
            values[index - case.offset] = wrong
        path = self.workdir / f"check-{n}.txt"
        lines = "".join(f"{i} {v}\n" for i, v in enumerate(values, start=case.offset))
        path.write_text("# A036991 window\n" + lines)
        return tuple(str(path) if a == "{file}" else a for a in case.argv)

    def run(self, rec: Recorder, seconds: float) -> None:
        with Spawner(self.root, self.env) as spawner:
            spawner.run(("check", "21"))
            deadline = perf_counter() + seconds
            while perf_counter() < deadline:
                for case in inputs.cli_cycle(self.rng):
                    argv = self._argv(case, rec.ops)
                    op = rec.begin()
                    result = rec.call("cli." + case.name, None, spawner.run, argv)
                    rec.end(case.terms)
                    self.outcomes.add(op, case, outcome(result))
            self.peak_rss_mb = spawner.close()

    def expected(self, case: inputs.CliCase) -> tuple[int, str]:
        c = case.case
        command = case.argv[0]
        if command == "check":
            if c.kind == "member":
                return 0, "yes\n"
            return 1, f"no (violating suffix {c.suffix})\n"
        if command == "succ":
            values, d = [], c.value
            for _ in range(inputs.CLI_SUCC_COUNT):
                d = oracle.brute_successor(d)
                values.append(d)
            return 0, "".join(f"{v}\n" for v in values)
        if command == "convert":
            target = case.argv[-1]
            if target == "word":
                return 0, c.word + "\n"
            if target == "standard":
                return 0, f"{checks.standard_code(c.value)}\n"
            heights = reversed(checks.suffix_heights(c.value))
            return 0, " ".join(map(str, heights)) + "\n"
        if command == "range":
            return 0, " ".join(map(str, oracle.brute_range(inputs.CLI_RANGE))) + "\n"
        if command == "oracle-succ":
            return 0, f"{oracle.brute_successor(c.value)}\n"
        values = self._window(case.offset)
        if "--check" not in case.argv:
            return 0, "".join(f"{i} {v}\n" for i, v in enumerate(values, start=case.offset))
        if case.planted:
            index, wrong = case.planted
            return 1, f"mismatch at index {index}: expected {wrong}, got {values[index - case.offset]}\n"
        return 0, f"match: {len(values)} terms agree\n"

    def check(self) -> list[Failure]:
        def judge(case, result):
            want = self.expected(case)
            if result == want:
                return None
            got = result if isinstance(result, Raised) else f"exit {result[0]}"
            return "cli", f"dyck {' '.join(case.argv)}: {got}, expected exit {want[0]}"

        return self.outcomes.failures(judge)

    def exit_mismatches(self) -> int:
        return sum(
            self.outcomes.counts[case, v]
            for case, results in self.outcomes.variants.items()
            for v, result in enumerate(results)
            if isinstance(result, Raised) or result[0] != self.expected(case)[0]
        )


WORKLOADS = {w.name: w for w in (Sweep, Bigint, Lookup)}
