"""The mutant gate: each fast path's oracle test must kill a named mutation.

A row is a source file of ``qmlib``, an exact old text that occurs there
once, its replacement, and the test (module, class or single test) that
must fail on the mutated copy.  The mutation is applied to a copy of
``src/qmlib`` under ``tmp_path``, never in place, and the test runs in a
fresh interpreter with ``PYTHONPATH`` set to the copy, under the
``mutant`` hypothesis profile of ``tests/conftest.py``: one failing
example kills the mutant, so the child does not shrink it.  A row whose
old text has moved or been duplicated fails loudly instead of passing.

The exit status must be 1 (tests ran, and some failed): a copy that does
not import gives a collection error, which is status 2, so it cannot pass
for a killed mutant.  A mutant that makes its test hang is killed too: the
child run keeps ``tests/conftest.py``'s per-test deadline, which ends it
with status 1.  A new fast path adds its own row; a mutation that
no test can tell apart from the original (an equivalent mutant) gets no
row, and its reason goes in the change that adds the fast path.
"""

import contextlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a row waits at least the child run's own per-test deadline for a hanging
# mutant, so its bound is the run's 300 s timeout below, not that deadline
DEADLINE_S = 330

# (file, old text, new text, killing test)
MUTANTS = {
    "is-directed-union-of-ups": (
        "order.py", "common &= up0[y]", "common |= up0[y]",
        "tests/test_order.py::TestDirected"),
    "is-directed-exits-on-a-partial-top": (
        "order.py", "if not common:", "if not common & ymask:",
        "tests/test_order.py::TestDirected"),
    "upper-bounds-union": (
        "order.py", "upper &= up0[y]", "upper |= up0[y]",
        "tests/test_kernel.py::test_suprema_match_the_oracle"),
    # on a hemimetric the row test alone implies the bound (d(x, x) = 0 is
    # the max of the d(y, x)), so a positive self-distance kills this one
    "d-sups-ignores-the-bounds": (
        "order.py", "get(profile, 0) & upper", "get(profile, 0)",
        "tests/test_order.py::TestSuprema::test_d_sups_subset_of_leq_sups"),
    # the enumerating sequences of the older link tests have one-point
    # cycles; the exhaustive test's cycle through p1 and p2 leaves Y's
    # bounds on some 3-point distance
    "link-y-below-seq-reads-one-cycle-point": (
        "order.py", "upper >> c & 1 for c in seq.cycle)", "upper >> c & 1 for c in seq.cycle[:1])",
        "tests/test_exhaustive.py::test_the_limit_audits_hold_for_every_set_and_cycle[[1, 2]]"),
    "subset-walk-drops-the-predecessors-top-point": (
        "order.py", "ys += (p,)", "ys = ys[:-1] + (p,)",
        "tests/test_order.py::test_walk_visits_every_subset_in_submask_order"),
    "subset-walk-profile-is-the-new-row": (
        "order.py", "tuple(map(max, profile, row_p))", "row_p",
        "tests/test_identities.py::test_every_distance_is_directed_complete_in_itself"),
    # the shared row is the max only where p bounds the predecessor
    "subset-walk-shares-the-row-where-p-is-reflexive": (
        "order.py", "row_p if bounds >> p & 1 else", "row_p if up_p >> p & 1 else",
        "tests/test_identities.py::test_every_distance_is_directed_complete_in_itself"),
    # a subset with upper bounds but no top member can still extend to a
    # directed one (its bound joins it)
    "subset-walk-skips-the-undirected": (
        "order.py", "if not upper:\n                continue\n            ys += (p,)\n",
        "ys += (p,)\n            if not any(upper >> y & 1 for y in ys):\n"
        "                continue\n",
        "tests/test_closed_forms.py::test_directed_subsets_checked_is_the_closed_form"),
    # equivalent in output: only the is_directed calls tell it apart
    "subset-walk-never-skips": (
        "order.py", "if not upper:\n                continue\n", "pass\n",
        "tests/test_order.py::test_walk_skips_the_subsets_without_upper_bounds"),
    # the one search from the first cycle point is sound only under the
    # triangle law
    "replay-accepts-a-non-distance": (
        "theorems.py",
        'raise PreconditionError("the directed-set replay requires a validated distance")',
        "pass",
        "tests/test_theorems.py::TestConstructiveReplay::test_a_non_distance_is_refused"),
    # an empty relation needs a column of d with no zero entry, so a
    # nonzero diagonal entry
    "filter-composition-empty-min-is-zero": (
        "theorems.py", "default=sentinel", "default=0",
        "tests/test_exhaustive.py::test_every_small_matrix_validates_as_the_oracle"),
    "chain-successor-from-numerator": (
        "family.py", "v.den // (v.den - v.num)", "v.num // (v.den - v.num)",
        "tests/test_family.py::TestChain"),
    "ball-bound-union-of-holders": (
        "derived.py", "ok[x] & held[z]", "ok[x] | held[z]",
        "tests/test_kernel.py::test_derived_functions_match_the_oracle_on_any_matrix"),
    "sup-upgrade-ball-closed": (
        "theorems.py", "rows[y][z] < dxz", "rows[y][z] <= dxz",
        "tests/test_theorems.py"),
    "formal-ball-radii-swapped": (
        "formal_balls.py", "(space.d(x, y) + s).tsub(r)", "(space.d(x, y) + r).tsub(s)",
        "tests/test_formal_balls.py::TestDistance::test_same_point_radius_gap"),
    "witness-limit-may-equal-required": (
        "gallery.py", "ExtReal.parse(r.limit) < ExtReal.parse(r.required)",
        "ExtReal.parse(r.limit) <= ExtReal.parse(r.required)",
        "tests/test_gallery.py::TestFixtureShapes::test_halfopen_rejections_must_be_witnesses"),
    "below-masks-ties-see-each-other": (
        "space.py", "if ascending[t] != ascending[start]:", "if True:",
        "tests/test_kernel.py::test_triangle_check_adds_only_where_both_legs_are_shorter"),
    # the col step of s is one too low: a k whose first leg reaches the
    # top step is dropped
    "staircase-steps-shifted": (
        "space.py", "cut[STEPS + 1 - s]", "cut[STEPS - s]",
        "tests/test_kernel.py::test_the_staircase_walk_matches_the_oracle"),
    # an inclusive cut is still sound, so only the sums it adds tell it
    "staircase-cut-inclusive": (
        "space.py", "if STEPS * nums[mid] * den < bound * dens[mid]:",
        "if STEPS * nums[mid] * den <= bound * dens[mid]:",
        "tests/test_kernel.py::test_triangle_check_adds_only_where_both_legs_are_shorter"),
    "extreal-same-denominator-lt-inclusive": (
        "extreal.py", "d != 0 and self.num < other.num", "d != 0 and self.num <= other.num",
        "tests/test_extreal.py::TestBasics::test_total_order"),
    "zero-classes-partition-unchecked": (
        "space.py", "if core >> i & 1 and (cls & ~core", "if False and (cls & ~core",
        "tests/test_instances.py::test_a_non_partition_raises_on_every_call"),
    "violation-cap-off-by-one": (
        "space.py", "if len(violations) == MAX_VIOLATIONS:",
        "if len(violations) > MAX_VIOLATIONS:",
        "tests/test_kernel.py::test_a_non_distance_stops_at_its_last_shown_violation"),
    "join-proven-on-any-matrix": (
        "space.py", "if space.validation.is_distance:", "if True:",
        "tests/test_exhaustive.py::test_every_small_matrix_validates_as_the_oracle"),
    "constructed-validation-symmetry-skips-a-column": (
        "space.py", "for j in range(i + 1, n))", "for j in range(i + 2, n))",
        "tests/test_exhaustive.py::test_every_small_matrix_validates_as_the_oracle"),
    "zero-down-from-rows": (
        "space.py", "for col in zip(*self.matrix))", "for col in self.matrix)",
        "tests/test_kernel.py::test_zero_masks_and_join_match_the_oracle_on_the_data_files"),
    # the denominators pick out the infinite entries (1/0), not the zeros
    "zero-mask-reads-den": (
        "space.py", "if not v.num:", "if not v.den:",
        "tests/test_kernel.py::test_zero_masks_and_join_match_the_oracle_on_the_data_files"),
    # the join of [[0, 0], [0, 0]] is a hemimetric with two points at
    # mutual distance 0
    "separation-skips-the-subdiagonal": (
        "space.py", "for j in range(i))", "for j in range(i - 1))",
        "tests/test_instances.py::test_join_validation_covers_each_flag"),
    "triangle-col-masks-from-rows": (
        "space.py", "for col in zip(*ranks)]", "for col in ranks]",
        "tests/test_kernel.py::test_validation_matches_the_oracle"),
    "scaled-zero-not-forced-to-rank-0": (
        "space.py", "values[0, 1] = ZERO", "pass",
        "tests/test_instances.py::test_scaled_matches_the_oracle"),
    "scaled-inf-not-forced-last": (
        "space.py", "values[1, 0] = INF", "pass",
        "tests/test_instances.py::test_scaled_matches_the_oracle"),
    "sups-signature-pair-below-one-member": (
        "order.py", "& up0[a] & up0[b]", "& up0[a]",
        "tests/test_sweep_masks.py::test_sups_signature_matches_the_suprema_loop"),
    "canonical-json-unsorted-keys": (
        "cli.py", "sorted(o.items())", "o.items()",
        "tests/test_cli.py::TestCanonicalJson::test_sorted_and_newline_terminated"),
    "entry-memo-any-type": (
        "space.py", "if type(v) is not str:", "if False:",
        "tests/test_cli.py::TestCheck::"
        "test_bad_input_is_one_line_parse_error[true-after-an-equal-int]"),
    "pool-imported-at-import": (
        "cli.py", "import os\n", "import os\nimport pickle\n",
        "tests/test_startup.py"),
    "pool-skips-reaping": (
        "cli.py", "codes = [os.waitpid(pid, 0)[1] for _, pid, _ in children]",
        "codes = [0 for _ in children]",
        "tests/test_cli.py::TestForkPool"),
    "pool-raises-first-collected-failure": (
        "cli.py", "raise min(failures, key=lambda f: f[0])[1]", "raise failures[0][1]",
        "tests/test_cli.py::TestForkPool::test_the_lowest_chunk_failure_is_raised"),
    # the child blocks writing to a pipe that it still reads itself, so
    # this process waits for it until the test deadline ends the run
    "pool-child-keeps-its-read-end": (
        "cli.py", "os.close(r)\n                        for _, _, earlier",
        "for _, _, earlier",
        "tests/test_cli.py::TestForkPool::test_an_interrupt_here_ends_a_child_blocked_on_its_pipe"),
    "pool-forks-past-the-chunks": (
        "cli.py", "range(1, min(step, len(chunks)))", "range(1, step)",
        "tests/test_cli.py::TestWorkers::test_pool_size_is_capped_by_the_chunk_count[4-17-2]"),
    "pool-ignores-a-missing-fork": (
        "cli.py", 'step = self._max_workers if hasattr(os, "fork") else 1',
        "step = self._max_workers",
        "tests/test_cli.py::TestWorkers::test_without_fork_a_pool_gives_the_serial_bytes"),
    "finite-space-rows-unchecked": (
        "space.py", "len(matrix) != n or any(len(row) != n for row in matrix)",
        "len(matrix) != n",
        "tests/test_records.py::test_constructor_checks[ragged-matrix]"),
    "vector-prefix-includes-j-equal-m": (
        "family.py", "max(below[m - 1], diag[m - 1], above[m])",
        "max(below[m], diag[m - 1], above[m])",
        "tests/test_family.py::TestVectorFamily::test_pairwise_values"),
    "upper-hole-against-the-greatest-point": (
        "family.py", "w = self.space.value(self._least_point())",
        "w = self.space.value(max(self.space.points(), key=self.space.value))",
        "tests/test_family.py::TestChain::test_hole_limit_sets"),
    # the genuine columns match the closed form, so only a broken one
    # reaches the mismatch branch
    "vector-pairwise-ignores-a-mismatch": (
        "family.py", "if got != want:", "if got != want and m == k:",
        "tests/test_family.py::TestTriStateAndCertificates::"
        "test_a_broken_closed_form_fails_its_certificate[fm.pairwise]"),
    # equivalent in output: only the skipped triangle walk tells it apart
    "closure-returns-a-plain-space": (
        "space.py", "return ProvenDistance(tuple(labels), tuple(tuple(r) for r in work))",
        "return FiniteSpace(tuple(labels), tuple(tuple(r) for r in work))",
        "tests/test_instances.py::test_constructed_spaces_validate_without_the_triangle_walk"),
    "vector-closed-form-one-over-m": (
        "family.py", "want = ExtReal(1, k)", "want = ExtReal(1, m)",
        "tests/test_family.py::TestTriStateAndCertificates::test_certificate_failure_is_loud"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, tmp_path):
    filename, old, new, target = MUTANTS[name]
    copy = tmp_path / "qmlib"
    shutil.copytree(ROOT / "src" / "qmlib", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / filename
    text = source.read_text()
    assert text.count(old) == 1, f"{name}: {old!r} must occur once in {filename}"
    source.write_text(text.replace(old, new))
    log = tmp_path / "log.txt"
    # the output goes to a file, not a pipe, so a process the run leaves
    # behind cannot keep this test waiting for its end; the run has its own
    # process group, and whatever is left of it (a pool child blocked on
    # its pipe) is killed with it
    with open(log, "w") as out, subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutant", str(ROOT / target)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True) as run:
        try:
            code = run.wait(timeout=300)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)
    tail = "\n".join(log.read_text().splitlines()[-5:])
    assert code == 1, f"{name} survived {target} (exit {code}):\n{tail}"

