import concurrent.futures
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter

import pytest

import klrcalc
import worked_examples as wx
from klrcalc import jsonio, lr, verify
from klrcalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_all_agrees(capsys):
    code, out, _ = run(capsys, "coeff", "--lambda", "3,2,1", "--mu", "3,1",
                       "--nu", "4,4,3,2", "--rule", "all")
    assert code == 0
    assert out.strip() == "buch=2 contra=2 oracle=2 AGREE"


def test_coeff_single_rules(capsys):
    code, out, _ = run(capsys, "coeff", "--lambda", "1", "--mu", "", "--nu", "1")
    assert code == 0 and out.strip() == "1"
    for rule in ("buch", "contra", "oracle"):
        code, out, _ = run(capsys, "coeff", "--lambda", "2", "--mu", "2",
                           "--nu", "1", "--rule", rule)
        assert code == 0 and out.strip() == "0"


def test_coeff_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["coeff", "--lambda", "1,2", "--mu", "", "--nu", "1"])
    assert info.value.code == 1


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 1, "", "klrcalc: error: the following arguments are required: command\n"),
    (["bogus"], 1, "", "klrcalc: error: argument command: invalid choice: 'bogus' (choose "
     "from 'coeff', 'enumerate', 'bijection', 'word', 'verify', 'expand')\n"),
    (["coeff", "--lambda", "1", "--mu", "1", "--nu", "2", "--extra"], 1, "",
     "klrcalc: error: unrecognized arguments: --extra\n"),
    (["coeff", "--lambda", "1"], 1, "",
     "klrcalc coeff: error: the following arguments are required: --mu, --nu\n"),
    (["coeff", "--lambda", "1", "--mu", "1", "--nu", "2", "--rule", "x"], 1, "",
     "klrcalc coeff: error: argument --rule: invalid choice: 'x' (choose from 'buch', "
     "'contra', 'oracle', 'all')\n"),
    (["coeff", "--lam", "1", "--mu", "1", "--nu", "2"], 0, "1\n", ""),  # an abbreviation
    (["coeff", "--lambda=1", "--mu=1", "--nu=2", "--rule", "all"], 0,
     "buch=1 contra=1 oracle=1 AGREE\n", ""),
])
def test_usage_errors_and_forms(capsys, argv, code, out, err):
    # a command's own parser reads its arguments; a missing or unknown
    # command and a leftover argument are worded by the whole parser
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)


def test_enumerate_final_example(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "rotated 3,2,1",
                       "--n", "4", "--weight", "1,3,3,2",
                       "--dominant", "3,1", "--set-valued")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 2}
    found = {jsonio.filling_from_obj(json.loads(line)) for line in lines[:-1]}
    assert found == {wx.s1(), wx.s2()}


def test_enumerate_straight_witnesses(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "3,1", "--n", "4",
                       "--weight", "1,2,2,2", "--dominant", "3,2,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 2}
    found = {jsonio.filling_from_obj(json.loads(line)) for line in lines[:-1]}
    assert found == {wx.t1(), wx.t2()}


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "1,1", "--n", "1")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 0}
    code, out, _ = run(capsys, "enumerate", "--shape", "1", "--n", "2",
                       "--set-valued")
    lines = out.strip().splitlines()
    assert json.loads(lines[-1]) == {"count": 3}
    assert [json.loads(l)["rows"] for l in lines[:-1]] == [
        [[[1]]], [[[2]]], [[[1, 2]]]]


def test_enumerate_refuses_a_negative_n(capsys):
    # as coeff, expand and verify do: exit 1, one error line, no count
    code, out, err = run(capsys, "enumerate", "--shape", "2,1", "--n", "-1")
    assert (code, out, err) == (1, "", "error: --n must be >= 0, got -1\n")
    code, out, _ = run(capsys, "enumerate", "--shape", "", "--n", "0")
    assert code == 0 and json.loads(out.strip().splitlines()[-1]) == {"count": 1}


def test_enumerate_refuses_an_n_above_the_largest_entry(capsys):
    # a filling with an entry above MAX_ENTRY is one the rest of the CLI refuses
    top = klrcalc.tableaux.MAX_ENTRY
    weight = ",".join(["0"] * top + ["1"])
    code, out, err = run(capsys, "enumerate", "--shape", "1", "--n", str(top + 1),
                         "--weight", weight)
    assert (code, out, err) == (1, "", f"error: --n must be <= {top}, got {top + 1}\n")
    code, out, _ = run(capsys, "enumerate", "--shape", "1", "--n", str(top),
                       "--weight", ",".join(["0"] * (top - 1) + ["1"]))
    assert code == 0 and out.splitlines()[0] == f'{{"outer": [1], "inner": [], "rows": [[[{top}]]]}}'


def test_enumerate_output_reparses_identically(capsys):
    code, out, _ = run(capsys, "enumerate", "--shape", "2,1", "--n", "2")
    for line in out.strip().splitlines()[:-1]:
        obj = json.loads(line)
        assert jsonio.filling_obj(jsonio.filling_from_obj(obj)) == obj


def test_word_command(capsys, tmp_path):
    path = tmp_path / "filling.json"
    path.write_text(json.dumps(jsonio.filling_obj(wx.reading_word_tableau())))
    code, out, _ = run(capsys, "word", "--input", str(path), "--kind", "column")
    assert code == 0 and out.strip() == "3 2 2 1 4 1 4 3 2"
    code, out, _ = run(capsys, "word", "--input", str(path), "--kind", "row",
                       "--dominant", "4,2,1")
    assert code == 0
    assert out.splitlines() == ["3 2 2 1 1 4 4 3 2", "dominant: true"]
    code, out, _ = run(capsys, "word", "--input", str(path), "--kind", "row",
                       "--dominant", "3,1")
    assert out.splitlines()[1] == "dominant: false"


def test_bijection_upsilon(capsys, tmp_path):
    path = tmp_path / "marked.json"
    path.write_text(json.dumps(jsonio.marked_obj(wx.upsilon_marked())))
    code, out, _ = run(capsys, "bijection", "--direction", "upsilon",
                       "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert jsonio.filling_from_obj(obj["output"]) == wx.upsilon_marked_output()


def test_bijection_gamma_trace(capsys, tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(jsonio.filling_obj(wx.t1())))
    code, out, _ = run(capsys, "bijection", "--direction", "gamma",
                       "--input", str(path), "--lambda", "3,2,1",
                       "--mu", "3,1", "--nu", "4,4,3,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["X_T"]["rows"] == [list(r) for r in wx.X_T1_ROWS]
    assert obj["Mp_T"] == [list(m) for m in sorted(wx.MP_T1)]
    assert jsonio.filling_from_obj(obj["S"]) == wx.s1()


def test_bijection_omega_roundtrip(capsys, tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps(jsonio.filling_obj(wx.s1())))
    code, out, _ = run(capsys, "bijection", "--direction", "omega-inv",
                       "--input", str(path), "--n", "4")
    assert code == 0
    marked = json.loads(out)["output"]
    path2 = tmp_path / "marked.json"
    path2.write_text(json.dumps(marked))
    code, out, _ = run(capsys, "bijection", "--direction", "omega",
                       "--input", str(path2))
    assert code == 0
    assert jsonio.filling_from_obj(json.loads(out)["output"]) == wx.s1()


def test_bijection_domain_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(jsonio.filling_obj(wx.t2())))
    code, out, err = run(capsys, "bijection", "--direction", "gamma",
                         "--input", str(path), "--lambda", "3,2,1",
                         "--mu", "3,1", "--nu", "4,4,3,3")
    assert code == 3
    assert out == "" and "domain" in err.lower()


def test_bijection_gamma_names_a_negative_weight(capsys, tmp_path):
    # nu = (1, 1) lies below lam = (2,), so no filling is a witness
    path = tmp_path / "t.json"
    path.write_text('{"outer":[1],"rows":[[[1]]]}')
    assert run(capsys, "bijection", "--direction", "gamma", "--input", str(path),
               "--lambda", "2", "--mu", "1", "--nu", "1,1", "--n", "3") == (
        3, "", "domain error: nu - lam has a negative entry\n")


@pytest.mark.parametrize("argv, text, err", [
    (["bijection", "--direction", "upsilon"], '{"rows":[[1]],"marks":5}',
     'error: "marks" must be a list of [i, j] pairs\n'),
    (["word"], '{"outer":[2,1],"rows":[[[1],[1]]]}',
     "error: not a filling: expected 2 rows, got 1\n"),
])
def test_malformed_input_error_texts(capsys, tmp_path, argv, text, err):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(capsys, *argv, "--input", str(path)) == (1, "", err)


@pytest.mark.parametrize("outer, inner", [((3, 2), (1,)), ((3, 3, 1), (1,)),
                                          ((3, 3), (1, 1))])
def test_bijection_omega_inv_rejects_non_rotated_shapes(capsys, tmp_path, outer, inner):
    # an untagged skew filling whose cells do not form a rotated diagram
    rows = [[[1]] * (o - i) for o, i in zip(outer, inner + (0,) * len(outer))]
    path = tmp_path / "filling.json"
    path.write_text(json.dumps({"outer": outer, "inner": inner, "rows": rows}))
    code, out, err = run(capsys, "bijection", "--direction", "omega-inv",
                         "--input", str(path), "--n", "3")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error: ")


@pytest.mark.parametrize("direction", ["upsilon", "omega"])
@pytest.mark.parametrize("text", ['{"rows":[[1],[1,-1]],"marks":[[2,1]]}',
                                  '{"rows":[[0],[0,-1]],"marks":[[2,1]]}'],
                         ids=["top-1", "top-0"])
def test_bijection_rejects_negative_pattern_entries(capsys, tmp_path, direction, text):
    path = tmp_path / "pattern.json"
    path.write_text(text)
    code, out, err = run(capsys, "bijection", "--direction", direction,
                         "--input", str(path))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("domain error: ")


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "--lambda", "1", "--mu", "1",
                       "--n", "2", "--cap", "4")
    assert code == 0
    rows = {tuple(r["nu"]): (r["C"], r["sign"]) for r in json.loads(out)}
    assert rows == {(2,): (1, 1), (1, 1): (1, 1), (2, 1): (1, -1)}


def test_expand_respects_cap_guard(capsys, monkeypatch):
    monkeypatch.setenv("KLR_MAX_CAP", "3")
    code, out, err = run(capsys, "expand", "--lambda", "2,1", "--mu", "2,1",
                         "--n", "3")
    assert code == 1
    assert "KLR_MAX_CAP" in err and out == ""
    monkeypatch.setenv("KLR_MAX_CAP", "64")
    code, _, _ = run(capsys, "expand", "--lambda", "1", "--mu", "1", "--n", "2")
    assert code == 0


@pytest.mark.parametrize("tail, code", [
    (["--n", "2", "--cap", "2"], 0),
    (["--n", "2", "--cap", "1"], 1),
    (["--n", "2", "--cap", "-1"], 1),
    (["--n", "-1"], 1),
])
def test_expand_cap_below_factor_size_exit_code(capsys, tail, code):
    # a cap below a factor's size or a negative --n is a usage problem:
    # exit 1 and one error line; a cap that fits both factors still works
    got, out, err = run(capsys, "expand", "--lambda", "2", "--mu", "1", *tail)
    assert got == code
    if code:
        assert out == "" and err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
    else:
        assert out.strip() == "[]" and err == ""


def test_large_n_is_answered_not_a_traceback(capsys):
    # the oracle reads the product in min(n, cap) variables and the s basis
    # in min(n, |lam| + |mu|), so --n past those bounds changes nothing
    code, out, err = run(capsys, "coeff", "--lambda", "1", "--mu", "1", "--nu", "2",
                         "--n", "1025", "--rule", "all")
    assert (code, out, err) == (0, "buch=1 contra=1 oracle=1 AGREE\n", "")
    for basis in ("g", "s"):
        argv = ("expand", "--lambda", "1", "--mu", "1", "--basis", basis)
        small = run(capsys, *argv, "--n", "5")
        assert small[0] == 0 and small[2] == "" and json.loads(small[1])
        assert run(capsys, *argv, "--n", "1025") == small


def test_expand_schur_basis_ignores_cap(capsys):
    # the s basis is homogeneous: --cap, even one below both factors,
    # leaves its expansion as it is
    argv = ("expand", "--lambda", "2,1", "--mu", "2,1", "--n", "3", "--basis", "s")
    code, uncapped, _ = run(capsys, *argv)
    assert code == 0 and json.loads(uncapped)
    code, capped, _ = run(capsys, *argv, "--cap", "0")
    assert code == 0 and capped == uncapped


def test_closed_pipe_exits_quietly():
    # the reader closes the pipe after one line of a 194 KB stream
    proc = subprocess.Popen(
        [sys.executable, "-m", "klrcalc", "enumerate", "--shape", "4,3,2", "--n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrcalc.__file__))})
    assert json.loads(proc.stdout.readline())["outer"] == [4, 3, 2]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


_HUGE_ENTRY = '{"outer": [2, 1], "inner": [], "rows": [[[1], [1000000000]], [[2]]]}'
_SMALL = '{"outer": [1], "inner": [], "rows": [[[1]]]}'


@pytest.mark.parametrize("argv, stdin, code, err", [
    (["bijection", "--direction", "upsilon-inv"], _HUGE_ENTRY, 1,
     "error: not a filling: cell (1, 2) holds an entry above 1024\n"),
    (["word"], _HUGE_ENTRY, 1,
     "error: not a filling: cell (1, 2) holds an entry above 1024\n"),
    (["bijection", "--direction", "upsilon-inv", "--n", "1000000000"], _SMALL, 3,
     "domain error: n=1000000000 is above the largest entry 1024\n"),
    (["bijection", "--direction", "omega-inv", "--n", "1000000000"], _SMALL, 3,
     "domain error: n=1000000000 is above the largest entry 1024\n"),
])
def test_entry_bound_refusals_allocate_nothing(argv, stdin, code, err):
    # under an address-space limit a runaway allocation fails the test
    # instead of taking down the machine that runs it
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "klrcalc", *argv], input=stdin, capture_output=True,
        text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrcalc.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


def test_long_shapes_are_answered_not_a_traceback(capsys):
    # more cells than the recursion limit, on both sides of the rule
    for lam, mu in (("1", "1100"), ("1100", "1")):
        code, out, err = run(capsys, "coeff", "--lambda", lam, "--mu", mu,
                             "--nu", "1101", "--rule", "all")
        assert (code, out, err) == (0, "buch=1 contra=1 oracle=1 AGREE\n", "")
    assert verify.check_bijections((1100,), 1) == ""


def test_commands_load_no_pool_machinery():
    # only a verify run with more than one job imports the process pool;
    # a fresh interpreter, since this one may have loaded it already
    script = """
import sys
before = set(sys.modules)
import klrcalc.cli
from klrcalc import verify
assert all(r.ok for r in verify.run_verify(1, 1, jobs=1))
added = set(sys.modules) - before
print(sorted(m for m in added if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(klrcalc.__file__))})
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_verify_small_pass(capsys):
    code, out, _ = run(capsys, "verify", "--max-size", "2", "--n", "2",
                       "--jobs", "1")
    assert code == 0
    assert out.strip().endswith("SUMMARY: pass")
    # vacuous sweep over the empty partition only
    code, out, _ = run(capsys, "verify", "--max-size", "0", "--n", "1",
                       "--jobs", "1")
    assert code == 0 and out.strip().endswith("SUMMARY: pass")


def test_verify_seed_and_jobs_do_not_change_results(capsys):
    code, base, _ = run(capsys, "verify", "--max-size", "1", "--n", "2",
                        "--jobs", "1")
    assert code == 0
    code, seeded, _ = run(capsys, "verify", "--max-size", "1", "--n", "2",
                          "--jobs", "1", "--seed", "7")
    assert code == 0
    assert sorted(base.splitlines()) == sorted(seeded.splitlines())
    code, pooled, _ = run(capsys, "verify", "--max-size", "1", "--n", "2",
                          "--jobs", "2")
    assert code == 0
    assert pooled == base


def test_verify_detects_corrupted_rule(capsys, monkeypatch):
    # harness self-test: break one rule and expect a minimal counterexample;
    # the sweep counts buch witnesses from the listed tableaux, so one
    # extra listed witness is one extra in the buch count
    real = lr.witness_lists

    def flipped(lam, mu, n):
        lists = real(lam, mu, n)
        top = sum(lam) + sum(mu) + 3
        for nu in klrcalc.partitions_up_to(top, max_length=n):
            if nu.size():
                buch, contra = lists.get(nu, ([], []))
                lists[nu] = (buch + [None], contra)
        return lists

    monkeypatch.setattr(lr, "witness_lists", flipped)
    code, out, _ = run(capsys, "verify", "--max-size", "1", "--n", "1",
                       "--jobs", "1")
    assert code == 2
    assert "SUMMARY: fail" in out
    assert "minimal counterexample ((), (), 1)" in out


def test_verify_workers_run_a_replaced_check(monkeypatch):
    # the pool is sent the check's name, so a check replaced by a lambda
    # (not picklable) still runs, in the workers as well as in-process
    real = verify.check_rules
    monkeypatch.setattr(verify, "check_rules", lambda lam, mu, n: (
        "boom" if (lam, mu) == ((1,), (1,)) else real(lam, mu, n)))
    bijections, rules = verify.run_verify(1, 2, jobs=2)
    assert bijections.ok and rules.checked == 4
    assert rules.failures == [(((1,), (1,), 2), "boom")]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's worker count
    and maps in this process, so no process starts."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool `verify` makes from here on."""
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(made, max_workers))
    return made


def test_verify_pool_has_at_most_one_worker_per_chunk(pools):
    # 7 bijection and 16 rule instances, 4 to a chunk: 2 and 4 workers
    bijections, rules = verify.run_verify(2, 2, jobs=64)
    assert pools == [2, 4]
    assert (bijections.checked, rules.checked) == (7, 16)
    assert bijections.ok and rules.ok


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_refuses_jobs_below_one(capsys, pools, jobs):
    code, out, err = run(capsys, "verify", "--max-size", "1", "--n", "1", "--jobs", jobs)
    assert (code, out, err, pools) == (1, "", f"error: --jobs must be >= 1, got {jobs}\n", [])


def test_verify_shrinks_through_each_instance_once(monkeypatch, capsys):
    # a check that fails everywhere: all 49 failures shrink to ((), (), 3)
    # and print as before, but no instance is checked twice
    calls = Counter()

    def failing(lam, mu, n):
        calls[(lam, mu, n)] += 1
        return "boom"

    monkeypatch.setattr(verify, "check_rules", failing)
    code, out, _ = run(capsys, "verify", "--max-size", "3", "--n", "3", "--jobs", "1")
    assert code == 2
    assert "rule-agreement: 49 instances, 49 FAILED" in out
    assert out.count("  minimal counterexample ((), (), 3): boom\n") == 49
    assert len(calls) == 49 and max(calls.values()) == 1


def test_word_malformed_json_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "word", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not valid JSON" in err
    assert len(err.strip().splitlines()) == 1


def test_word_missing_file_exit_code(capsys, tmp_path):
    code, out, err = run(capsys, "word", "--input", str(tmp_path / "absent.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read ")
    assert len(err.strip().splitlines()) == 1


def test_coeff_max_cap_guard_reads_the_oracle_cap(capsys, monkeypatch):
    # the worked example's oracle cap is max(|nu|, |lam| + |mu|) = 13
    query = ["coeff", "--lambda", "3,2,1", "--mu", "3,1", "--nu", "4,4,3,2"]
    monkeypatch.setenv("KLR_MAX_CAP", "12")
    assert run(capsys, *query, "--rule", "all") == (
        1, "", "error: cap 13 exceeds KLR_MAX_CAP=12\n")
    assert run(capsys, *query, "--rule", "buch") == (0, "2\n", "")
    monkeypatch.setenv("KLR_MAX_CAP", "13")
    assert run(capsys, *query, "--rule", "all") == (0, "buch=2 contra=2 oracle=2 AGREE\n", "")


def test_bad_max_cap_env_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("KLR_MAX_CAP", "abc")
    code, out, err = run(capsys, "coeff", "--lambda", "1", "--mu", "1",
                         "--nu", "2", "--rule", "all")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "KLR_MAX_CAP" in err
    assert len(err.strip().splitlines()) == 1


_BAD_FILLINGS = [
    {"outer": [2], "inner": [], "rows": [[[1], ["x"]]]},
    {"outer": [2], "inner": [], "rows": [[[1]]]},
    [[[1]]],
    {"rows": [[[1]]]},
    {"outer": [1], "rows": [[[1, 1]]]},
]
_BAD_PATTERNS = [
    {"rows": [[2], [2, 1, 1]], "marks": []},
    {"rows": [[2], [2, "a"]], "marks": []},
    [[2], [2, 1]],
    {"rows": [[2], [2, 1]], "marks": [[2]]},
    {"rows": [[2], [2, 1]], "marks": [[2, 1], [2, 1]]},
]


@pytest.mark.parametrize("argv, obj", [
    *((["word"], bad) for bad in _BAD_FILLINGS),
    *((["bijection", "--direction", "upsilon-inv", "--n", "2"], bad)
      for bad in _BAD_FILLINGS),
    *((["bijection", "--direction", "upsilon"], bad) for bad in _BAD_PATTERNS),
])
def test_malformed_filling_or_pattern_exit_code(capsys, tmp_path, argv, obj):
    # well-formed JSON that is not a filling or a marked pattern is a parse
    # problem: exit 1 and one error line, never a traceback or exit 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("max_size, n", [(-1, 2), (2, 0), (0, -1)])
def test_verify_rejects_bounds_that_check_nothing(capsys, max_size, n):
    code, out, err = run(capsys, "verify", "--max-size", str(max_size),
                         "--n", str(n), "--jobs", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_verify_refuses_n_above_the_largest_entry(capsys):
    # refused before any work: no filling holds an entry above MAX_ENTRY
    top = klrcalc.tableaux.MAX_ENTRY
    code, out, err = run(capsys, "verify", "--max-size", "0", "--n", str(top + 1),
                         "--jobs", "1")
    assert (code, out, err) == (1, "", f"error: --n must be <= {top}, got {top + 1}\n")


def test_verify_sweeps_are_never_empty():
    for max_size in range(3):
        for n in range(1, 4):
            results = verify.run_verify(max_size, n, jobs=1)
            assert [sweep.checked > 0 for sweep in results] == [True, True]


_FUZZ_INTS = ["-2", "-1", "0", "1", "2", "3", "x", ""]
_FUZZ_PARTS = ["", "1", "2", "1,1", "2,1", "3,1", "2,2", "0", "2,0", "1,2", "-1",
               "a", "3,,1"]
_FUZZ_WEIGHTS = ["", "1", "0,1", "1,1,1", "2,1", "-1", "x", "1,0,2"]
_FUZZ_SHAPES = ["1", "2,1", "2,2/1", "3,1/1", "rotated 2,1", "rotated ", "rotated 1,2",
                "2/3", "1/1", "", "x", "2,1/-1", "rotated x"]
_FUZZ_INPUTS = [
    {"outer": [2, 1], "inner": [], "rows": [[[1], [1, 2]], [[2]]]},
    {"rotated_of": [2, 1], "rows": [[[2]], [[1], [1, 2]]]},
    {"outer": [2, 1], "inner": [1], "rows": [[[1]], [[2]]]},
    {"outer": [2], "inner": [], "rows": [[[2], [1]]]},
    {"rows": [[2], [2, 1]], "marks": [[2, 1]]},
    {"rows": [[1], [2, 0]], "marks": []},
    {"rows": [[3], [2, 1]], "marks": []},
    {"rows": [[2], [2, 1]], "marks": [[2, 2]]},
    {"rows": [[0], [0, -1]], "marks": [[2, 1]]},
    [], None, {"rows": 3}, {"rows": [[[0]]], "outer": [1]}, "{", "",
]


def _draw_argv(rng, tmp_path) -> list:
    """argv for a random command with small, zero, negative and malformed
    values; a required flag is sometimes left out, and an input file is
    sometimes missing or not JSON."""
    pick = rng.choice
    command = pick(["coeff", "enumerate", "expand", "word", "bijection", "verify"])
    argv = [command]

    def add(flag, values, required=False):
        if rng.random() < (0.95 if required else 0.75):
            argv.extend([flag, pick(values)])

    def input_file():
        path = tmp_path / f"in{len(list(tmp_path.iterdir()))}.json"
        obj = pick(_FUZZ_INPUTS)
        if rng.random() < 0.9:
            path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return ["--input", str(path)]

    if command == "coeff":
        for flag in ("--lambda", "--mu", "--nu"):
            add(flag, _FUZZ_PARTS, required=True)
        add("--n", _FUZZ_INTS)
        add("--rule", ["buch", "contra", "oracle", "all", "bogus"])
    elif command == "enumerate":
        add("--shape", _FUZZ_SHAPES, required=True)
        add("--n", _FUZZ_INTS, required=True)
        add("--weight", _FUZZ_WEIGHTS)
        add("--dominant", _FUZZ_PARTS)
        if rng.random() < 0.3:
            argv.append(pick(["--singleton", "--set-valued"]))
    elif command == "expand":
        add("--lambda", _FUZZ_PARTS, required=True)
        add("--mu", _FUZZ_PARTS, required=True)
        add("--n", _FUZZ_INTS, required=True)
        add("--cap", _FUZZ_INTS + ["5", "7"])
        add("--basis", ["g", "s", "z"])
    elif command == "word":
        argv += input_file()
        add("--kind", ["row", "column", "diag"])
        add("--dominant", _FUZZ_PARTS)
    elif command == "bijection":
        add("--direction", ["gamma", "gamma-inv", "upsilon", "upsilon-inv",
                            "omega", "omega-inv", "beta"], required=True)
        argv += input_file()
        for flag in ("--lambda", "--mu", "--nu"):
            add(flag, _FUZZ_PARTS)
        add("--n", _FUZZ_INTS)
    else:
        add("--max-size", ["-1", "0", "1", "2", "x"], required=True)
        add("--n", ["-1", "0", "1", "2", "x"], required=True)
        argv += ["--jobs", "1"]
        add("--seed", _FUZZ_INTS)
    return argv


def test_random_argv_exit_codes_without_traceback(capsys, tmp_path):
    # seeded, so a failure names an argv that reproduces it
    rng = random.Random(5)
    failures = []
    for _ in range(1500):
        argv = _draw_argv(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is a traceback
            failures.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            failures.append((argv, f"exit {code}: {err[-200:]}"))
    assert failures == []
