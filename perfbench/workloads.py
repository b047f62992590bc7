"""Seeded inputs, operations and correctness gates of the four workloads.

Inputs are drawn with the standard library only, so what a workload asks
does not depend on the code under test.  An op is called with the
imported package and one input, and returns ``(ok, record)``: ``ok`` is
the op's correctness gate, ``record`` a JSON-able summary of its output
that goes into the session's output digest.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))


def partitions(total: int, max_parts: int, max_part: int = None) -> list:
    """Partitions of `total` with at most `max_parts` parts, largest first."""
    if max_part is None:
        max_part = total
    if total == 0:
        return [()]
    if max_parts <= 0:
        return []
    return [(first,) + rest
            for first in range(min(total, max_part), 0, -1)
            for rest in partitions(total - first, max_parts - 1, first)]


def partitions_up_to(max_size: int, max_parts: int) -> list:
    return [p for total in range(max_size + 1) for p in partitions(total, max_parts)]


def _contains(big: tuple, small: tuple) -> bool:
    return len(small) <= len(big) and all(b >= s for b, s in zip(big, small))


def _union(a: tuple, b: tuple) -> tuple:
    length = max(len(a), len(b))
    return tuple(max(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                 for i in range(length))


def _fmt(parts: tuple) -> str:
    return ",".join(str(p) for p in parts)


def _draw_nu(rng, lam, mu, extra, max_parts):
    """nu of degree |lam|+|mu|+extra with at most max_parts parts, containing both."""
    floor = _union(lam, mu)
    nus = [nu for nu in partitions(sum(lam) + sum(mu) + extra, max_parts)
           if _contains(nu, floor)]
    return rng.choice(nus)


def seeded_rng(workload: str, seed: int, session: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{session}")


# --- coeff-stream -------------------------------------------------------

COEFF_PARAMS = {"max_size": 4, "max_parts": 4, "extra_degrees": [0, 1, 2]}
_AGREE = re.compile(r"buch=(\d+) contra=(\d+) oracle=(\d+) AGREE")


def coeff_inputs(seed: int, session: int) -> list:
    """One query per (lam, mu, extra degree, length of nu), in seeded order.

    The oracle's work depends on lam, mu, the degree cap and the number
    of variables (the length of nu), not on nu itself, and a cold basis
    build costs as much as hundreds of warm queries.  A free draw of
    queries would make a session's cost depend on its seed more than on
    the code, so a session asks every such class once.  The seed and the
    session number draw nu within each class and set the order, and with
    it which query pays each cold build.
    """
    p = COEFF_PARAMS
    rng = seeded_rng("coeff-stream", seed, session)
    factors = [lam for lam in partitions_up_to(p["max_size"], p["max_parts"]) if lam]
    classes = []
    for lam in factors:
        for mu in factors:
            floor = _union(lam, mu)
            for extra in p["extra_degrees"]:
                by_length = {}
                for nu in partitions(sum(lam) + sum(mu) + extra, p["max_parts"]):
                    if _contains(nu, floor):
                        by_length.setdefault(len(nu), []).append(nu)
                classes += [(lam, mu, nus) for _, nus in sorted(by_length.items())]
    rng.shuffle(classes)
    return [(lam, mu, rng.choice(nus)) for lam, mu, nus in classes]


def coeff_op(klr, query):
    lam, mu, nu = query
    out = io.StringIO()
    with redirect_stdout(out):
        code = klr.cli.main(["coeff", "--lambda", _fmt(lam), "--mu", _fmt(mu),
                             "--nu", _fmt(nu), "--rule", "all"])
    text = out.getvalue().strip()
    match = _AGREE.fullmatch(text)
    ok = code == 0 and match is not None and match[1] == match[2] == match[3]
    return ok, text


# --- witness-certs ------------------------------------------------------

WITNESS_PARAMS = {"max_size": 8, "n": 6, "extra_degrees": [0, 1, 2, 3, 4],
                  "queries": 600}


def witness_inputs(seed: int, session: int) -> list:
    """A fixed set of queries drawn once from the distribution, in seeded order.

    One query can cost a thousand times another, so the sum over a free
    draw of a thousand queries still varies by about a tenth from seed
    to seed (measured on 3000 draws).  This path has no caches, so the
    order does not change any query's cost; every session asks the same
    set, shuffled by the seed and the session number.
    """
    p = WITNESS_PARAMS
    rng = random.Random("witness-certs:queries")
    factors = partitions_up_to(p["max_size"], p["n"])
    queries = []
    for _ in range(p["queries"]):
        lam, mu = rng.choice(factors), rng.choice(factors)
        nu = _draw_nu(rng, lam, mu, rng.choice(p["extra_degrees"]), p["n"])
        queries.append((lam, mu, nu, p["n"]))
    seeded_rng("witness-certs", seed, session).shuffle(queries)
    return queries


def witness_op(klr, query):
    """List the buch witnesses, certify each through gamma, check the images."""
    lam, mu, nu, n = query
    lr = klr.lr
    q = lr.CoefficientQuery(lam, mu, nu, n)
    witnesses = list(lr.buch_tableaux(q))
    traces = [lr.gamma(t, q) for t in witnesses]
    certs = [klr.jsonio.trace_obj(trace) for trace in traces]
    images = [trace.contratableau for trace in traces]
    contra = set(lr.contra_tableaux(q))
    ok = (len(witnesses) == len(contra) == len(set(images))
          and set(images) == contra
          and all(lr.gamma_inverse(s, q).tableau == t
                  for t, s in zip(witnesses, images)))
    return ok, certs


def _plain(filling) -> dict:
    """A filling as plain data, read through its public attributes."""
    return {"outer": list(filling.shape.outer), "inner": list(filling.shape.inner),
            "rows": [[sorted(vals) for vals in row] for row in filling.rows()]}


def worked_example_gate(klr) -> str:
    """The paper's final example: two witnesses, t1 -> s1 and t2 -> s2.

    The expected fillings are hand-written in worked_example.json, so the
    gate compares against frozen data, not against other code.
    """
    with open(os.path.join(HERE, "worked_example.json"), encoding="utf-8") as fh:
        ex = json.load(fh)
    q = klr.lr.CoefficientQuery(ex["lambda"], ex["mu"], ex["nu"])
    found = {json.dumps(_plain(t), sort_keys=True): t for t in klr.lr.buch_tableaux(q)}
    key = {name: json.dumps(ex[name], sort_keys=True) for name in ("t1", "t2")}
    if sorted(found) != sorted(key.values()):
        return f"final example: buch witnesses {sorted(found)} are not t1, t2"
    for t, s in (("t1", "s1"), ("t2", "s2")):
        image = _plain(klr.lr.gamma(found[key[t]], q).contratableau)
        if image != ex[s]:
            return f"final example: gamma({t}) = {image}, expected {s} = {ex[s]}"
    return ""


# --- bijection-sweep ----------------------------------------------------

BIJECTION_PARAMS = {"max_size": 6, "max_n": 4}


def bijection_inputs(seed: int, session: int) -> list:
    """Every (lam, n) with |lam| <= max_size and l(lam) <= n <= max_n.

    The set is exhaustive and the path has no caches, so the order is
    canonical and the seed changes nothing here.
    """
    p = BIJECTION_PARAMS
    return [(lam, n) for n in range(1, p["max_n"] + 1)
            for lam in partitions_up_to(p["max_size"], n)]


def bijection_op(klr, instance):
    lam, n = instance
    detail = klr.verify.check_bijections(lam, n)
    return detail == "", detail


# --- verify-sweep -------------------------------------------------------

VERIFY_PARAMS = {"max_size": 4, "n": 4, "jobs": 1}


def verify_inputs(seed: int, session: int) -> list:
    """One CLI invocation; its --seed, drawn from the seed and the session
    number, shuffles the order of the instances."""
    return [seeded_rng("verify-sweep", seed, session).randrange(2 ** 31)]


def verify_expected_counts() -> dict:
    """Instances per sweep, from partition counts computed here."""
    p = VERIFY_PARAMS
    bijections = sum(len(partitions_up_to(p["max_size"], m))
                     for m in range(1, p["n"] + 1))
    factors = len(partitions_up_to(p["max_size"], p["n"]))
    return {"bijections": bijections, "rule-agreement": factors * factors}


def verify_op(klr, cli_seed):
    p = VERIFY_PARAMS
    out = io.StringIO()
    with redirect_stdout(out):
        code = klr.cli.main(["verify", "--max-size", str(p["max_size"]),
                             "--n", str(p["n"]), "--jobs", str(p["jobs"]),
                             "--seed", str(cli_seed)])
    lines = out.getvalue().strip().splitlines()
    expected = [f"{name}: {count} instances, ok"
                for name, count in verify_expected_counts().items()]
    ok = code == 0 and lines == expected + ["SUMMARY: pass"]
    return ok, lines


# name -> (input generator, op)
WORKLOADS = {
    "coeff-stream": (coeff_inputs, coeff_op),
    "witness-certs": (witness_inputs, witness_op),
    "bijection-sweep": (bijection_inputs, bijection_op),
    "verify-sweep": (verify_inputs, verify_op),
}
