"""Exhaustive self-checks: bijection sweeps, rule agreement, shrinking.

Each sweep is a list of small instances checked independently, so the
work can fan out over processes; results are collected in instance
order and are identical for any worker count.  On failure the instance
is shrunk (drop the largest part, or decrement one part) to report a
minimal counterexample.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import grothendieck, gtpatterns, lr, tableaux
from .errors import InputError
from .shapes import Partition, partitions_up_to, rotate, skew


@dataclass
class SweepResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)  # (instance, detail)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_bijections(lam, n: int) -> str:
    """Marked patterns over lam biject onto both filling families.

    Returns an empty string on success, else a description of the first
    problem found.
    """
    lam = Partition(lam)
    if len(lam) > n:
        return ""
    patterns = list(gtpatterns.enumerate_gt(lam, n))
    marked = [m for x in patterns for m in gtpatterns.marked_patterns(x)]

    straight_images = [gtpatterns.upsilon(m) for m in marked]
    straight_set = set(straight_images)
    if len(straight_set) != len(straight_images):
        return f"upsilon not injective on {tuple(lam)}, n={n}"
    universe = set(tableaux.enumerate_svt(skew(lam, ()), n))
    if straight_set != universe:
        return (f"upsilon image has {len(straight_set)} fillings, "
                f"universe has {len(universe)} for {tuple(lam)}, n={n}")
    for m, image in zip(marked, straight_images):
        if gtpatterns.upsilon_inverse(image, n) != m:
            return f"upsilon round trip failed on {m!r}"
        if bool(m.marks) == (tableaux.total_entries(image) == image.num_cells()):
            return f"mark/singleton restriction failed on {m!r}"

    rotated_images = [gtpatterns.omega(m) for m in marked]
    rotated_set = set(rotated_images)
    if len(rotated_set) != len(rotated_images):
        return f"omega not injective on {tuple(lam)}, n={n}"
    universe = set(tableaux.enumerate_svt(rotate(lam), n))
    if rotated_set != universe:
        return (f"omega image has {len(rotated_set)} fillings, "
                f"universe has {len(universe)} for {tuple(lam)}, n={n}")
    for m, straight, image in zip(marked, straight_images, rotated_images):
        if gtpatterns.omega_inverse(image, n) != m:
            return f"omega round trip failed on {m!r}"
        # weight_reversal_check on the images already built
        if tableaux.weight(image, n) != tableaux.weight(straight, n)[::-1]:
            return f"weight reversal failed on {m!r}"

    total = sum(2 ** len(gtpatterns.markable_positions(x)) for x in patterns)
    if total != len(universe):
        return f"count identity {total} != {len(universe)} for {tuple(lam)}, n={n}"
    return ""


def check_rules(lam, mu, n: int, extra_degrees: int = 3) -> str:
    """All three coefficient routes agree for every nu up to the cap,
    zeros included, and the witness bijection round trips."""
    lam = Partition(lam)
    mu = Partition(mu)
    cap = lam.size() + mu.size() + extra_degrees
    product = grothendieck.multiply(
        grothendieck.grothendieck_poly(lam, (), n, cap),
        grothendieck.grothendieck_poly(mu, (), n, cap), cap)
    expansion = grothendieck.expand_in_g_basis(product, cap)

    for degree in range(cap + 1):
        for nu in grothendieck._partitions(degree, n):
            query = lr.CoefficientQuery(lam, mu, nu, n)
            witnesses = list(lr.buch_tableaux(query))
            contras = list(lr.contra_tableaux(query))
            buch = len(witnesses)
            contra = len(contras)
            raw = expansion.coefficient(nu)
            parity = (nu.size() - lam.size() - mu.size()) % 2
            oracle = -raw if parity else raw
            instance = (tuple(lam), tuple(mu), tuple(nu))
            if raw and (raw < 0) != bool(parity):
                return f"sign law broken at {instance}: raw={raw}"
            if not (buch == contra == oracle):
                return (f"rules disagree at {instance}: "
                        f"buch={buch} contra={contra} oracle={oracle}")
            images = [lr.gamma(t, query).contratableau for t in witnesses]
            if len(set(images)) != len(images):
                return f"gamma not injective at {instance}"
            if set(images) != set(contras):
                return f"gamma not onto at {instance}"
            for t, s in zip(witnesses, images):
                if lr.gamma_inverse(s, query).tableau != t:
                    return f"gamma round trip failed at {instance}"
    return ""


def _bijection_task(args):
    lam, n = args
    return check_bijections(lam, n)


def _rules_task(args):
    lam, mu, n = args
    return check_rules(lam, mu, n)


def _shrink_partitions(parts: tuple):
    """Smaller partitions to try: drop the largest part, decrement one."""
    out = []
    if parts:
        out.append(parts[1:])
        for idx in range(len(parts)):
            dec = sorted((p - 1 if k == idx else p for k, p in enumerate(parts)),
                         reverse=True)
            out.append(tuple(p for p in dec if p > 0))
    seen = set()
    return [p for p in out if not (p in seen or seen.add(p))]


def shrink_instance(instance: tuple, still_fails) -> tuple:
    """Greedy minimization: move to any smaller failing neighbour until stuck.

    `instance` is a tuple of partition tuples; neighbours vary one slot
    at a time.
    """
    current = instance
    progress = True
    while progress:
        progress = False
        for slot in range(len(current)):
            for smaller in _shrink_partitions(current[slot]):
                candidate = current[:slot] + (smaller,) + current[slot + 1:]
                if still_fails(candidate):
                    current = candidate
                    progress = True
                    break
            if progress:
                break
    return current


def _run_sweep(name, instances, task, jobs) -> SweepResult:
    result = SweepResult(name)
    if jobs is not None and jobs > 1 and len(instances) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            details = list(pool.map(task, instances, chunksize=4))
    else:
        details = [task(args) for args in instances]
    for args, detail in zip(instances, details):
        result.checked += 1
        if detail:
            result.failures.append((args, detail))
    return result


def run_verify(max_size: int, n: int, seed=None, jobs=None) -> list:
    """Run every sweep within the bounds; returns SweepResult objects.

    `seed` only shuffles the instance order (the instance set is always
    exhaustive), `jobs` fans instances out over processes.  Bounds that
    leave a sweep with no instance raise InputError, so a run that
    checks nothing never reports a pass.
    """
    if max_size < 0 or n < 1:
        raise InputError(f"verify needs --max-size >= 0 and --n >= 1, "
                         f"got --max-size {max_size} --n {n}")
    bijection_instances = [(tuple(lam), m)
                           for m in range(1, n + 1)
                           for lam in partitions_up_to(max_size, max_length=m)]
    rule_instances = [(tuple(lam), tuple(mu), n)
                      for lam in partitions_up_to(max_size, max_length=n)
                      for mu in partitions_up_to(max_size, max_length=n)]
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(bijection_instances)
        rng.shuffle(rule_instances)

    results = [
        _run_sweep("bijections", bijection_instances, _bijection_task, jobs),
        _run_sweep("rule-agreement", rule_instances, _rules_task, jobs),
    ]

    # an instance is its partitions followed by n; shrinking keeps n
    for sweep, check in zip(results, (check_bijections, check_rules)):
        shrunk = []
        for (*parts, m), detail in sweep.failures:
            minimal = shrink_instance(tuple(parts), lambda inst: bool(check(*inst, m)))
            shrunk.append((minimal + (m,), check(*minimal, m) or detail))
        sweep.failures = shrunk
    return results
