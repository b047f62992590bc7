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
from functools import partial

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
    problem found.  Checked in order: upsilon (onto shape lam), then omega
    (onto rotated lam), each injective, onto the fillings with entries at
    most n, and inverted by its inverse; then per marked pattern the
    mark/singleton restriction and the weight reversal; then the count
    identity, sum of 2^|markable| over the patterns = number of fillings.
    """
    lam = Partition(lam)
    if len(lam) > n:
        return ""
    patterns = list(gtpatterns.enumerate_gt(lam, n))
    marked = [m for x in patterns for m in gtpatterns.marked_patterns(x)]

    # looked up per call, so a replaced module attribute is the one checked
    images = []
    for name, forward, inverse, shape in (
            ("upsilon", gtpatterns.upsilon, gtpatterns.upsilon_inverse, skew(lam, ())),
            ("omega", gtpatterns.omega, gtpatterns.omega_inverse, rotate(lam))):
        side = [forward(m) for m in marked]
        side_set = set(side)
        if len(side_set) != len(side):
            return f"{name} not injective on {tuple(lam)}, n={n}"
        universe = set(tableaux.enumerate_svt(shape, n))
        if side_set != universe:
            return (f"{name} image has {len(side_set)} fillings, "
                    f"universe has {len(universe)} for {tuple(lam)}, n={n}")
        for m, image in zip(marked, side):
            if inverse(image, n) != m:
                return f"{name} round trip failed on {m!r}"
        images.append(side)

    for m, straight, rotated in zip(marked, *images):
        if bool(m.marks) == (tableaux.total_entries(straight) == straight.num_cells()):
            return f"mark/singleton restriction failed on {m!r}"
        # weight_reversal_check on the images already built
        if tableaux.weight(rotated, n) != tableaux.weight(straight, n)[::-1]:
            return f"weight reversal failed on {m!r}"

    total = sum(2 ** len(gtpatterns.markable_positions(x)) for x in patterns)
    if total != len(universe):
        return f"count identity {total} != {len(universe)} for {tuple(lam)}, n={n}"
    return ""


def check_rules(lam, mu, n: int) -> str:
    """All three coefficient routes agree for every nu up to the cap, and
    the witness bijection round trips.

    The cap is |lam| + |mu| + 3, symmetric in lam and mu, so the product
    comes from the shared `grothendieck.expand_product` cache.  The
    witnesses come from one search per side for the whole instance
    (`lr.witness_lists`), not one per nu.  The nu walked are those up to
    the cap that the expansion or a witness names, by degree and then
    largest first: any other nu has no witness and a zero coefficient,
    so all three routes give 0 there and it cannot fail.

    Per witness t with image s, `lr.gamma(t)` checks that t is a
    straight-side witness and s a rotated-side one; the images must be
    distinct and exactly the rotated-side witnesses; and the inverse
    core `lr._gamma_inverse(s)` must give back t' == t.  That covers the
    checks the public `gamma_inverse` would add: its input check is
    gamma's image check, and once t' == t its output check is gamma's
    input check and its round trip is gamma's own image of t."""
    lam = Partition(lam)
    mu = Partition(mu)
    cap = lam.size() + mu.size() + 3
    expansion = grothendieck.expand_product(lam, mu, n, cap)
    lists = lr.witness_lists(lam, mu, n)
    # by degree, then largest first, the order `partitions` yields
    walk = sorted((nu for nu in expansion.coeffs.keys() | lists.keys() if nu.size() <= cap),
                  key=lambda nu: (nu.size(), [-p for p in nu]))

    for nu in walk:
        query = lr.CoefficientQuery(lam, mu, nu, n)
        witnesses, contras = lists.get(nu, ((), ()))
        buch = len(witnesses)
        contra = len(contras)
        raw = expansion.coefficient(nu)
        oracle = query.sign * raw
        instance = (tuple(lam), tuple(mu), tuple(nu))
        if oracle < 0:
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
            if lr._gamma_inverse(s, query).tableau != t:
                return f"gamma round trip failed at {instance}"
    return ""


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
    while True:
        candidates = (current[:slot] + (smaller,) + current[slot + 1:]
                      for slot in range(len(current))
                      for smaller in _shrink_partitions(current[slot]))
        step = next((c for c in candidates if still_fails(c)), None)
        if step is None:
            return current
        current = step


def _run_check(check_name: str, *args) -> str:
    """Run the check of this module named `check_name`, looked up at call
    time, so a replaced module attribute is the one that runs."""
    return globals()[check_name](*args)


def _run_sweep(name, instances, check_name, jobs) -> SweepResult:
    """Run the check named `check_name` on every instance, shrinking each
    failure to a minimal one.

    An instance is its partitions followed by n; shrinking keeps n.
    Workers get the check's name, not the function, so a replaced check
    need not be picklable.  Shrinking reads one memo of details per
    sweep, so failures that shrink through the same instances check each
    of them once.
    """
    check = globals()[check_name]
    if jobs is not None and jobs > 1 and len(instances) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            details = list(pool.map(partial(_run_check, check_name),
                                    *zip(*instances), chunksize=4))
    else:
        details = [check(*args) for args in instances]
    memo = dict(zip(instances, details))

    def detail_of(instance):
        if instance not in memo:
            memo[instance] = check(*instance)
        return memo[instance]

    result = SweepResult(name, len(details))
    for (*parts, m), detail in zip(instances, details):
        if detail:
            minimal = shrink_instance(tuple(parts), lambda inst: bool(detail_of(inst + (m,))))
            result.failures.append((minimal + (m,), detail_of(minimal + (m,)) or detail))
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

    return [_run_sweep("bijections", bijection_instances, "check_bijections", jobs),
            _run_sweep("rule-agreement", rule_instances, "check_rules", jobs)]
