#!/usr/bin/env bash
# Every output pin: exact CLI output, digests of exhaustive sweeps, refusals
# with their exit codes, and the benchmark's selfcheck digests.  Run it as
# `bash ci/pins.sh` from any directory.  It prints "pass <pin>" or "FAIL <pin>"
# and the failed pin's output, exits 1 if any pin failed, and writes only into
# one temporary directory (bytecode too), which it removes.
#
# No pipefail: `enumerate | head -1` exits nonzero by design.  Each pin runs as
# `(set -e; pin)` on a line of its own: in an `if` or `||` context bash would
# ignore `set -e` inside the pin.

[ $# = 0 ] || { echo "usage: bash ci/pins.sh" >&2; exit 2; }
cd "$(dirname "${BASH_SOURCE[0]}")/.." || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
export PYTHONPATH=src PYTHONPYCACHEPREFIX="$tmp/pycache"

# refused CODE PATTERN CMD...: CMD exits CODE, prints nothing on stdout
# and one line on stderr that matches the glob PATTERN
refused() {
  local want=$1 pattern=$2 code=0
  shift 2
  "$@" > "$tmp/out.txt" 2> "$tmp/err.txt" || code=$?
  test "$code" = "$want"
  test ! -s "$tmp/out.txt"
  test "$(wc -l < "$tmp/err.txt")" = 1
  [[ $(cat "$tmp/err.txt") == $pattern ]]
}

# pooled ARGS...: verify ARGS prints the same with one worker and with two
pooled() {
  python -m klrcalc verify "$@" --jobs 1 > "$tmp/serial.txt"
  python -m klrcalc verify "$@" --jobs 2 > "$tmp/pooled.txt"
  cmp "$tmp/serial.txt" "$tmp/pooled.txt"
}

cli_smoke() {
  out=$(python -m klrcalc coeff --lambda 3,2,1 --mu 3,1 --nu 4,4,3,2 --rule all)
  test "$out" = "buch=2 contra=2 oracle=2 AGREE"
  python -m klrcalc verify --max-size 3 --n 3 --jobs 1
}

pooled_verify() {
  pooled --max-size 3 --n 3
}

pooled_verify_size_4() {
  # each worker fills its own product cache, so hits differ; output may not
  pooled --max-size 4 --n 4 --seed 1
}

bijection_round_trips() {
  pattern='{"rows":[[2],[2,1]],"marks":[[2,1]]}'
  for pair in upsilon:upsilon-inv omega:omega-inv; do
    image=$(echo "$pattern" | python -m klrcalc bijection --direction "${pair%%:*}" \
      | python -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["output"]))')
    back=$(echo "$image" | python -m klrcalc bijection --direction "${pair##*:}" --n 2 \
      | python -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["output"], separators=(",", ":")))')
    test "$back" = "$pattern"
    # left out, --n is the larger of the top entry and the row count: 2 here
    test "$(echo "$image" | python -m klrcalc bijection --direction "${pair##*:}")" = \
      "$(echo "$image" | python -m klrcalc bijection --direction "${pair##*:}" --n 2)"
  done
  refused 1 'error: *' python -m klrcalc expand --lambda 2 --mu 1 --n 2 --cap 1
  # the worked example's oracle cap is max(|nu|, |lambda| + |mu|) = 13
  KLR_MAX_CAP=12 refused 1 'error: cap 13 exceeds KLR_MAX_CAP=12' \
    python -m klrcalc coeff --lambda 3,2,1 --mu 3,1 --nu 4,4,3,2 --rule all
  # a filling that is not semistandard has no preimage
  echo '{"outer":[2,1],"rows":[[[1,3],[2]],[[2]]]}' \
    | refused 3 'domain error: *' python -m klrcalc bijection --direction upsilon-inv --n 3
  # a 2 under the 1 of {1,2} recovers a mark where the pattern has no slack
  echo '{"outer":[1,1],"rows":[[[1,2]],[[2]]]}' \
    | refused 3 'domain error: recovered marks are not markable: positions not markable: \[(2, 1)]' \
      python -m klrcalc bijection --direction upsilon-inv --n 3
  # a pattern with a negative entry is not a pattern of partitions
  echo '{"rows":[[1],[1,-1]],"marks":[[2,1]]}' \
    | refused 3 'domain error: *' python -m klrcalc bijection --direction upsilon
}

inverse_outputs() {
  # upsilon-inv and omega-inv, with and without --n, on every filling of
  # straight and rotated shapes of <= 4 cells at n <= 3 and on one
  # single-entry perturbation of each: 4,160 outputs and error lines
  got=$(python - <<'PY' | sha256sum | cut -d' ' -f1
import contextlib, io, json, sys
from klrcalc import enumerate_svt, partitions_up_to, rotate, skew
from klrcalc.cli import main
from klrcalc.jsonio import filling_obj
k = 0
for lam in partitions_up_to(4):
    for n in range(len(lam), 4):
        for shape in (skew(lam), rotate(lam)):
            for f in enumerate_svt(shape, n):
                obj = filling_obj(f)
                # cell k mod cells gains or loses a value in 1..n+1
                bad = json.loads(json.dumps(obj))
                cells = [cell for row in bad["rows"] for cell in row]
                if cells:
                    cell = cells[k % len(cells)]
                    cell[:] = sorted(set(cell) ^ {k // len(cells) % (n + 1) + 1}) or [n + 1]
                k += 1
                for o in (obj, bad):
                    for direction in ("upsilon-inv", "omega-inv"):
                        for arg in ([], ["--n", str(n)]):
                            out = io.StringIO()
                            sys.stdin = io.StringIO(json.dumps(o))
                            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                                code = main(["bijection", "--direction", direction] + arg)
                            print(code, out.getvalue(), end="")
PY
  )
  test "$got" = 12dd6c69c368daf516efc6726836ae2d32ac8e63944d86b761fa348a5cfb96ce
}

every_filling_inverts() {
  # every assignment of non-empty subsets of {1,2,3} to the cells of the
  # straight shape (upsilon_inverse) and the rotated shape (omega_inverse)
  # of each lambda of size <= 4, at n = None and max(1, len) .. 3:
  # 69,350 marked patterns and refusals
  got=$(python - <<'PY' | sha256sum | cut -d' ' -f1
import itertools
from klrcalc import partitions_up_to, rotate, skew
from klrcalc.errors import KLRError
from klrcalc.gtpatterns import omega_inverse, upsilon_inverse
from klrcalc.tableaux import SetValuedFilling
subsets = [s for k in (1, 2, 3) for s in itertools.combinations((1, 2, 3), k)]
for lam in partitions_up_to(4):
    for shape, inverse in ((skew(lam), upsilon_inverse), (rotate(lam), omega_inverse)):
        cells = list(shape.cells())
        for sets in itertools.product(subsets, repeat=len(cells)):
            filling = SetValuedFilling(shape, dict(zip(cells, sets)))
            for n in (None, *range(max(1, len(lam)), 4)):
                try:
                    print(inverse(filling, n))
                except KLRError as exc:
                    print(f"{type(exc).__name__}: {exc}")
PY
  )
  test "$got" = 6b5b87df2b98abe17233bb6756255536c92133ad1aeddaea57d4d99c1c587e28
}

schur_and_closed_pipe() {
  out=$(python -m klrcalc expand --lambda 2,1 --mu 1 --n 3 --basis s \
    | python -c 'import json, sys; print(json.dumps(json.load(sys.stdin), separators=(",", ":")))')
  test "$out" = '[{"nu":[2,1,1],"C":1,"sign":1},{"nu":[2,2],"C":1,"sign":1},{"nu":[3,1],"C":1,"sign":1}]'
  err=$( { python -m klrcalc enumerate --shape 4,3,2 --n 4 | head -1 >/dev/null; } 2>&1 )
  test -z "$err"
}

large_n() {
  # the oracle reads a product in min(n, cap) variables and the s basis
  # in min(n, |lambda| + |mu|), so --n 1025 prints what a small --n does
  check() {
    timeout 20 python -m klrcalc "$@" --n 1025 > "$tmp/large.txt" 2> "$tmp/err.txt"
    test ! -s "$tmp/err.txt"
    python -m klrcalc "$@" --n 5 > "$tmp/small.txt"
    cmp "$tmp/small.txt" "$tmp/large.txt"
  }
  check coeff --lambda 1 --mu 1 --nu 2 --rule all
  test "$(cat "$tmp/large.txt")" = "buch=1 contra=1 oracle=1 AGREE"
  check expand --lambda 1 --mu 1 --basis g
  check expand --lambda 1 --mu 1 --basis s
}

oracle_expansion() {
  out=$(python -m klrcalc expand --lambda 2,1 --mu 2 --n 3 --cap 6 \
    | python -c 'import json, sys; print(json.dumps(json.load(sys.stdin), separators=(",", ":")))')
  test "$out" = '[{"nu":[2,2,1],"C":1,"sign":1},{"nu":[3,1,1],"C":1,"sign":1},{"nu":[3,2],"C":1,"sign":1},{"nu":[4,1],"C":1,"sign":1},{"nu":[3,2,1],"C":2,"sign":-1},{"nu":[4,1,1],"C":1,"sign":-1},{"nu":[4,2],"C":1,"sign":-1}]'
}

oracle_expansion_size_6() {
  # the largest pinned oracle case: five variables at the default cap 15
  got=$(python -m klrcalc expand --lambda 4,2 --mu 3,2,1 --n 5 | sha256sum | cut -d' ' -f1)
  test "$got" = a5d5d3a44b8d4642f06ffba8409e4f10e40026b1b1b8f25153c21af55704a521
}

skew_and_wide_polys() {
  # 220 skew polynomials of up to 5 cells at n = 5 and 6 past their
  # lowest degree, and an expansion in nine variables
  got=$(python - <<'PY' | sha256sum | cut -d' ' -f1
from klrcalc import contains, grothendieck_poly, partitions_up_to
for outer in partitions_up_to(5):
    for inner in partitions_up_to(outer.size()):
        if contains(inner, outer):
            cells = outer.size() - inner.size()
            for n in (5, 6):
                g = grothendieck_poly(outer, inner, n, cells + 3)
                print(outer.parts, inner.parts, n, sorted(g.terms.items()))
PY
  )
  test "$got" = 376fd86eba1b753dc387027a32cc569d2b8581d5635713b85e1b6c54dd3c9dd8
  got=$(python -m klrcalc expand --lambda 2,1 --mu 1 --n 9 | sha256sum | cut -d' ' -f1)
  test "$got" = 00f207eac2dd6d70b3515494fbbe7338c2e7624bfd1aaa5a1ed68355e0c5e15f
}

public_expansions() {
  # both public peels on every product of two shapes of size <= 3,
  # n = 0..4: 245 lines
  got=$(python - <<'PY' | sha256sum | cut -d' ' -f1
from klrcalc import (expand_in_g_basis, expand_in_schur_basis, grothendieck_poly,
                     multiply, partitions_up_to, schur_poly)
for n in range(5):
    for lam in partitions_up_to(3):
        for mu in partitions_up_to(3):
            cap = lam.size() + mu.size() + 2
            g = expand_in_g_basis(multiply(grothendieck_poly(lam, (), n, cap),
                                           grothendieck_poly(mu, (), n, cap), cap), cap)
            s = expand_in_schur_basis(multiply(schur_poly(lam, (), n), schur_poly(mu, (), n)))
            print(n, lam.parts, mu.parts, g.items(), s.items())
PY
  )
  test "$got" = 477b829c7865db3d5f8a2e139ccdf394e882e2340c29d2d2702fd75d347f2658
}

oracle_products() {
  # the oracle on every unordered pair of shapes of size <= 4, n = 0..4,
  # from the product's lowest degree to three past it: 1,560 lines
  got=$(python - <<'PY' | sha256sum | cut -d' ' -f1
from klrcalc import partitions_up_to
from klrcalc.grothendieck import expand_product
shapes = list(partitions_up_to(4))
for i, lam in enumerate(shapes):
    for mu in shapes[i:]:
        for n in range(5):
            for extra in range(4):
                cap = lam.size() + mu.size() + extra
                print(lam.parts, mu.parts, n, cap, expand_product(lam, mu, n, cap).items())
PY
  )
  test "$got" = 46c92eae7e771fc69554690e0e2608dc5490c744148957449fb4557f7626ba31
}

small_n_skew_polys() {
  # 800 polynomials where an outer shape's lower clip bites hardest:
  # n = 0, n below the outer length, and exhaustive caps
  got=$(python - <<'PY' | sha256sum | cut -d' ' -f1
from klrcalc import contains, grothendieck_poly, partitions_up_to
for outer in partitions_up_to(5):
    for inner in partitions_up_to(2):
        if contains(inner, outer):
            cells = outer.size() - inner.size()
            for n in range(5):
                for cap in sorted({cells, cells + 1, max(n, 1) * cells}):
                    g = grothendieck_poly(outer, inner, n, cap)
                    print(outer.parts, inner.parts, n, cap, sorted(g.terms.items()))
PY
  )
  test "$got" = 7a81c4a0e9225d7ba340619c41782f172324f9a0d8af8768b1fdea54faa7974f
}

pruned_witness_search() {
  last() { python -m klrcalc enumerate "$@" | tail -1; }
  test "$(last --shape "rotated 5,2,1" --n 5 --weight 4,4,1,2,1 --dominant 3,2,1)" = '{"count": 0}'
  test "$(last --shape "rotated 3,3,1,1" --n 6 --weight 2,2,2,3,1,1 --dominant 5,2,1)" = '{"count": 15}'
  test "$(last --shape "rotated 3,2,1" --n 4 --weight 1,3,3,2 --dominant 3,1)" = '{"count": 2}'
}

unweighted_witness_streams() {
  # the whole stream, not only its count: 21,681 and 91 fillings
  digest() { python -m klrcalc enumerate "$@" | sha256sum | cut -d' ' -f1; }
  test "$(digest --shape 4,3,2/2,1 --n 4)" = 757cc70706ec639aff21fda429e589071ebffab52acc3a86e4c4f7b322dc8273
  test "$(digest --shape "rotated 3,2,1" --n 4 --dominant 2,1)" = 7679647931f638edddfe16bef7db2c8ee563c61228361f76c0b1c0e847fe0bdd
}

gamma_certificates() {
  query="--lambda 3,2,1 --mu 3,1 --nu 4,4,3,2"
  for pair in gamma:t1:bcbe8ee70806d0191d5415af9277549f63096305cad083fa4857996f26d83f40 \
              gamma-inv:s1:7a57b5abd70ef46fc57a5abd4db804027f7ba5b1271733a73c126d95988868e4 \
              gamma:t2:e8620d46ae696c33f249f41e761897c1d78d7329a0e59c87302cb4d7b38a1c4f \
              gamma-inv:s2:31334a65693e1c623d65308ad50a9099ed2e820c0e739e86a6b978c9c1f408d4; do
    direction=${pair%%:*} rest=${pair#*:}
    name=${rest%%:*} want=${rest#*:}
    got=$(python -c "import json, sys; print(json.dumps(json.load(open('perfbench/worked_example.json'))[sys.argv[1]]))" "$name" \
      | python -m klrcalc bijection --direction "$direction" $query | sha256sum | cut -d' ' -f1)
    test "$got" = "$want"
  done
}

selfcheck() {
  # the digests cover every certificate and verify line the four
  # workloads print; they are the same on Python 3.10 and 3.11
  python perfbench/run.py --selfcheck | tee "$tmp/selfcheck.txt"
  for pair in coeff-stream:54ccf09fe8b390dd witness-certs:e6c88fba38aeddb9 \
              bijection-sweep:5667857fd2ce3c4f verify-sweep:8033f2febc993c45; do
    grep -q "^selfcheck ${pair%%:*}: ok (.*, outputs ${pair##*:})$" "$tmp/selfcheck.txt"
  done
}

failed=0
for pin in cli_smoke pooled_verify pooled_verify_size_4 bijection_round_trips \
           inverse_outputs every_filling_inverts schur_and_closed_pipe large_n \
           oracle_expansion oracle_expansion_size_6 skew_and_wide_polys \
           public_expansions oracle_products small_n_skew_polys \
           pruned_witness_search unweighted_witness_streams gamma_certificates \
           selfcheck; do
  (set -e; "$pin") > "$tmp/pin.log" 2>&1
  if [ $? = 0 ]; then
    echo "pass $pin"
  else
    echo "FAIL $pin"
    cat "$tmp/pin.log"
    failed=1
  fi
done
exit $failed
