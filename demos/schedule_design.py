"""Designing an outer check schedule and verifying what actually matters.

Builds a (3,3)-biregular 9x9 schedule with girth 6, audits its degrees, then
verifies sensitivity. Girth > 2*d_tilde together with column weight >= s_req
is a proof of sensitivity, and ``check_sensitivity`` uses it before it
enumerates. The cautionary example sits exactly at girth 2*d_tilde, one short
of what the proof needs, and enumeration finds a pattern that no check sees.
"""
from msdistill.gf2 import BinMatrix
from msdistill.outer_codes import OuterCode, build_biregular, check_sensitivity, girth


def main() -> None:
    code = build_biregular(9, 3, 3, girth_target=6, seed=7)
    print("constructed schedule (one row per check):")
    print(code.matrix.to_text())
    print(f"\ndegree audit: {code.degree_audit()}  "
          f"edge identity: {code.num_checks * 3} = {code.num_bits * 3}")
    print(f"girth: {girth(code)}")

    ok, witness = check_sensitivity(code, 2, 2)
    print(f"(2,2)-sensitivity: {ok}")

    # Girth 2*d_tilde is not enough: a (4,2)-biregular graph at girth 8 can
    # hide a weight-4 pattern along a single 8-cycle. Take the incidence of the
    # complete bipartite graph on 4+4 vertices: 8 checks (the vertices) over
    # 16 states (the edges), Tanner girth exactly 8.
    rows = []
    for left in range(4):
        rows.append([1 if bit // 4 == left else 0 for bit in range(16)])
    for right in range(4):
        rows.append([1 if bit % 4 == right else 0 for bit in range(16)])
    risky = OuterCode(BinMatrix.from_rows(rows), 4, 2)
    ok, witness = check_sensitivity(risky, 4, 2)
    print(f"\n(4,2)-biregular schedule at girth {girth(risky)}: sensitivity "
          f"(weight<=4, >=2 checks) -> {ok}")
    if witness is not None:
        print(f"  counterexample: pattern {witness.pattern_bits:#x} of weight "
              f"{witness.weight} touches only {witness.violated_checks} check(s)")
        print("  moral: girth 8 = 2*d_tilde is one short of a proof; girth > 2*d_tilde "
              "with column weight >= s_req proves sensitivity, anything less is enumerated.")


if __name__ == "__main__":
    main()
