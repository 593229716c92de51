"""Build a level-dependent filter bank and verify its defining identities.

For each level n the interpolatory mask A determines a biorthogonal
filter bank (A, B, A~, B~) in closed form.  This demo builds the bank at
a few levels, checks biorthogonality and the vanishing-moment property
against the exponential space {1, e^{+lambda x}, e^{-lambda x}}, and
factors the masks through the level-dependent annihilation operators.

Run:  python demos/02_filter_bank.py
"""

from hermwave import (
    SpaceSpec,
    build_at,
    check_biorthogonality,
    check_two_level_identity,
    check_vanishing_moments,
    factorization_pair,
    make_annihilator,
)
from hermwave.signal import exponential, monomial


def main() -> None:
    lam = 2.0
    spec = SpaceSpec(0, lam)
    print(f"Filter banks for lambda = {lam} (frequency halves with each level)")

    for n in range(4):
        bank = build_at(spec, n)
        bio = check_biorthogonality(bank)
        moments = max(
            check_vanishing_moments(bank, f)
            for f in (monomial(0), exponential(lam), exponential(-lam))
        )
        print(f"\nlevel n = {n}")
        print(f"  biorthogonality residual      {bio:.2e}")
        print(f"  vanishing-moment residual     {moments:.2e}")

        ann_n, ann_n1 = make_annihilator(spec, n), make_annihilator(spec, n + 1)
        pair = factorization_pair(bank, ann_n, ann_n1)
        print(f"  mask factorization residual   {max(pair.residual_R, pair.residual_S):.2e}")
        print(f"  two-level symbol identity     {check_two_level_identity(ann_n, ann_n1):.2e}")

    print("\nForward tap of the analysis high-pass at level 0:")
    bank = build_at(spec, 0)
    for k, mat in sorted(bank.B_tilde.taps().items()):
        print(f"  z^{k}:")
        for row in mat:
            print("    " + "  ".join(f"{v:+.6f}" for v in row))


if __name__ == "__main__":
    main()
