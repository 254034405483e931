"""`defdom e2sat`: decide a two-level formula by brute force."""

from defdom.cli import _emit, _log


def add_arguments(p) -> None:
    p.add_argument("formula")
    p.add_argument("--emit-valuation", metavar="FILE")
    p.set_defaults(func=run)


def run(args) -> tuple:
    from defdom.formulas import solve_e2sat
    from defdom.io import read_formula, write_valuation
    formula = read_formula(args.formula)
    result = solve_e2sat(formula)
    if result.verdict:
        bits = "".join("1" if b else "0" for b in result.winning_nu)
        _log(f"YES: assignment {bits} defeats every universal response")
        return "yes", bits or "-", _emit(args.emit_valuation, write_valuation,
                                         result.winning_nu)
    _log("NO: every existential assignment admits a satisfying response")
    for nu, mu in sorted(result.refutations.items()):
        nu_bits = "".join("1" if b else "0" for b in nu) or "(empty)"
        mu_bits = "".join("1" if b else "0" for b in mu) or "(empty)"
        _log(f"  nu={nu_bits} is beaten by mu={mu_bits}")
    return ("no",)
