"""Command-line front end: one executable covering partitions,
Eilenberg-Mac Lane degrees, module tools, Schur and elementary
functors, functor categories, and the GL_n(F_q) classification, plus a
batch runner over JSON manifests.  Module arguments live in one table,
``OPTIONS``; each run adds to its parser only those of the module its
argv names, and each handler imports only the modules it runs.

Exit codes come from exception types: 0 success, 1 usage/parse error,
3 ``CapExceeded`` (the job would exceed a size cap), 2 any other failed
precondition.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import reduce
from math import lcm

from .fields import CapExceeded, Field, QQ
from .matrices import Matrix


def parse_field(spec):
    spec = spec.strip()
    if spec in ("Q", "QQ"):
        return QQ
    if spec.startswith("F_"):
        return Field.of_order(int(spec[2:]))
    raise ValueError(f"bad field spec {spec!r}")


def parse_partition(spec):
    spec = spec.strip()
    if not spec or spec == "0":
        return ()
    return tuple(int(x) for x in spec.split(","))


def load_module(path):
    from . import modtools
    with open(path) as fh:
        obj = json.load(fh)
    gens = {nm: Matrix.from_json(mj) for nm, mj in obj["generators"].items()}
    labels = None
    if obj.get("labels"):
        labels = {nm: Matrix.from_json(mj)
                  for nm, mj in obj["labels"].items()}
    field = next(iter(gens.values())).field
    return modtools.AlgebraModule(field, gens, labels=labels,
                                  name=obj.get("name", ""))


def dump_module(mod):
    obj = {"generators": {nm: g.to_json()
                          for nm, g in mod.generators.items()}}
    if mod.labels:
        obj["labels"] = {nm: g.to_json() for nm, g in mod.labels.items()}
    if mod.name:
        obj["name"] = mod.name
    return obj


# -- named functors ------------------------------------------------------

def make_functor(name, ring, K, N):
    from . import functorcat, rings
    name = name.strip()
    if name == "const":
        return functorcat.constant_functor(ring, K, N)
    if name in ("lambda1", "proj"):
        homs = rings.ring_homs(ring, K)
        if not homs:
            raise ValueError(f"no ring homomorphism {ring.label()} -> "
                             f"{K.label()}")
        return functorcat.additive_functor(ring, K, N, homs[0])
    if name in ("p", "rep"):
        return functorcat.representable_functor(ring, K, N)
    if name == "gr1":
        return functorcat.grassmannian_functor(ring, K, N)
    if name == "tdelta":
        delta = functorcat.MonoidModule.from_character(
            ring, K, lambda a: K.one if ring.is_unit(a) else K.zero,
            name="delta")
        return functorcat.intermediate_extension_functor(delta, N)
    raise ValueError(f"unknown functor {name!r}")


def make_functor_expr(expr, ring, K, N):
    from . import functorcat
    parts = expr.split("*")
    F = make_functor(parts[0], ring, K, N)
    for nm in parts[1:]:
        F = functorcat.tensor_functors(F, make_functor(nm, ring, K, N))
    return F


# -- named maps for the EML commands -------------------------------------

def make_ring_map(ring, name):
    """A named self-map of a finite field, as a map into that field."""
    from . import emlpoly
    K = ring.as_field()
    if name.startswith("pow"):
        k = int(name[3:])
        if k < 0:
            raise ValueError(f"map exponent must be >= 0, got {k}")
        return emlpoly.RingMap(ring, K, func=lambda a: K.pow(a, k))
    raise ValueError(f"unknown map {name!r}")


def make_window_map(window, coeffs):
    """Horner's rule on a Z window, in ints over the lcm of denominators."""
    from . import emlpoly
    den = lcm(*[c.denominator for c in coeffs])
    nums = [c.numerator * (den // c.denominator) for c in reversed(coeffs)]

    def f(u):
        return Fraction(reduce(lambda v, c: v * u + c, nums, 0), den)
    return emlpoly.AbMap(emlpoly.AbGroup(window=window), QQ, func=f)


# -- subcommand handlers -------------------------------------------------

def cmd_partition(args):
    from . import symgrp
    lam = parse_partition(args.lam)
    if args.action == "conj":
        return {"conjugate": list(symgrp.conjugate(lam))}
    if args.action == "restricted":
        return {"p_restricted": symgrp.is_p_restricted(lam, args.p),
                "p_regular": symgrp.is_p_regular(lam, args.p)}
    if args.action == "digits":
        digs = symgrp.digit_decomposition(lam, args.p, args.r)
        return {"digits": [list(d) for d in digs]}
    raise ValueError(args.action)


def cmd_emlpoly(args):
    from . import emlpoly, rings
    if args.action in ("degree", "deviate"):
        if args.ring:
            f = make_ring_map(rings.FiniteRing(args.ring),
                              args.map).as_abmap()
        else:
            f = make_window_map(args.window, _coeff_list(args.poly))
    if args.action == "degree":
        d = emlpoly.eml_degree(f, args.cap)
        if isinstance(d, emlpoly.NotPolynomialUpTo):
            return {"degree": None, "not_polynomial_up_to": d.cap}
        return {"degree": d}
    if args.action == "deviate":
        return {"order": args.d,
                "vanishes": emlpoly.deviation_vanishes(f, args.d)}
    if args.action == "homog":
        f = make_window_map(args.window, _coeff_list(args.poly))
        parts = emlpoly.homogeneous_decomposition(f, cap=args.cap)
        probe = min(args.window // max(len(parts), 1), 3)
        degrees = [k for k, fk in enumerate(parts)
                   if any(fk(u) != 0 for u in range(probe + 1))]
        return {"degrees": degrees}
    if args.action == "factor":
        ring = rings.FiniteRing(args.ring)
        phi = make_ring_map(ring, args.map)
        factors, ext = emlpoly.factor_multiplicative(phi, cap=args.cap)
        out = []
        for h in factors:
            out.append({str(ring.parts(a)): str(h(a))
                        for a in ring.elements()})
        return {"count": len(factors), "extension": ext.label(),
                "homs": out}
    if args.action == "linearize":
        orders = [int(x) for x in args.orders.split(",")]
        if len(orders) != 3:
            raise ValueError(f"--orders needs three orders a,b,c, got "
                             f"{args.orders!r}")
        for m in orders:
            if m < 2:
                raise ValueError(f"cyclic orders must be >= 2, got {m}")
        a, b, c = orders
        if b % a or b // a != c:
            raise ValueError("orders must describe a cyclic extension")
        A, B, C = (rings.FiniteRing(f"Z/{m}") for m in orders)
        incl = emlpoly.AbMap(A, B, func=lambda u: c * u % b)
        proj = emlpoly.AbMap(B, C, func=lambda u: u % c)
        K = parse_field(args.coeff)
        rep = emlpoly.linearization_exactness(A, B, C, incl, proj, K)
        return {k: v for k, v in sorted(rep.items())}
    raise ValueError(args.action)


def _coeff_list(spec):
    if not spec:
        raise ValueError("a --poly coefficient list is required")
    try:
        return [Fraction(x) for x in spec.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in --poly {spec}") from None


def cmd_meataxe(args):
    from . import modtools
    mod = load_module(args.modfile)
    if args.action == "simple":
        return {"simple": modtools.is_simple(mod, seed=args.seed)}
    if args.action == "end":
        return {"end_dim": modtools.end_dim(mod)}
    if args.action == "iso":
        other = load_module(args.modfile2)
        return {"isomorphic": modtools.are_isomorphic(
            mod, other, seed=args.seed)}
    if args.action == "tensor":
        other = load_module(args.modfile2)
        t = modtools.tensor(mod, other)
        return {"dimension": t.dimension, "module": dump_module(t)}
    if args.action == "twist":
        t = modtools.frobenius_twist(mod, args.i)
        return {"dimension": t.dimension, "module": dump_module(t)}
    raise ValueError(args.action)


def cmd_schur(args):
    from . import schurfun
    lam = parse_partition(args.lam)
    K = parse_field(args.coeff)
    if args.action == "eval":
        rep = schurfun.schur_value(lam, args.n, K)
        return {"dimension": rep.dimension}
    if args.action == "socle":
        rep = schurfun.socle_simple(lam, args.n, K, seed=args.seed)
        return {"dimension": rep.dimension}
    if args.action == "weight":
        rep = schurfun.socle_simple(lam, args.n, K, seed=args.seed)
        w = schurfun.highest_weight(rep, degree=sum(lam))
        return {"highest_weight": list(w)}
    if args.action == "dettwist":
        return {"passed": schurfun.det_twist_check(lam, args.n, K,
                                                   seed=args.seed)}
    raise ValueError(args.action)


def cmd_elementary(args):
    from . import schurfun, symgrp
    lam = parse_partition(args.lam)
    K = parse_field(args.coeff)
    d = sum(lam)
    if K.char and symgrp.is_p_regular(lam, K.char):
        M = symgrp.simple_module(lam, K)
    else:
        M = symgrp.specht_module(lam, K)
    rep = schurfun.elementary_value(M, args.n, K)
    return {"dimension": rep.dimension, "degree": d}


def cmd_functor(args):
    from . import emlpoly, functorcat, rings
    ring = rings.FiniteRing(args.ring)
    K = parse_field(args.coeff)
    N = args.rank
    F = make_functor_expr(args.functor, ring, K, N)
    if args.action == "crosseffect":
        dims = [functorcat.cross_effect(F, d)[0] for d in range(N + 1)]
        return {"cross_effect_dims": dims}
    if args.action == "degree":
        d = functorcat.polynomial_degree(F, args.cap)
        if isinstance(d, emlpoly.NotPolynomialUpTo):
            return {"degree": None, "not_polynomial_up_to": d.cap}
        return {"degree": d}
    if args.action == "dimtable":
        rep = functorcat.dimension_profile(F)
        return {"dims": rep["values"], "fit": rep["fit"],
                "fit_ok": rep["fit_ok"]}
    if args.action == "iext":
        mm = functorcat.functor_value_module(F, args.n)
        T = functorcat.intermediate_extension_functor(mm, N)
        return {"dims": T.dims()}
    if args.action == "ideal":
        I = functorcat.unipotence_ideal(F, args.n)
        return {"ideal": sorted(str(ring.parts(a)) for a in I.elements),
                "size": len(I.elements),
                "cotrivial": functorcat.ideal_is_cotrivial(F, I)}
    if args.action == "tensor":
        return {"dims": F.dims()}
    if args.action == "simple":
        try:
            verdict = functorcat.simplicity_test(F, args.n,
                                                 seed=args.seed)
        except functorcat.NotIntermediateExtension as exc:
            return {"simple": None, "inconclusive": str(exc)}
        return {"simple": verdict}
    raise ValueError(args.action)


def cmd_steinberg(args):
    from . import steinberg
    K = parse_field(args.field) if args.field else None
    if args.action == "classify":
        rows = steinberg.classify_table(args.n, args.q, K=K,
                                        seed=args.seed)
        return {"_tsv": [("lambda", "digits", "dim", "simple", "class")]
                + rows}
    if args.action == "build":
        lam = parse_partition(args.lam)
        d = steinberg.build(lam, args.n, args.q, K, seed=args.seed)
        return {"lambda": list(d.lam),
                "digits": [list(x) for x in d.digits],
                "dimension": d.dimension,
                "field": d.field.label()}
    if args.action == "unique":
        lam = parse_partition(args.lam)
        lam2 = parse_partition(args.lam2)
        return steinberg.uniqueness_check(lam, lam2, args.n, args.q,
                                          K=K, seed=args.seed)
    if args.action == "product":
        mod = load_module(args.modfile)
        names1 = args.names1.split(",")
        names2 = args.names2.split(",")
        m1, m2 = steinberg.product_decompose(mod, names1, names2,
                                             seed=args.seed)
        return {"dims": [m1.dimension, m2.dimension]}
    raise ValueError(args.action)


# -- parsing and dispatch ------------------------------------------------

# each module's arguments, as (flag, add_argument keywords)
OPTIONS = {
    "partition": [
        ("action", dict(choices=("conj", "restricted", "digits"))),
        ("--lam", dict(required=True)), ("--p", dict(type=int, default=2)),
        ("--r", dict(type=int, default=1))],
    "emlpoly": [
        ("action", dict(choices=("degree", "deviate", "homog", "factor",
                                 "linearize"))),
        ("--ring", {}), ("--map", {}),
        ("--window", dict(type=int, default=60)), ("--poly", {}),
        ("--d", dict(type=int, default=2)),
        ("--cap", dict(type=int, default=6)), ("--orders", {}),
        ("--coeff", dict(default="F_3"))],
    "meataxe": [
        ("action", dict(choices=("simple", "end", "iso", "tensor",
                                 "twist"))),
        ("--module", dict(dest="modfile", required=True)),
        ("--module2", dict(dest="modfile2")),
        ("--i", dict(type=int, default=1))],
    "schur": [
        ("action", dict(choices=("eval", "socle", "weight", "dettwist"))),
        ("--lam", dict(required=True)),
        ("--n", dict(type=int, required=True)),
        ("--coeff", dict(required=True))],
    "elementary": [
        ("action", dict(choices=("eval",))), ("--lam", dict(required=True)),
        ("--n", dict(type=int, required=True)),
        ("--coeff", dict(required=True))],
    "functor": [
        ("action", dict(choices=("crosseffect", "degree", "dimtable",
                                 "iext", "ideal", "tensor", "simple"))),
        ("--ring", dict(required=True)), ("--coeff", dict(required=True)),
        ("--functor", dict(required=True)),
        ("--rank", dict(type=int, default=3)),
        ("--n", dict(type=int, default=1)),
        ("--cap", dict(type=int, default=4))],
    "steinberg": [
        ("action", dict(choices=("classify", "build", "unique",
                                 "product"))),
        ("--n", dict(type=int, default=2)), ("--q", dict(type=int, default=2)),
        ("--lam", {}), ("--lam2", {}), ("--field", {}),
        ("--module", dict(dest="modfile")), ("--names1", {}),
        ("--names2", {})],
    "batch": [("manifest", {})],
}


class _HelpFormatter(argparse.HelpFormatter):
    """Reads the terminal width only to format text, not in each
    ``add_argument``, which builds a formatter to check a metavar."""

    def __init__(self, prog):
        super().__init__(prog, width=0)  # a given width is not read
        del self._width, self._max_help_position  # see __getattr__

    def __getattr__(self, name):
        if name not in ("_width", "_max_help_position"):
            raise AttributeError(name)
        setattr(self, name, getattr(argparse.HelpFormatter(self._prog), name))
        return getattr(self, name)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that, once ``shown`` is a list, appends its help
    text, or its usage and error message, there instead of printing it.
    ``run`` returns that text as the job's output, so help inside a batch
    leaves the report JSON, a job that fails to parse says why, and no
    job writes to the process-wide ``sys.stdout`` or ``sys.stderr``."""

    shown = None

    def print_help(self, file=None):
        if self.shown is None:
            super().print_help(file)
        else:
            self.shown.append(self.format_help())

    def error(self, message):
        if self.shown is None:
            super().error(message)
        self.shown.append(f"{self.format_usage()}{self.prog}: error: "
                          f"{message}\n")
        raise SystemExit(2)


class _ModuleParsers(argparse._SubParsersAction):
    """Subparsers that add a module's ``OPTIONS`` once argparse dispatches
    to it, filling in place the name that maps to None until then."""

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if self.choices[name] is None:
            # what add_parser builds; it refuses a name already present
            sub = self._parser_class(prog=f"{self._prog_prefix} {name}",
                                     formatter_class=_HelpFormatter)
            sub.shown = parser.shown
            for flag, kwargs in OPTIONS[name]:
                sub.add_argument(flag, **kwargs)
            self.choices[name] = sub
        super().__call__(parser, namespace, values, option_string)


def build_parser():
    top = _Parser(prog="steinlab", allow_abbrev=False,
                  formatter_class=_HelpFormatter)
    top.add_argument("--seed", type=int, default=0)
    # accepted and unread: a batch runs its jobs in turn, which beat
    # worker threads, and scripts still pass it
    top.add_argument("--jobs", type=int, default=1)
    top.add_argument("--format", choices=("json", "tsv"), default=None)
    # with prog given, argparse does not format a usage line to find it
    sub = top.add_subparsers(dest="module", required=True, prog="steinlab",
                             action=_ModuleParsers)
    sub.choices.update(dict.fromkeys(OPTIONS))
    return top


# the options an action cannot run without, beyond those the parser
# requires: option -> None, or the option whose presence makes it needed
NEEDS = {
    ("emlpoly", "degree"): {"map": "ring"},
    ("emlpoly", "deviate"): {"map": "ring"},
    ("emlpoly", "factor"): {"ring": None, "map": None},
    ("emlpoly", "linearize"): {"orders": None},
    ("meataxe", "iso"): {"module2": None},
    ("meataxe", "tensor"): {"module2": None},
    ("steinberg", "build"): {"lam": None},
    ("steinberg", "unique"): {"lam": None, "lam2": None},
    ("steinberg", "product"): {"module": None, "names1": None,
                               "names2": None},
}


def _missing_option(args):
    """The first option in ``NEEDS`` that this job lacks, or None."""
    dest = {flag.lstrip("-"): kw.get("dest", flag.lstrip("-"))
            for flag, kw in OPTIONS[args.module]}
    given = vars(args)
    for opt, when in NEEDS.get((args.module, args.action), {}).items():
        if given[dest[opt]] is None and \
                (when is None or given[dest[when]] is not None):
            return opt
    return None


HANDLERS = {"partition": cmd_partition, "emlpoly": cmd_emlpoly,
            "meataxe": cmd_meataxe, "schur": cmd_schur,
            "elementary": cmd_elementary, "functor": cmd_functor,
            "steinberg": cmd_steinberg}


def render(result, fmt):
    if "_tsv" in result and fmt != "json":
        return "\n".join("\t".join(row) for row in result["_tsv"])
    if "_tsv" in result:
        head, *rows = result["_tsv"]
        result = {"rows": [dict(zip(head, r)) for r in rows]}
    if fmt == "tsv":
        return "\n".join(f"{k}\t{json.dumps(v, sort_keys=True)}"
                         for k, v in sorted(result.items()))
    return json.dumps(result, sort_keys=True)


def run(argv):
    """Run one job; returns (exit code, output text)."""
    parser = build_parser()
    parser.shown = shown = []
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # help exits 0 and an error 2; either text is the output
        return (1 if exc.code else 0), "".join(shown).rstrip("\n")
    if args.module == "batch":
        return run_batch(args)
    missing = _missing_option(args)
    if missing:
        return 2, f"error: {args.module} {args.action} needs --{missing}"
    try:
        result = HANDLERS[args.module](args)
    except CapExceeded as exc:
        return 3, f"error: {exc}"
    except (ValueError, KeyError, TypeError, RuntimeError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        return 2, f"error: {exc}"
    return 0, render(result, args.format)


def run_batch(args):
    try:
        with open(args.manifest) as fh:
            jobs = json.load(fh)
    except (OSError, ValueError) as exc:
        return 2, f"error: cannot read manifest: {exc}"
    if not isinstance(jobs, list):
        return 2, "error: manifest must be a JSON array"
    for i, job in enumerate(jobs):
        if not isinstance(job, dict):
            return 2, f"error: job {i} must be a JSON object"
        argv = job.get("args", [])
        if not (isinstance(argv, list)
                and all(isinstance(a, str) for a in argv)):
            return 2, f"error: args of job {i} must be a list of strings"

    results = []
    for job in jobs:
        argv = list(job.get("args", []))
        if args.seed and "--seed" not in argv:
            argv = ["--seed", str(args.seed)] + argv
        results.append(run(argv))
    report = {"jobs": len(jobs),
              "results": [{"index": i, "code": code, "output": text}
                          for i, (code, text) in enumerate(results)],
              "failures": sum(1 for code, _ in results if code)}
    return 0, json.dumps(report, sort_keys=True)


def main(argv=None):
    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        # a usage error goes to stderr, as argparse writes it
        print(text, file=sys.stderr if code == 1 else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
