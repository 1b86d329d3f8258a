"""Job pools for the steinlab benchmark, and the independent oracles that
check some of their outputs.

Each job is one ``steinlab`` command line, without ``--seed``.  The
benchmark adds a ``--seed`` of its own to every job; the pinned outputs in
``expected.json`` hold under any seed.  A round of a workload runs every
job of its pool once, in an order drawn from the workload seed, so every
run measures the same mix of jobs.

Every pool holds 25 jobs.  The median and the 90th percentile of a run's
job times then fall in the middle of one job kind's samples (the 13th and
the 23rd fastest kind) instead of on the boundary between two kinds, which
keeps both readings steady.
"""

import json
import shlex
from fractions import Fraction

FUNCTOR_GALOIS = [
    # intermediate extensions over Z/6: rings.mat_mul, Subspace.add_vector
    "functor dimtable --ring Z/6 --coeff F_4 --functor tdelta --rank 3",
    "functor dimtable --ring Z/6 --coeff F_4 --functor tdelta --rank 2",
    "functor iext --ring Z/6 --coeff F_4 --functor tdelta --rank 2 --n 1",
    "functor tensor --ring Z/6 --coeff F_4 --functor lambda1*tdelta --rank 2",
    "functor simple --ring Z/6 --coeff F_4 --functor tdelta --rank 2 --n 1",
    "functor ideal --ring Z/6 --coeff F_4 --functor lambda1*tdelta"
    " --rank 2 --n 1",
    # Galois coefficients over finite-field rings
    "functor dimtable --ring F_2 --coeff F_4 --functor tdelta --rank 3",
    "functor dimtable --ring F_3 --coeff F_9 --functor tdelta --rank 3",
    "functor dimtable --ring F_4 --coeff F_4 --functor tdelta --rank 3",
    "functor dimtable --ring F_2 --coeff F_4 --functor gr1 --rank 4",
    "functor dimtable --ring F_3 --coeff F_9 --functor gr1 --rank 3",
    "functor dimtable --ring F_4 --coeff F_4 --functor gr1 --rank 3",
    "functor crosseffect --ring F_4 --coeff F_4 --functor tdelta --rank 3",
    "functor crosseffect --ring F_3 --coeff F_9 --functor tdelta --rank 3",
    "functor crosseffect --ring F_3 --coeff F_3 --functor gr1 --rank 3",
    "functor degree --ring F_2 --coeff F_4 --functor tdelta --rank 3",
    "functor degree --ring F_2 --coeff F_2 --functor rep --rank 3 --cap 3",
    "functor iext --ring F_2 --coeff F_4 --functor gr1 --rank 3 --n 2",
    "functor iext --ring F_3 --coeff F_3 --functor gr1 --rank 2 --n 2",
    "functor tensor --ring F_2 --coeff F_4 --functor lambda1*tdelta --rank 3",
    "functor tensor --ring F_3 --coeff F_9 --functor lambda1*tdelta --rank 3",
    "functor simple --ring F_2 --coeff F_4 --functor tdelta --rank 3 --n 2",
    "functor ideal --ring F_4 --coeff F_4 --functor tdelta --rank 3 --n 1",
    "functor ideal --ring F_3 --coeff F_9 --functor gr1 --rank 3 --n 1",
    "functor ideal --ring F_2 --coeff F_4 --functor tdelta --rank 3 --n 1",
]

RATIONAL = [
    "schur eval --lam 3 --n 3 --coeff Q",
    "schur eval --lam 2,1 --n 3 --coeff Q",
    "schur eval --lam 1,1,1 --n 3 --coeff Q",
    "schur eval --lam 4 --n 3 --coeff Q",
    "schur eval --lam 3,1 --n 3 --coeff Q",
    "schur eval --lam 2,2 --n 3 --coeff Q",
    "schur eval --lam 2,1,1 --n 3 --coeff Q",
    "schur eval --lam 1,1,1,1 --n 3 --coeff Q",
    "elementary eval --lam 3 --n 3 --coeff Q",
    "elementary eval --lam 2,1 --n 3 --coeff Q",
    "elementary eval --lam 1,1,1 --n 3 --coeff Q",
    "elementary eval --lam 1,1,1,1 --n 3 --coeff Q",
    "elementary eval --lam 2 --n 3 --coeff Q",
    "elementary eval --lam 3,1 --n 2 --coeff Q",
    "elementary eval --lam 4 --n 2 --coeff Q",
    "emlpoly degree --window 20 --poly 3,1",
    "emlpoly degree --window 24 --poly 1,0,0,1",
    "emlpoly degree --window 30 --poly 0,1,1",
    "emlpoly homog --window 20 --poly 0,1,1",
    "emlpoly homog --window 20 --poly 5,1",
    "emlpoly deviate --window 20 --poly 0,1,1 --d 3",
    "emlpoly deviate --window 30 --poly 0,0,1 --d 3",
    "emlpoly deviate --window 24 --poly 0,0,0,1 --d 3",
    "emlpoly deviate --window 20 --poly 1,1,1,1 --d 3",
    "emlpoly deviate --window 24 --poly 0,0,0,0,1 --d 4",
]

MODULAR = [
    "steinberg classify --n 2 --q 2",
    "steinberg classify --n 2 --q 4",
    "steinberg classify --n 3 --q 2",
    "steinberg classify --n 4 --q 2",
    "steinberg build --n 2 --q 4 --lam 3,1",
    "steinberg build --n 3 --q 2 --lam 1,1",
    "steinberg unique --n 2 --q 4 --lam 1 --lam2 2",
    "steinberg unique --n 3 --q 2 --lam 1 --lam2 1,1",
    "schur socle --lam 2,1 --n 3 --coeff F_2",
    "schur socle --lam 3 --n 2 --coeff F_5",
    "schur socle --lam 2,1 --n 2 --coeff F_8",
    "schur socle --lam 3,1 --n 2 --coeff F_9",
    "schur weight --lam 2,1 --n 2 --coeff F_8",
    "schur weight --lam 1,1 --n 3 --coeff F_5",
    "schur weight --lam 3 --n 3 --coeff F_3",
    "schur weight --lam 2,1 --n 3 --coeff F_2",
    "schur dettwist --lam 2,1 --n 2 --coeff F_3",
    "schur dettwist --lam 2,1,1 --n 3 --coeff F_5",
    "schur dettwist --lam 1 --n 3 --coeff F_8",
    "elementary eval --lam 2,1 --n 3 --coeff F_2",
    "elementary eval --lam 2,1 --n 2 --coeff F_5",
    "emlpoly factor --ring F_9 --map pow4",
    "emlpoly factor --ring F_5 --map pow3",
    "emlpoly degree --ring F_9 --map pow4",
    "emlpoly linearize --orders 2,4,2 --coeff F_3",
]

POOLS = {
    "functor-galois": FUNCTOR_GALOIS,
    "rational": RATIONAL,
    "modular": MODULAR,
}

# batch-modular runs each round of the modular draw as three manifests,
# one per part below (the light jobs, the middle ones, the two heaviest).
# A run then holds three kinds of batch time, and its median and p90 fall
# inside the middle and the heavy part's samples.
MODULAR_HEAVY = {
    "steinberg classify --n 2 --q 4",
    "steinberg classify --n 3 --q 2",
}
MODULAR_MIDDLE = {
    "schur socle --lam 2,1 --n 3 --coeff F_2",
    "schur weight --lam 2,1 --n 3 --coeff F_2",
    "schur socle --lam 3 --n 2 --coeff F_5",
    "schur socle --lam 3,1 --n 2 --coeff F_9",
    "steinberg unique --n 2 --q 4 --lam 1 --lam2 2",
    "steinberg build --n 2 --q 4 --lam 3,1",
    "schur dettwist --lam 2,1,1 --n 3 --coeff F_5",
}


def batch_parts(jobs):
    """Split one round of the modular draw into the three manifests of
    batch-modular, keeping the drawn order inside each."""
    heavy = [j for j in jobs if j[0] in MODULAR_HEAVY]
    middle = [j for j in jobs if j[0] in MODULAR_MIDDLE]
    light = [j for j in jobs
             if j[0] not in MODULAR_HEAVY and j[0] not in MODULAR_MIDDLE]
    return [light, middle, heavy]


# workload -> pool it draws from
WORKLOADS = {
    "functor-galois": "functor-galois",
    "rational": "rational",
    "modular": "modular",
    "batch-modular": "modular",
}


def stdout_of(text):
    """The bytes ``steinlab`` prints for a job whose output text is
    ``text`` (``cli.main`` prints nothing for an empty text)."""
    return text + "\n" if text else ""


# -- oracles -------------------------------------------------------------

def _options(job):
    """The ``--name value`` pairs of a job line, as a dict."""
    words = shlex.split(job)
    return {w[2:]: v for w, v in zip(words, words[1:]) if w.startswith("--")}


def _partition(spec):
    return [int(x) for x in spec.split(",")]


def hook_content_count(lam, n):
    """Semistandard tableaux of shape lam with entries <= n, by the
    hook-content formula: prod (n + c(x)) / h(x)."""
    conj = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= n + j - i
            den *= (row - j - 1) + (conj[j] - i - 1) + 1
    return num // den


def oracle_ok(job, code, text):
    """Check a job's output against an independent formula, where one is
    cheap; jobs without an oracle pass."""
    if code != 0:
        return True
    words = job.split()
    opts = _options(job)
    if words[:2] == ["schur", "eval"] and opts["coeff"] == "Q":
        expect = hook_content_count(_partition(opts["lam"]), int(opts["n"]))
        return json.loads(text)["dimension"] == expect
    if (words[0] == "functor" and words[1] in ("dimtable", "tensor")
            and opts["functor"] == "gr1" and opts["ring"].startswith("F_")):
        # points of the projective space P(F_q^m)
        q = int(opts["ring"][2:])
        expect = [(q ** m - 1) // (q - 1)
                  for m in range(int(opts["rank"]) + 1)]
        return json.loads(text)["dims"] == expect
    if words[:2] == ["emlpoly", "degree"] and "poly" in opts:
        coeffs = [Fraction(c) for c in opts["poly"].split(",")]
        expect = max(i for i, c in enumerate(coeffs) if c)
        return json.loads(text)["degree"] == expect
    if words[:2] == ["steinberg", "classify"]:
        # GL_n(F_q) has q^(n-1) (q - 1) simple modules in the defining
        # characteristic, one per p-regular conjugacy class
        n, q = int(opts["n"]), int(opts["q"])
        rows = text.split("\n")[1:]
        return len(rows) == q ** (n - 1) * (q - 1)
    return True

