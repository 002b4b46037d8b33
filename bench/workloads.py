"""The benchmark's workloads and their correctness gates.

Each workload has four steps:

* `expand()` is the set-up: it expands the field selector.
* `order(expanded, rng)` permutes the order of the fields (and pairs) fed to
  the program; each repetition of a run gets its own permutation, drawn from
  the run's seeded generator.  The order changes nothing else, so every
  output digest is seed-independent.
* `run(inputs, jobs)` is the timed operation.  It calls wrlat through module
  attributes, so that a traced run sees every call.
* `check(raw)` turns the program's output into an `Outcome` and compares its
  digest with the reference digest of the current code.

The reference digests hash canonical JSON (sorted keys, no whitespace).  The
scan digests cover the emitted `records` and `summary`, and leave out
`config`, whose `fields` order, `jobs` and `out` differ legitimately.  A
change that alters any record fails the gate; the mismatch message prints
the new digest.
"""

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "wrlat" / "__init__.py").is_file():
    raise ImportError("wrlat sources not found under %s" % SRC)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import wrlat  # noqa: E402
from wrlat import ideal_lattice, numtheory, survey_cli  # noqa: E402

if Path(wrlat.__file__).resolve().parent != SRC / "wrlat":
    raise ImportError("imported wrlat from %s, not from %s" % (wrlat.__file__, SRC))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    items: int          # records emitted, or (field, prime) pairs decomposed
    units: int          # operations attempted: fields scanned, or pairs
    failed: int         # operations failed, including every unit of a rep whose digest is wrong
    digest: str
    errors: list = field(default_factory=list)


@dataclass
class ScanWorkload:
    """`wrlat scan` or `wrlat conjecture` with JSON output, through `survey_cli.main`."""

    name: str
    command: str        # "scan" or "conjecture"
    spec: str
    norm_bound: int
    jobs: int
    reference: str = ""

    def expand(self):
        return survey_cli.expand_field_spec(self.spec)

    def order(self, field_ids, rng):
        return rng.sample(field_ids, len(field_ids))

    def run(self, field_ids, jobs):
        argv = [self.command, "--fields", ";".join(field_ids),
                "--norm-bound", str(self.norm_bound), "--jobs", str(jobs), "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = survey_cli.main(argv)
        return len(field_ids), status, out.getvalue()

    def check(self, raw):
        units, status, text = raw
        try:
            data = json.loads(text)
            records, summary = data["records"], data["summary"]
        except (ValueError, KeyError) as exc:
            return Outcome(0, units, units, "", ["unreadable output (exit %d): %s" % (status, exc)])
        errors = ["%s: %s" % (f["field_id"], f["error"]) for f in summary["failures"]]
        # `conjecture` exits 1 when it finds counterexamples; criterion 10's
        # corpus has them by design, so only an exit status that disagrees
        # with the summary is a failure
        expected = 1 if summary["failures"] or summary.get("counterexamples") else 0
        if status != expected:
            errors.append("exit status %d, expected %d" % (status, expected))
        got = digest({"records": records, "summary": summary})
        if got != self.reference:
            errors.append("digest %s != reference %s" % (got, self.reference))
        return Outcome(len(records), units, units if errors else 0, got, errors)


@dataclass
class DecomposeWorkload:
    """`decompose_prime` against `stable_subspace_primes` on every (field, prime)
    pair, as `wrlat decompose --oracle` does for one pair."""

    name: str
    spec: str
    max_prime: int
    reference: str = ""
    jobs = 1

    def expand(self):
        return survey_cli.expand_field_spec(self.spec), numtheory.primes_upto(self.max_prime)

    def order(self, expanded, rng):
        ids, primes = expanded
        pairs = [(fid, p) for fid in ids for p in primes]
        return rng.sample(ids, len(ids)), rng.sample(pairs, len(pairs))

    def run(self, inputs, jobs):
        ids, pairs = inputs
        fields = {fid: survey_cli.parse_field_id(fid) for fid in ids}
        out = []
        for fid, p in pairs:
            try:
                out.append((fid, p, ideal_lattice.decompose_prime(fields[fid], p),
                            ideal_lattice.stable_subspace_primes(fields[fid], p)))
            except Exception as exc:  # recorded as a failed pair, with its witness
                out.append((fid, p, None, "%s: %s" % (type(exc).__name__, exc)))
        return out

    def check(self, raw):
        errors, lines = [], []
        for fid, p, dec, ref in raw:
            if dec is None:
                errors.append("%s p=%d: %s" % (fid, p, ref))
                continue
            if dec.factors != ref.factors or dec.shape != ref.shape:
                errors.append("%s p=%d: engine %s disagrees with oracle %s"
                              % (fid, p, dec.shape, ref.shape))
            lines.append([fid, p, dec.shape, [[P.hnf, e] for P, e in dec.factors]])
        lines.sort(key=lambda line: (line[0], line[1]))
        got = digest(lines)
        failed = len(errors)
        if got != self.reference:
            errors.append("digest %s != reference %s" % (got, self.reference))
            failed = len(raw)
        return Outcome(len(raw), len(raw), failed, got, errors)


# Why each workload was chosen is recorded in BENCHMARK.json.  In short:
# scan-quartic-deep spends most of its time in LLL and Fincke-Pohst and
# discards most decomposed primes; survey-odd-corpus is criterion 10's corpus
# at a small bound, where per-field costs, the worker pool and the merge
# matter; decompose-sweep exercises decomposition alone, so a change to
# lattice reduction must read "no change" there.
WORKLOADS = {w.name: w for w in [
    ScanWorkload("scan-quartic-deep", "scan", "quartic:1,2,1,5", 4000, jobs=1,
                 reference="94648bddbbf6d00b6bf6d16e1bda6e71271a7d9902ffe77f48b9f0c8df3e626f"),
    ScanWorkload("survey-odd-corpus", "conjecture", "cubic:7..100;quartic:box:5,40,odd",
                 200, jobs=2,
                 reference="897e61cb5cbaf6bcbcad1a57ad8c9dbcc9554282d7e82b8f39758e57a41f5ce8"),
    DecomposeWorkload("decompose-sweep", "quartic:box:5,40;cubic:7..300", 97,
                      reference="64c82193b1ddb5d2d59a395557cadc1d3cd1a47865f240e822e7c092fd3ce9b6"),
]}
