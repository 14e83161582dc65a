"""Analysis reports: one document tying all pipeline stages together.

The machine-readable form is canonical JSON (sorted keys, fixed
separators, no floats, no timestamps), so identical inputs produce
byte-identical reports.  Every numeric entry is reproducible by
re-running the corresponding operation on the echoed input document;
:func:`verify_report` does exactly that and pinpoints divergences.
"""

from __future__ import annotations

import json
from functools import cached_property

from . import __version__
from .cohomology import cohomology, trace_is_zero
from .errors import InputError, InternalInvariantViolation
from .formality import (
    build_twisted_model,
    formality_from_twisted,
    total_model_dump,
)
from .minimal_model import build_minimal_model, serialize_model, verify_quasi_iso
from .monodromy import check_fiber_size, nilpotent_submodule, oracle_applicable
from .spectral import (
    AlmostAbelianSpec,
    modification_hypothesis_holds,
    parse_spec,
    spec_document,
)
from .symplectic import closed_two_classes, find_symplectic, verify_symplectic

FORMAT_VERSION = 1

STAGES = ("unipotent", "cohomology", "model", "formality", "symplectic")

# Largest --max-degree taken on; it bounds the report, which lists every degree (about
# 26 KB at K = 1000).  Where the model stops growing the build stops too, and the checks
# walk every degree once.  `analyze` on a 2-vCPU x86 VM: the bundled fixtures and nil7
# take 0.17-0.20 s at K = 1000; in-process the fixtures take 0.02-0.03 s at K = 2000.
MAX_DEGREE = 1000
# A degree of more digits is refused as such, unformatted: Python's digit limit stops
# str() of an int, and the command line converts at most one digit more.
MAX_DEGREE_DIGITS = 40


class Analysis:
    """Computes pipeline stages once and shares the intermediate objects."""

    def __init__(self, spec: AlmostAbelianSpec, max_degree: int):
        if max_degree < 1:
            raise InputError("--max-degree must be at least 1")
        if max_degree > MAX_DEGREE:
            shown = max_degree if max_degree < 10**MAX_DEGREE_DIGITS else f"of more than {MAX_DEGREE_DIGITS} digits"
            raise InputError(f"--max-degree {shown} is above the limit of {MAX_DEGREE}")
        check_fiber_size(spec)  # the unipotent section reads every degree's slice
        self.spec = spec
        self.max_degree = max_degree

    @cached_property
    def model(self):
        return build_minimal_model(self.spec, self.max_degree)

    @cached_property
    def twisted(self):
        return build_twisted_model(self.model)

    # ----- report sections -----------------------------------------------------

    def unipotent_section(self) -> dict:
        dims = {}
        bases = {}
        for k in range(self.spec.n + 1):
            basis = nilpotent_submodule(self.spec, k)
            dims[str(k)] = len(basis)
            bases[str(k)] = [str(v) for v in basis]
        return {"dims": dims, "bases": bases, "oracle_applicable": oracle_applicable(self.spec)}

    def cohomology_section(self) -> dict:
        slices = [cohomology(self.spec, k) for k in range(self.spec.n + 2)]
        betti = [slice_.betti for slice_ in slices]
        alpha = f"a{self.spec.n + 1}"
        reps = {}
        for slice_ in slices:
            listed = [str(v) for v in slice_.kernel_reps]
            listed += [f"({v}) ^ {alpha}" for v in slice_.coker_reps]
            reps[str(slice_.degree)] = listed
        return {
            "betti": {str(k): b for k, b in enumerate(betti)},
            "representatives": reps,
            "poincare_duality": betti == betti[::-1],  # degrees 0..n+1 of a closed (n+1)-manifold
            "euler_characteristic": sum((-1) ** k * b for k, b in enumerate(betti)),
        }

    def model_section(self) -> dict:
        model = self.model
        counts = {
            str(d): {"closed": c, "non_closed": nc}
            for d, (c, nc) in model.generator_counts().items()
        }
        quasi = verify_quasi_iso(model)
        return {
            "degree_bound": model.degree_bound,
            "generator_counts": counts,
            "dump": serialize_model(model).splitlines(),
            "quasi_isomorphism": {str(k): v["ok"] for k, v in quasi.items()},
        }

    def formality_section(self) -> dict:
        tm = self.twisted
        verdict = formality_from_twisted(tm, self.max_degree)
        statuses = {}
        witnesses = {}
        for status in verdict.statuses:
            statuses[str(status.degree)] = "pass" if status.passed else "fail"
            if not status.passed:
                witnesses[str(status.degree)] = {
                    "element": tm.model.poly_str(status.witness),
                    "twist": tm.model.poly_str(status.witness_twist),
                }
        return {
            "max_checked_degree": verdict.max_checked_degree,
            "model_bound": verdict.model_bound,
            "statuses": statuses,
            "witnesses": witnesses,
            "summary": verdict.summary(),
            "twist_ambiguity_degrees": tm.ambiguity_degrees,
            "total_model": total_model_dump(tm).splitlines(),
        }

    def symplectic_section(self) -> dict:
        total = self.spec.n + 1
        if total % 2:
            return {"applicable": False, "reason": f"total dimension {total} is odd"}
        section = {"applicable": True, "closed_two_basis": [str(v) for v in closed_two_classes(self.spec)]}
        witness = find_symplectic(self.spec)
        if witness is None:
            section["witness"] = None
            section["reason"] = (
                "no invariant form of type F + eta ^ a exists "
                "(exact grid decision, scoped to this construction)"
            )
            return section
        ok, certificates = verify_symplectic(self.spec, witness)
        if not ok:
            raise InternalInvariantViolation(
                f"symplectic witness fails its certificates: {certificates}"
            )
        section["witness"] = {
            "two_form": str(witness.pair.two_form),
            "one_form": str(witness.pair.one_form),
            "omega": str(witness.omega),
            "pairing": str(witness.pairing),
            "omega_top": str(witness.omega_top),
            "verified": ok,
            "certificates": certificates,
        }
        return section

    def assumptions_section(self) -> dict:
        return {
            "lattice_existence": "asserted by the user"
            + (f" ({self.spec.lattice_label})" if self.spec.lattice_label else ""),
            "modification_hypothesis_holds": modification_hypothesis_holds(self.spec),
            "modification_note": "the completely solvable replacement is trusted "
            "to compute the cohomology of the quotient",
            "unimodular_trace_zero": trace_is_zero(self.spec),
            "finite_type_bound": self.max_degree,
            "symplectic_closedness_condition": "per-element shift kernel on the chosen 2-form",
        }


def build_report(spec: AlmostAbelianSpec, max_degree: int, stages=STAGES) -> dict:
    analysis = Analysis(spec, max_degree)
    report = {
        "format_version": FORMAT_VERSION,
        "generator": {"name": "solvform", "version": __version__},
        "input": spec_document(spec),
        "max_degree": max_degree,
        "assumptions": analysis.assumptions_section(),
    }
    for stage in STAGES:  # pipeline order, so a refusal comes from the earliest stage
        if stage in stages:
            report[stage] = getattr(analysis, f"{stage}_section")()
    return report


def dumps_canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def verify_report(report: dict, spec: AlmostAbelianSpec, text: str | None = None):
    """Re-derive every checkable claim of a report; list the divergences.

    ``text``, the report as read, verifies it when it is the canonical dump of
    the recomputation; any other report is compared section by section."""
    version = report.get("format_version")
    # True == 1 == 1.0 in Python, so the type is checked before the value
    if type(version) is not int or version != FORMAT_VERSION:
        return False, [f"unsupported format_version {version!r}"]
    try:
        # the echo is parsed only when its canonical bytes differ from the fresh echo's
        if dumps_canonical(report["input"]) != dumps_canonical(spec_document(spec)):
            if parse_spec(json.dumps(report["input"])) != spec:
                return False, ["echoed input differs from the supplied document"]
    except (KeyError, InputError) as exc:
        return False, [f"report does not echo a valid input: {exc}"]
    max_degree = report.get("max_degree")
    if type(max_degree) is not int or not 1 <= max_degree <= MAX_DEGREE:
        return False, ["report lacks a valid max_degree"]
    stages = [s for s in STAGES if s in report]
    fresh = build_report(spec, max_degree, stages=stages)
    if text == dumps_canonical(fresh):
        return True, []
    mismatches = []
    # sections compare as canonical bytes, where True, 1 and 1.0 differ;
    # a missing generator or assumptions section diverges too
    for section in ["generator", "input", "assumptions"] + stages:
        if dumps_canonical(report.get(section)) != dumps_canonical(fresh[section]):
            mismatches.append(_first_divergence(section, report.get(section), fresh[section]))
    mismatches += [f"unknown top-level key {key!r}" for key in sorted(set(report) - set(fresh))]
    return not mismatches, mismatches


def _first_divergence(stage: str, old, new, path="") -> str:
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        old, new = dict(enumerate(old)), dict(enumerate(new))
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if dumps_canonical(old.get(key)) != dumps_canonical(new.get(key)):
                return _first_divergence(stage, old.get(key), new.get(key), f"{path}/{key}")
    return f"{stage}{path}: report has {_shown(old)}, recomputation gives {_shown(new)}"


def _shown(value) -> str:
    """``repr(value)``, cut past 400 characters to its first 320 and its length."""
    text = repr(value)
    return text if len(text) <= 400 else f"{text[:320]}... ({len(text)} characters)"
