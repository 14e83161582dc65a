"""Analysis reports: one document tying all pipeline stages together.

The machine-readable form is canonical JSON (sorted keys, fixed
separators, no floats, no timestamps), so identical inputs produce
byte-identical reports.  Every numeric entry is reproducible by
re-running the corresponding operation on the echoed input document;
:func:`verify_report` does exactly that and pinpoints divergences.
"""

from __future__ import annotations

import json

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
    emit_spec,
    modification_hypothesis_holds,
    parse_spec,
)
from .symplectic import closed_two_classes, find_symplectic, verify_symplectic

FORMAT_VERSION = 1

STAGES = ("unipotent", "cohomology", "model", "formality", "symplectic")

# Largest --max-degree taken on.  The model build counts monomials over a series of
# length K + 2 at every stage and the checks walk every degree, so the work outgrows
# K**2 even where the model stops growing.  `analyze` on a 2-vCPU x86 VM: the bundled
# fixtures take 0.4-0.5 s at K = 1000 and 1.5-2.0 s at K = 2000, nil7 0.8 s at K = 1000.
MAX_DEGREE = 1000


class Analysis:
    """Computes pipeline stages once and shares the intermediate objects."""

    def __init__(self, spec: AlmostAbelianSpec, max_degree: int = 3):
        if max_degree < 1:
            raise InputError("--max-degree must be at least 1")
        if max_degree > MAX_DEGREE:
            raise InputError(f"--max-degree {max_degree} is above the limit of {MAX_DEGREE}")
        check_fiber_size(spec)  # the unipotent section reads every degree's slice
        self.spec = spec
        self.max_degree = max_degree
        self._model = None
        self._twisted = None

    @property
    def model(self):
        if self._model is None:
            self._model = build_minimal_model(self.spec, self.max_degree)
        return self._model

    @property
    def twisted(self):
        if self._twisted is None:
            self._twisted = build_twisted_model(self.spec, self.model)
        return self._twisted

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
        n_total = self.spec.n + 1
        duality = all(betti[k] == betti[n_total - k] for k in range(n_total + 1))
        return {
            "betti": {str(k): b for k, b in enumerate(betti)},
            "representatives": reps,
            "poincare_duality": duality,
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
        closed_basis = [str(v) for v in closed_two_classes(self.spec)]
        witness = find_symplectic(self.spec)
        if witness is None:
            return {
                "applicable": True,
                "closed_two_basis": closed_basis,
                "witness": None,
                "reason": "no invariant form of type F + eta ^ a exists "
                "(exact grid decision, scoped to this construction)",
            }
        ok, certificates = verify_symplectic(self.spec, witness)
        if not ok:
            raise InternalInvariantViolation(
                f"symplectic witness fails its certificates: {certificates}"
            )
        return {
            "applicable": True,
            "closed_two_basis": closed_basis,
            "witness": {
                "two_form": str(witness.pair.two_form),
                "one_form": str(witness.pair.one_form),
                "omega": str(witness.omega),
                "pairing": str(witness.pairing),
                "omega_top": str(witness.omega_top),
                "verified": ok,
                "certificates": certificates,
            },
        }

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


def build_report(spec: AlmostAbelianSpec, max_degree: int = 3, stages=STAGES) -> dict:
    analysis = Analysis(spec, max_degree)
    report = {
        "format_version": FORMAT_VERSION,
        "generator": {"name": "solvform", "version": "0.1.0"},
        "input": json.loads(emit_spec(spec)),
        "max_degree": max_degree,
        "assumptions": analysis.assumptions_section(),
    }
    if "unipotent" in stages:
        report["unipotent"] = analysis.unipotent_section()
    if "cohomology" in stages:
        report["cohomology"] = analysis.cohomology_section()
    if "model" in stages:
        report["model"] = analysis.model_section()
    if "formality" in stages:
        report["formality"] = analysis.formality_section()
    if "symplectic" in stages:
        report["symplectic"] = analysis.symplectic_section()
    return report


def dumps_canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def verify_report(report: dict, spec: AlmostAbelianSpec):
    """Re-derive every checkable claim of a report; list the divergences."""
    mismatches: list[str] = []
    version = report.get("format_version")
    # True == 1 == 1.0 in Python, so the type is checked before the value
    if not isinstance(version, int) or isinstance(version, bool) or version != FORMAT_VERSION:
        return False, [f"unsupported format_version {version!r}"]
    try:
        echoed = parse_spec(json.dumps(report["input"]))
    except (KeyError, InputError) as exc:
        return False, [f"report does not echo a valid input: {exc}"]
    if echoed != spec:
        mismatches.append("echoed input differs from the supplied document")
        return False, mismatches
    max_degree = report.get("max_degree")
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or not 1 <= max_degree <= MAX_DEGREE:
        return False, ["report lacks a valid max_degree"]
    stages = [s for s in STAGES if s in report]
    fresh = build_report(spec, max_degree, stages=stages)
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
    return f"{stage}{path}: report has {old!r}, recomputation gives {new!r}"
