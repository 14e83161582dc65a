"""Human-readable rendering of a report, for ``--format text``.

It reads only the canonical report dict, so a JSON run never needs it and
the command line imports this module only when text is asked for.
"""


def render_text(report: dict) -> str:
    """Human-readable rendering of a report."""
    lines = []
    doc = report["input"]
    lines.append(f"instance: n = {doc['n']}, total dimension {doc['n'] + 1}")
    if doc.get("lattice_label"):
        lines.append(f"lattice: {doc['lattice_label']} (existence asserted, not checked)")
    assumptions = report.get("assumptions", {})
    if assumptions:
        lines.append(
            "unimodular (trace zero): %s" % ("yes" if assumptions.get("unimodular_trace_zero") else "NO")
        )
    if "unipotent" in report:
        dims = report["unipotent"]["dims"]
        lines.append("")
        lines.append("invariant submodule dimensions by degree:")
        lines.append("  " + ", ".join(f"{k}: {v}" for k, v in sorted(dims.items(), key=lambda kv: int(kv[0]))))
        for k, basis in sorted(report["unipotent"]["bases"].items(), key=lambda kv: int(kv[0])):
            if basis:
                lines.append(f"  degree {k}: " + "; ".join(basis))
    if "cohomology" in report:
        betti = report["cohomology"]["betti"]
        lines.append("")
        lines.append(
            "betti numbers: "
            + ", ".join(f"b{k} = {v}" for k, v in sorted(betti.items(), key=lambda kv: int(kv[0])))
        )
        for k, reps in sorted(report["cohomology"]["representatives"].items(), key=lambda kv: int(kv[0])):
            if reps:
                lines.append(f"  H^{k}: " + "; ".join(reps))
        lines.append(f"poincare duality: {report['cohomology']['poincare_duality']}")
    if "model" in report:
        lines.append("")
        lines.extend(report["model"]["dump"])
    if "formality" in report:
        lines.append("")
        lines.extend(report["formality"]["total_model"])
        lines.append("")
        lines.append("formality: " + report["formality"]["summary"])
        for degree, witness in sorted(report["formality"]["witnesses"].items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"  degree {degree} witness: {witness['element']} (twist {witness['twist']})"
            )
        if report["formality"]["twist_ambiguity_degrees"]:
            lines.append(
                "  twist involved a choice in degrees: "
                + ", ".join(str(d) for d in report["formality"]["twist_ambiguity_degrees"])
            )
    if "symplectic" in report:
        section = report["symplectic"]
        lines.append("")
        if not section.get("applicable"):
            lines.append(f"symplectic: not applicable ({section.get('reason')})")
        elif section.get("witness"):
            w = section["witness"]
            lines.append("symplectic witness:")
            lines.append(f"  F = {w['two_form']}")
            lines.append(f"  eta = {w['one_form']}")
            lines.append(f"  omega = {w['omega']}")
            lines.append(f"  top power coefficient = {w['omega_top']} (pairing {w['pairing']})")
            lines.append(f"  independently verified: {w['verified']}")
        else:
            lines.append(f"symplectic: none ({section.get('reason')})")
    return "\n".join(lines) + "\n"
