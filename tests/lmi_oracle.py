"""Dense LMI oracle for the per-coordinate certificate of uiobeam.design.

The dense blocks (assemble_lmi_blocks, feasible) are the test oracle for
that certificate: they take dense P and Z, build B_T, D and H from the
problem's vectors and are not assembled at run time. Both the certificate
and its oracle issue their verdicts at the one tolerance
linalg.DEFINITENESS_TOL.
"""

import numpy as np

from uiobeam.errors import ShapeError
from uiobeam.linalg import check_definiteness, symmetrize_checked


def assemble_lmi_blocks(prob, p, z, mu):
    """Dense blocks (M1, M2) at the candidate (P, Z, mu); P is checked and
    symmetrized within the kernel tolerance. Any dense (P, Z), not only
    diagonal ones, against B_T, D and H built from the problem's vectors."""
    p = symmetrize_checked(p, "P")
    z = np.asarray(z, float)
    n = prob.dim
    if p.shape != (n, n) or z.shape != (n, n):
        raise ShapeError(f"P/Z shapes {p.shape}/{z.shape} != problem dimension {(n, n)}")
    zeros = np.zeros((n, n))
    eye = np.eye(n)
    pz = p - z
    zd_pb = z @ np.diag(prob.d) - p @ np.diag(prob.b_t)
    m1 = np.block([
        [(prob.alpha - 1.0) * p, zeros, pz.T],
        [zeros, -prob.alpha * eye, zd_pb.T],
        [pz, zd_pb, -p],
    ])
    h = np.diag(prob.h)
    m2 = np.block([[p, h.T], [h, mu * eye]])
    return m1, m2


def feasible(prob, p, z, mu):
    """True iff M1 is NSD and M2 is PSD at linalg.DEFINITENESS_TOL, checked on
    the dense blocks at dense P and Z: the oracle of design.diagonal_feasible,
    which design() uses."""
    m1, m2 = assemble_lmi_blocks(prob, p, z, mu)
    nsd = check_definiteness(m1, "NSD")
    psd = check_definiteness(m2, "PSD")
    return nsd and psd
