"""Exact decision engine for universal rigidity of complete bipartite frameworks.

The package decides, with independently verifiable certificates, whether a
complete bipartite bar framework with rational coordinates is universally
rigid, dimensionally rigid only, or not dimensionally rigid.  Verdicts are
driven entirely by exact rational linear programming; positive certificates
additionally carry floating maximum-rank PSD stress matrices, verified by
exact recomputation of their correctly rounded entries and rank.
"""

from fractions import Fraction as Rational

from .engine import (
    CertificateChain,
    InvalidInput,
    IterationRecord,
    Verdict,
    rigidity_test,
    rigidity_test_batch,
    verify_chain,
)
from .geometry import (
    BipartiteFramework,
    SymmetricMatrix,
    affine_span_dim,
    in_affine_span,
    veronese,
)
from .separation import (
    RadonCertificate,
    SeparationCertificate,
    max_margin_quadric,
    maximal_support_radon,
    verify_radon,
    verify_separation,
)
from .stress import (
    StressCertificate,
    build_super_stable_stress,
    equilibrium_residual,
    extract_balanced_diagonals,
    generalized_stress,
    verify_super_stable_certificate,
)

__all__ = [
    "BipartiteFramework",
    "CertificateChain",
    "InvalidInput",
    "IterationRecord",
    "Rational",
    "RadonCertificate",
    "SeparationCertificate",
    "StressCertificate",
    "SymmetricMatrix",
    "Verdict",
    "affine_span_dim",
    "build_super_stable_stress",
    "equilibrium_residual",
    "extract_balanced_diagonals",
    "generalized_stress",
    "in_affine_span",
    "max_margin_quadric",
    "maximal_support_radon",
    "rigidity_test",
    "rigidity_test_batch",
    "verify_chain",
    "verify_radon",
    "verify_separation",
    "verify_super_stable_certificate",
    "veronese",
]

__version__ = "0.1.0"
