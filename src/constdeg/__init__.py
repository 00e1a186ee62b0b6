"""Constructive certificates of prescribed local degrees for abelian extensions.

Builds an abelian extension of Q or of an imaginary quadratic field whose
local degree at every finite prime up to a chosen norm bound equals a
prescribed prime power (exponent n at the real place handled for even n),
and independently re-verifies the resulting certificate.
"""

__version__ = "0.1.0"

from .classfield import local_degree
from .constructor import Config, certificate_json, compose_for_n, construct, write_certificate
from .quadfield import RATIONAL, quadratic_field
from .verifier import (
    MalformedCertificate,
    MismatchFound,
    QuaternionAlgebra,
    RamifiedPlaceOutOfRange,
    brauer_split_check,
    hilbert_symbol,
    parse_certificate,
    ramified_places,
    verify,
)

__all__ = [
    "Config",
    "MalformedCertificate",
    "MismatchFound",
    "QuaternionAlgebra",
    "RATIONAL",
    "RamifiedPlaceOutOfRange",
    "brauer_split_check",
    "certificate_json",
    "compose_for_n",
    "construct",
    "hilbert_symbol",
    "local_degree",
    "parse_certificate",
    "quadratic_field",
    "ramified_places",
    "verify",
    "write_certificate",
]
