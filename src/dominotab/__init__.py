"""Domino tableau combinatorics: the 2-quotient, four tableau families, the
split/merge bijections between them, and exact verification of the resulting
product formulas for Schur-type generating functions."""

from .partitions import (
    beta_vector,
    inverse_two_quotient,
    is_partition,
    is_pavable,
    two_quotient,
)
from .pavings import (
    Domino,
    Paving,
    enumerate_pavings,
    is_shifted_pavable,
    is_shifted_paving,
)
from .tableaux import (
    FAMILIES,
    PLAIN,
    SET_VALUED,
    SHIFTED,
    SHIFTED_SET_VALUED,
    Family,
    ReadingWord,
    Tableau,
    enumerate_tableaux,
    make_tableau,
    reading_word,
    tableau_from_reading_word,
    validate_tableau,
    weight,
)
from .domino_tableaux import (
    DominoTableau,
    enumerate_domino_tableaux,
    make_domino_tableau,
    up_fingerprint,
    validate_domino_tableau,
)
from .bijections import gamma_merge, gamma_split
from .polyring import Polynomial, domino_genfun, genfun
from .verify import VerificationReport, verify_identity, verify_sweep

__version__ = "0.1.0"

__all__ = [
    "beta_vector",
    "inverse_two_quotient",
    "is_partition",
    "is_pavable",
    "two_quotient",
    "Domino",
    "Paving",
    "enumerate_pavings",
    "is_shifted_pavable",
    "is_shifted_paving",
    "FAMILIES",
    "PLAIN",
    "SET_VALUED",
    "SHIFTED",
    "SHIFTED_SET_VALUED",
    "Family",
    "ReadingWord",
    "Tableau",
    "enumerate_tableaux",
    "make_tableau",
    "reading_word",
    "tableau_from_reading_word",
    "validate_tableau",
    "weight",
    "DominoTableau",
    "enumerate_domino_tableaux",
    "make_domino_tableau",
    "up_fingerprint",
    "validate_domino_tableau",
    "gamma_merge",
    "gamma_split",
    "Polynomial",
    "domino_genfun",
    "genfun",
    "VerificationReport",
    "verify_identity",
    "verify_sweep",
]
